"""The object lowering: ``repro.comm.planner``'s original stream builder.

It built one frozen instruction object per op, a ``_PlannedComm`` record
per Start op, and sorted the ``ComputeOp``-keyed ``op_times`` dict by
``(end, stage, microbatch)``.  ``repro.comm.planner.build_instruction_streams``
now writes integer columns straight from the solved start/end arrays; the
two must produce equal instruction sequences.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from repro.comm.shapes import TransferShapes
from repro.instructions.ops import (
    BackwardPass,
    ForwardPass,
    PipelineInstruction,
    RecvActStart,
    RecvGradStart,
    SendActStart,
    SendGradStart,
    WaitRecvAct,
    WaitRecvGrad,
)
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.events import ComputeOp, OpType, PipelineSchedule


@dataclass(frozen=True)
class _PlannedComm:
    """A communication Start op anchored on a device's compute sequence.

    Attributes:
        device: Device whose stream the op belongs to.
        anchor: Index into the device's compute-op sequence before which the
            op must be launched (``len(ops)`` means "after the last op").
        order_time: Global time used to order Start ops with the same anchor.
        sequence: Tie-break counter preserving planning order.
        instruction: The Start instruction itself.
    """

    device: int
    anchor: int
    order_time: float
    sequence: int
    instruction: PipelineInstruction


def _compute_instruction(
    op: ComputeOp,
    shapes: Sequence[MicroBatchShape],
    recompute: Sequence[RecomputeMode],
) -> PipelineInstruction:
    """Build the ForwardPass/BackwardPass instruction for a compute op."""
    shape = shapes[op.microbatch]
    mode = recompute[op.microbatch]
    if op.op_type is OpType.FORWARD:
        return ForwardPass(microbatch=op.microbatch, stage=op.stage, shape=shape, recompute=mode)
    return BackwardPass(microbatch=op.microbatch, stage=op.stage, shape=shape, recompute=mode)


def _start_bounds(
    schedule: PipelineSchedule, op_times: dict[ComputeOp, tuple[float, float]]
) -> list[list[float]]:
    """Per device, the running maximum of its compute ops' start times.

    The first op of a device that starts at or after some time is the first
    position where this running maximum reaches that time, so
    :func:`_anchor_for_time` can bisect it even when start times are not
    monotone in the device's op order.
    """
    return [
        list(accumulate((op_times[op][0] for op in stage_schedule.ops), max))
        for stage_schedule in schedule.stages
    ]


def _anchor_for_time(bounds: Sequence[float], time: float) -> int:
    """First compute-op position whose start is at/after ``time`` (within 1e-9).

    ``bounds`` is one device's entry of :func:`_start_bounds`; the result is
    ``len(bounds)`` when every op starts earlier.
    """
    return bisect_left(bounds, time - 1e-9)


def _normalise_recompute(
    recompute: RecomputeMode | Sequence[RecomputeMode], count: int
) -> list[RecomputeMode]:
    if isinstance(recompute, RecomputeMode):
        return [recompute] * count
    recompute = list(recompute)
    if len(recompute) != count:
        raise ValueError(
            f"expected {count} recompute modes, got {len(recompute)}"
        )
    return recompute


def build_instruction_streams(
    schedule: PipelineSchedule,
    op_times: dict[ComputeOp, tuple[float, float]],
    shapes: Sequence[MicroBatchShape],
    transfer_shapes: TransferShapes,
    recompute: RecomputeMode | Sequence[RecomputeMode] = RecomputeMode.NONE,
) -> list[list[PipelineInstruction]]:
    """Generate deadlock-free per-device instruction streams (paper §6).

    Args:
        schedule: The pipeline schedule (per-device compute op order).
        op_times: Simulated (start, end) times of every compute op, e.g. from
            :func:`repro.simulator.engine.simulate_schedule`.
        shapes: Padded shape of each micro-batch (indexed by micro-batch id).
        transfer_shapes: Byte counts of all inter-stage transfers.
        recompute: Recomputation mode, either global or per micro-batch.

    Returns:
        One list of instructions per device, in execution order.
    """
    num_stages = schedule.num_stages
    if len(shapes) != schedule.num_microbatches:
        raise ValueError(
            f"expected {schedule.num_microbatches} shapes, got {len(shapes)}"
        )
    recompute_modes = _normalise_recompute(recompute, schedule.num_microbatches)

    # Position of each compute op within its device's sequence.
    op_position: dict[ComputeOp, int] = {}
    for stage_schedule in schedule.stages:
        for position, op in enumerate(stage_schedule.ops):
            op_position[op] = position

    bounds = _start_bounds(schedule, op_times)

    planned: list[_PlannedComm] = []
    sequence = 0
    # Iterate compute ops by ascending end time; schedule both sides of each
    # transfer at the producer's end time.
    for op in sorted(op_times, key=lambda o: (op_times[o][1], o.stage, o.microbatch)):
        end_time = op_times[op][1]
        mb = op.microbatch
        if op.op_type is OpType.FORWARD and op.stage < num_stages - 1:
            nbytes = transfer_shapes.act_bytes(mb, op.stage)
            send = SendActStart(microbatch=mb, stage=op.stage, peer=op.stage + 1, nbytes=nbytes)
            recv = RecvActStart(microbatch=mb, stage=op.stage + 1, peer=op.stage, nbytes=nbytes)
            planned.append(
                _PlannedComm(op.stage, op_position[op] + 1, end_time, sequence, send)
            )
            sequence += 1
            planned.append(
                _PlannedComm(op.stage + 1, _anchor_for_time(bounds[op.stage + 1], end_time), end_time, sequence, recv)
            )
            sequence += 1
        elif op.op_type is OpType.BACKWARD and op.stage > 0:
            nbytes = transfer_shapes.grad_bytes(mb, op.stage)
            send = SendGradStart(microbatch=mb, stage=op.stage, peer=op.stage - 1, nbytes=nbytes)
            recv = RecvGradStart(microbatch=mb, stage=op.stage - 1, peer=op.stage, nbytes=nbytes)
            planned.append(
                _PlannedComm(op.stage, op_position[op] + 1, end_time, sequence, send)
            )
            sequence += 1
            planned.append(
                _PlannedComm(op.stage - 1, _anchor_for_time(bounds[op.stage - 1], end_time), end_time, sequence, recv)
            )
            sequence += 1

    # Group planned comm ops by (device, anchor), keeping the global order.
    by_anchor: dict[tuple[int, int], list[_PlannedComm]] = {}
    for item in planned:
        by_anchor.setdefault((item.device, item.anchor), []).append(item)
    for items in by_anchor.values():
        items.sort(key=lambda item: (item.order_time, item.sequence))

    streams: list[list[PipelineInstruction]] = []
    for device in range(num_stages):
        stream: list[PipelineInstruction] = []
        device_ops = schedule.stage(device).ops
        for position, op in enumerate(device_ops):
            # Comm Start ops anchored before this compute op.
            for item in by_anchor.get((device, position), []):
                stream.append(item.instruction)
            # Wait for the tensor this compute op consumes, if any.
            if op.op_type is OpType.FORWARD and device > 0:
                stream.append(WaitRecvAct(microbatch=op.microbatch, stage=device, peer=device - 1))
            elif op.op_type is OpType.BACKWARD and device < num_stages - 1:
                stream.append(WaitRecvGrad(microbatch=op.microbatch, stage=device, peer=device + 1))
            stream.append(_compute_instruction(op, shapes, recompute_modes))
        # Comm ops anchored after the final compute op.
        for item in by_anchor.get((device, len(device_ops)), []):
            stream.append(item.instruction)
        streams.append(stream)
    return streams
