"""Ahead-of-time communication planning and instruction stream generation.

Given a pipeline schedule and the simulated timeline of its compute ops, the
planner emits one instruction stream per device, written straight into the
integer columns of :mod:`repro.instructions.streams`, containing:

* the compute ops in their scheduled order (``ForwardPass`` / ``BackwardPass``),
* ``Send*Start`` / ``Recv*Start`` ops for every inter-stage transfer, and
* ``WaitRecv*`` ops placed immediately before the compute op that consumes a
  received tensor.

Following §6 of the paper, the send *and* the matching receive of a transfer
are both scheduled at the moment the tensor is produced on the simulated
timeline.  Because every device orders its Start ops for a given neighbour
by that same global production time, the two sides of every channel post
transfers in the same order, which guarantees deadlock freedom (verified by
:mod:`repro.comm.deadlock` and, dynamically, by the instruction executor).

The module also provides the *naive* ordering — send right after production,
receive right before use — which is what existing systems do and which
deadlocks under dynamic (non-1F1B) schedules; it is used by tests, examples
and the baseline to demonstrate the problem.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Mapping, Sequence

from repro.comm.shapes import TransferShapes
from repro.instructions.streams import (
    BACKWARD,
    FORWARD,
    NONE,
    RECOMPUTE_CODES,
    RECV_ACT,
    RECV_GRAD,
    SEND_ACT,
    SEND_GRAD,
    WAIT_RECV_ACT,
    WAIT_RECV_GRAD,
    DeviceStream,
    InstructionStreams,
    columns_of,
)
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.events import ComputeOp, OpType, PipelineSchedule


def _shape_table(shapes: Sequence[MicroBatchShape]) -> tuple[list[MicroBatchShape], list[int]]:
    """The distinct shapes (a plan's shape table) and each micro-batch's index in it."""
    table: dict[MicroBatchShape, int] = {}
    index = [table.setdefault(shape, len(table)) for shape in shapes]
    return list(table), index


def _start_bounds(starts: Sequence[Sequence[float]]) -> list[list[float]]:
    """Per device, the running maximum of its compute ops' start times.

    ``starts`` holds each device's op start times in its op order.  The
    first op of a device that starts at or after some time is the first
    position where this running maximum reaches that time, so
    :func:`_anchor_for_time` can bisect it even when start times are not
    monotone in the device's op order.
    """
    return [list(accumulate(device_starts, max)) for device_starts in starts]


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
    op_times: Mapping[ComputeOp, tuple[float, float]] | tuple[Sequence[float], Sequence[float]],
    shapes: Sequence[MicroBatchShape],
    transfer_shapes: TransferShapes,
    recompute: RecomputeMode | Sequence[RecomputeMode] = RecomputeMode.NONE,
) -> InstructionStreams:
    """Generate deadlock-free per-device instruction streams (paper §6).

    Args:
        schedule: The pipeline schedule (per-device compute op order).
        op_times: Simulated (start, end) times of every compute op: a
            mapping keyed by op (e.g. ``simulate_schedule(...).op_times``)
            or a ``(starts, ends)`` pair of sequences in
            ``schedule.all_ops()`` order (a replica timeline's solved row,
            ``SimulationResult.op_columns``).
        shapes: Padded shape of each micro-batch (indexed by micro-batch id).
        transfer_shapes: Byte counts of all inter-stage transfers.
        recompute: Recomputation mode, either global or per micro-batch.

    Returns:
        One column stream per device, in execution order, over a shape
        table of the distinct micro-batch shapes.
    """
    num_stages = schedule.num_stages
    if len(shapes) != schedule.num_microbatches:
        raise ValueError(
            f"expected {schedule.num_microbatches} shapes, got {len(shapes)}"
        )
    modes = [RECOMPUTE_CODES[m] for m in _normalise_recompute(recompute, len(shapes))]
    if isinstance(op_times, Mapping):
        times = [op_times[op] for op in schedule.all_ops()]
        starts, ends = [t[0] for t in times], [t[1] for t in times]
    else:
        starts, ends = (
            values.tolist() if hasattr(values, "tolist") else list(values) for values in op_times
        )
    shape_table, shape_index = _shape_table(shapes)

    device_ops = [stage_schedule.ops for stage_schedule in schedule.stages]
    offsets = list(accumulate((len(ops) for ops in device_ops), initial=0))
    bounds = _start_bounds(
        [starts[offsets[d]:offsets[d + 1]] for d in range(num_stages)]
    )
    # Both sides of every transfer are posted at the producer's end time:
    # per device, (anchor, order time, producer stage, micro-batch, opcode,
    # peer, nbytes).  Sorting a device's entries orders its Start ops by
    # anchor, then by the producers' global (end, stage, micro-batch) order.
    planned: list[list[tuple]] = [[] for _ in range(num_stages)]
    forward = OpType.FORWARD
    for stage, ops in enumerate(device_ops):
        stage_ends = ends[offsets[stage]:offsets[stage + 1]]
        for position, (op, end) in enumerate(zip(ops, stage_ends)):
            mb = op.microbatch
            if op.op_type is forward:
                if stage < num_stages - 1:
                    nbytes = transfer_shapes.act_bytes(mb, stage)
                    anchor = _anchor_for_time(bounds[stage + 1], end)
                    planned[stage].append((position + 1, end, stage, mb, SEND_ACT, stage + 1, nbytes))
                    planned[stage + 1].append((anchor, end, stage, mb, RECV_ACT, stage, nbytes))
            elif stage > 0:
                nbytes = transfer_shapes.grad_bytes(mb, stage)
                anchor = _anchor_for_time(bounds[stage - 1], end)
                planned[stage].append((position + 1, end, stage, mb, SEND_GRAD, stage - 1, nbytes))
                planned[stage - 1].append((anchor, end, stage, mb, RECV_GRAD, stage, nbytes))

    devices = []
    for device, ops in enumerate(device_ops):
        rows: list[tuple] = []
        comms = sorted(planned[device])
        comms.append((len(ops) + 1,))  # sentinel: no Start op anchors past the end
        next_comm = 0
        act_peer = device - 1 if device > 0 else None
        grad_peer = device + 1 if device < num_stages - 1 else None
        for position in range(len(ops) + 1):
            while comms[next_comm][0] == position:
                _, _, _, mb, code, peer, nbytes = comms[next_comm]
                rows.append((code, mb, peer, NONE, NONE, nbytes))
                next_comm += 1
            if position == len(ops):
                break
            op = ops[position]
            mb = op.microbatch
            # Wait for the tensor this compute op consumes, if any.
            if op.op_type is forward:
                if act_peer is not None:
                    rows.append((WAIT_RECV_ACT, mb, act_peer, NONE, NONE, 0.0))
                rows.append((FORWARD, mb, NONE, shape_index[mb], modes[mb], 0.0))
            else:
                if grad_peer is not None:
                    rows.append((WAIT_RECV_GRAD, mb, grad_peer, NONE, NONE, 0.0))
                rows.append((BACKWARD, mb, NONE, shape_index[mb], modes[mb], 0.0))
        devices.append(DeviceStream(device, *columns_of(rows), shape_table))
    return InstructionStreams(devices, shape_table)


def build_naive_instruction_streams(
    schedule: PipelineSchedule,
    shapes: Sequence[MicroBatchShape],
    transfer_shapes: TransferShapes,
    recompute: RecomputeMode | Sequence[RecomputeMode] = RecomputeMode.NONE,
) -> InstructionStreams:
    """Generate instruction streams with the *naive* communication order.

    Sends are posted immediately after the compute op that produces the
    tensor; receives are posted immediately before the compute op that
    consumes it.  This matches what 1F1B systems do and works for 1F1B's
    regular pattern, but produces mismatched channel orders — and therefore
    deadlocks — under dynamic schedules (paper §2.3, Fig. 8).
    """
    num_stages = schedule.num_stages
    modes = [RECOMPUTE_CODES[m] for m in _normalise_recompute(recompute, schedule.num_microbatches)]
    table, shape_index = _shape_table(shapes)
    devices = []
    for device in range(num_stages):
        rows: list[tuple] = []
        for op in schedule.stage(device).ops:
            mb = op.microbatch
            forward = op.op_type is OpType.FORWARD
            compute = (FORWARD if forward else BACKWARD, mb, NONE, shape_index[mb], modes[mb], 0.0)
            if forward:
                if device > 0:
                    nbytes = transfer_shapes.act_bytes(mb, device - 1)
                    rows.append((RECV_ACT, mb, device - 1, NONE, NONE, nbytes))
                    rows.append((WAIT_RECV_ACT, mb, device - 1, NONE, NONE, 0.0))
                rows.append(compute)
                if device < num_stages - 1:
                    nbytes = transfer_shapes.act_bytes(mb, device)
                    rows.append((SEND_ACT, mb, device + 1, NONE, NONE, nbytes))
            else:
                if device < num_stages - 1:
                    nbytes = transfer_shapes.grad_bytes(mb, device + 1)
                    rows.append((RECV_GRAD, mb, device + 1, NONE, NONE, nbytes))
                    rows.append((WAIT_RECV_GRAD, mb, device + 1, NONE, NONE, 0.0))
                rows.append(compute)
                if device > 0:
                    nbytes = transfer_shapes.grad_bytes(mb, device)
                    rows.append((SEND_GRAD, mb, device - 1, NONE, NONE, nbytes))
        devices.append(DeviceStream(device, *columns_of(rows), table))
    return InstructionStreams(devices, table)
