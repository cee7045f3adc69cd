"""Cyclic (adaptive) scheduling — Algorithm 1 of the paper.

Under cyclic scheduling each device tries to execute exactly one backward
and one forward pass per cycle, drawing from per-device buffers of *ready*
ops.  Unlike 1F1B, which hard-codes the execution order, the cyclic
formulation exposes two control knobs:

* the **injection order** of micro-batches into the first stage's forward
  buffer, and
* a per-device **memory limit** that makes a device skip forward passes
  (delaying the injection/progress of micro-batches) until backward passes
  have freed enough activation memory — this is the "memory-aware" part of
  DynaPipe's adaptive schedule.

This module implements the core algorithm; the planner-facing wrapper that
derives activation sizes and memory limits from the cost model lives in
:mod:`repro.core.adaptive_schedule`.

The slot-level core, :func:`cyclic_stage_sequences`, produces the per-stage
op *order* as plain encoded integers without building
:class:`~repro.schedule.events.ComputeOp` objects.  :func:`cyclic_schedule`
wraps it into a full :class:`~repro.schedule.events.PipelineSchedule`; the
planner's replica timeline (:mod:`repro.simulator.incremental`) consumes the
encoded form directly, so both paths share one implementation by
construction.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Sequence

from repro.schedule.events import PipelineSchedule, StageSchedule


class ScheduleDeadlockError(RuntimeError):
    """Raised when no device can make progress (e.g. a single micro-batch's
    activation exceeds a device's memory limit)."""


def check_injection_order(order: Sequence[int], num_microbatches: int) -> list[int]:
    """Validate ``order`` as a permutation of ``0..num_microbatches-1``.

    Returns:
        The order as a list of Python ints.

    Raises:
        ValueError: If ``order`` repeats, drops or invents a micro-batch index
            (or holds non-integers).
    """
    try:
        normalized = [operator.index(index) for index in order]
    except TypeError:
        normalized = None
    if normalized is None or sorted(normalized) != list(range(num_microbatches)):
        raise ValueError("injection_order must be a permutation of the micro-batch indices")
    return normalized


def cyclic_stage_sequences(
    num_stages: int,
    activation_bytes: Sequence[Sequence[float]],
    memory_limits: Sequence[float] | None = None,
    injection_order: Sequence[int] | None = None,
) -> list[list[int]]:
    """Run Algorithm 1 and return the per-stage op order in encoded form.

    This is the unchecked core: callers validate ``injection_order`` (see
    :func:`check_injection_order`).  Rows are read as ``activation_bytes[mb][j]``,
    so plain lists of floats are the fastest input.

    Args:
        num_stages: Number of pipeline stages ``C``.
        activation_bytes: ``activation_bytes[i][j]`` is the activation memory
            micro-batch ``i`` pins on stage ``j`` between its forward and
            backward pass.  The outer length defines the number of
            micro-batches ``M``.
        memory_limits: Per-stage activation memory limits ``l_j``.  ``None``
            disables the memory check.
        injection_order: Order in which micro-batches enter the first stage's
            forward buffer.  Defaults to ``0..M-1``.

    Returns:
        One list per stage of encoded ops ``(microbatch << 1) | is_forward``,
        in execution order.

    Raises:
        ScheduleDeadlockError: If a micro-batch can never be scheduled
            because its activation alone exceeds a stage's memory limit.
    """
    num_microbatches = len(activation_bytes)
    if injection_order is None:
        injection_order = range(num_microbatches)
    limits = list(memory_limits) if memory_limits is not None else [float("inf")] * num_stages
    last = num_stages - 1

    # Per-device ready buffers of forward and backward ops (micro-batch ids).
    forward_ready: list[deque[int]] = [deque() for _ in range(num_stages)]
    backward_ready: list[deque[int]] = [deque() for _ in range(num_stages)]
    forward_ready[0].extend(injection_order)
    current_memory = [0.0] * num_stages

    sequences: list[list[int]] = [[] for _ in range(num_stages)]
    # Every unfinished micro-batch waits in exactly one ready buffer, so the
    # buffers drain exactly when every op has been scheduled.
    remaining_ops = 2 * num_microbatches * num_stages

    while remaining_ops:
        # Ops unlocked this cycle become ready only in the next one.  Each
        # buffer receives at most one op per cycle (from its single upstream
        # or downstream neighbour), so one flat list keeps every buffer's order.
        unlocked: list[tuple[deque[int], int]] = []
        progressed = False

        for j in range(num_stages):
            # Schedule one backward op if available (frees memory first).
            backward = backward_ready[j]
            if backward:
                mb = backward.popleft()
                current_memory[j] -= activation_bytes[mb][j]
                sequences[j].append(mb << 1)
                remaining_ops -= 1
                progressed = True
                if j > 0:
                    unlocked.append((backward_ready[j - 1], mb))

            # Schedule one forward op if available and memory permits;
            # otherwise it stays at the head of the buffer for a later cycle.
            forward = forward_ready[j]
            if forward:
                mb = forward[0]
                needed = activation_bytes[mb][j]
                if current_memory[j] + needed <= limits[j]:
                    forward.popleft()
                    current_memory[j] += needed
                    sequences[j].append((mb << 1) | 1)
                    remaining_ops -= 1
                    progressed = True
                    unlocked.append(
                        (forward_ready[j + 1] if j < last else backward_ready[j], mb)
                    )

        if not progressed:
            raise ScheduleDeadlockError(
                "cyclic scheduling cannot make progress: a micro-batch's activation "
                "memory exceeds a stage's memory limit"
            )
        for buffer, mb in unlocked:
            buffer.append(mb)

    return sequences


def cyclic_schedule(
    num_stages: int,
    activation_bytes: Sequence[Sequence[float]],
    memory_limits: Sequence[float] | None = None,
    injection_order: Sequence[int] | None = None,
    name: str = "adaptive",
) -> PipelineSchedule:
    """Run Algorithm 1 and return the resulting per-stage op order.

    Args:
        num_stages: Number of pipeline stages ``C``.
        activation_bytes: ``activation_bytes[i][j]`` is the activation memory
            micro-batch ``i`` pins on stage ``j`` between its forward and
            backward pass.  The outer length defines the number of
            micro-batches ``M``.
        memory_limits: Per-stage activation memory limits ``l_j``.  ``None``
            disables the memory check (plain cyclic scheduling, equivalent to
            injecting micro-batches as fast as dependencies allow).
        injection_order: Order in which micro-batches enter the first stage's
            forward buffer.  Defaults to ``0..M-1``.
        name: Name recorded on the returned schedule.

    Returns:
        A :class:`~repro.schedule.events.PipelineSchedule`.

    Raises:
        ScheduleDeadlockError: If a micro-batch can never be scheduled
            because its activation alone exceeds a stage's memory limit.
    """
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    num_microbatches = len(activation_bytes)
    if num_microbatches < 1:
        raise ValueError("at least one micro-batch is required")
    for i, row in enumerate(activation_bytes):
        if len(row) != num_stages:
            raise ValueError(
                f"activation_bytes[{i}] has {len(row)} entries, expected {num_stages}"
            )
    if injection_order is not None:
        injection_order = check_injection_order(injection_order, num_microbatches)
    if memory_limits is not None and len(memory_limits) != num_stages:
        raise ValueError(
            f"memory_limits has {len(memory_limits)} entries, expected {num_stages}"
        )

    sequences = cyclic_stage_sequences(
        num_stages, activation_bytes, memory_limits, injection_order
    )
    stages = [StageSchedule.from_encoded(j, sequence) for j, sequence in enumerate(sequences)]
    return PipelineSchedule(
        stages=stages, num_microbatches=num_microbatches, name=name
    )
