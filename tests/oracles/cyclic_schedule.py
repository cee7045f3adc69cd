"""Algorithm 1's original cycle loop, the reference for the leaner one.

``repro.schedule.cyclic.cyclic_stage_sequences`` peeks at a blocked forward
instead of popping and re-queueing it, collects each cycle's unlocked ops in
one flat list and stops when every op is scheduled.  This is the loop it
replaced, with per-cycle unlock lists per stage and a drained-buffers stop;
the two must emit the same sequences and deadlock on the same inputs.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.schedule.cyclic import ScheduleDeadlockError


def cyclic_stage_sequences_reference(
    num_stages: int,
    activation_bytes: Sequence[Sequence[float]],
    memory_limits: Sequence[float] | None = None,
    injection_order: Sequence[int] | None = None,
) -> list[list[int]]:
    """Algorithm 1 as first written (see the module docstring)."""
    num_microbatches = len(activation_bytes)
    if injection_order is None:
        injection_order = range(num_microbatches)

    # Per-device ready buffers of forward and backward ops (micro-batch ids).
    forward_ready: list[deque[int]] = [deque() for _ in range(num_stages)]
    backward_ready: list[deque[int]] = [deque() for _ in range(num_stages)]
    forward_ready[0].extend(injection_order)
    current_memory = [0.0] * num_stages

    sequences: list[list[int]] = [[] for _ in range(num_stages)]
    remaining_ops = 2 * num_microbatches * num_stages

    while any(forward_ready[j] or backward_ready[j] for j in range(num_stages)):
        newly_forward: list[list[int]] = [[] for _ in range(num_stages)]
        newly_backward: list[list[int]] = [[] for _ in range(num_stages)]
        progressed = False

        for j in range(num_stages):
            # Schedule one backward op if available (frees memory first).
            if backward_ready[j]:
                mb = backward_ready[j].popleft()
                current_memory[j] -= activation_bytes[mb][j]
                sequences[j].append(mb << 1)
                remaining_ops -= 1
                progressed = True
                if j > 0:
                    newly_backward[j - 1].append(mb)

            # Schedule one forward op if available and memory permits.
            if forward_ready[j]:
                mb = forward_ready[j].popleft()
                needed = activation_bytes[mb][j]
                limit = memory_limits[j] if memory_limits is not None else float("inf")
                if current_memory[j] + needed <= limit:
                    current_memory[j] += needed
                    sequences[j].append((mb << 1) | 1)
                    remaining_ops -= 1
                    progressed = True
                    if j < num_stages - 1:
                        newly_forward[j + 1].append(mb)
                    else:
                        newly_backward[j].append(mb)
                else:
                    # Put it back at the head of the buffer and retry later.
                    forward_ready[j].appendleft(mb)

        unlocked = any(newly_forward[j] or newly_backward[j] for j in range(num_stages))
        if not progressed and not unlocked:
            raise ScheduleDeadlockError(
                "cyclic scheduling cannot make progress: a micro-batch's activation "
                "memory exceeds a stage's memory limit"
            )

        for j in range(num_stages):
            forward_ready[j].extend(newly_forward[j])
            backward_ready[j].extend(newly_backward[j])

    assert remaining_ops == 0, "cyclic scheduling terminated with unscheduled ops"
    return sequences

