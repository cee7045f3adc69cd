"""The 1F1B pipeline schedule (PipeDream-flush / Megatron-LM default).

Stage ``j`` of ``c`` stages (0-based) performs ``c - 1 - j`` warm-up forward
passes, then alternates one forward and one backward pass until all forwards
are issued, and finally drains the remaining backward passes.  The schedule
keeps at most ``c - j`` micro-batch activations alive on stage ``j``, which
is its main attraction; its weakness under dynamic micro-batching is the
zero safety stock in the steady state (paper §5, Fig. 11a).
"""

from __future__ import annotations

from repro.schedule.events import PipelineSchedule, StageSchedule


def one_f_one_b_stage_sequences(num_stages: int, num_microbatches: int) -> list[list[int]]:
    """The 1F1B per-stage op order in encoded form, ``(microbatch << 1) | is_forward``.

    The same encoding :func:`repro.schedule.cyclic.cyclic_stage_sequences`
    produces; :func:`one_f_one_b_schedule` wraps it into a schedule.
    """
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    if num_microbatches < 1:
        raise ValueError(f"num_microbatches must be >= 1, got {num_microbatches}")

    sequences = []
    for stage in range(num_stages):
        sequence: list[int] = []
        num_warmup = min(num_stages - 1 - stage, num_microbatches)
        # Warm-up: forwards only.
        next_forward = num_warmup
        sequence.extend((mb << 1) | 1 for mb in range(num_warmup))
        next_backward = 0
        # Steady state: alternate 1 forward, 1 backward.
        while next_forward < num_microbatches:
            sequence.append((next_forward << 1) | 1)
            next_forward += 1
            sequence.append(next_backward << 1)
            next_backward += 1
        # Cool-down: drain the remaining backwards.
        sequence.extend(mb << 1 for mb in range(next_backward, num_microbatches))
        sequences.append(sequence)
    return sequences


def one_f_one_b_schedule(num_stages: int, num_microbatches: int) -> PipelineSchedule:
    """Construct the 1F1B schedule for the given pipeline dimensions.

    Args:
        num_stages: Number of pipeline stages (devices).
        num_microbatches: Number of micro-batches in the iteration.

    Returns:
        A :class:`~repro.schedule.events.PipelineSchedule` where every stage
        executes every micro-batch's forward and backward exactly once.
    """
    sequences = one_f_one_b_stage_sequences(num_stages, num_microbatches)
    stages = [StageSchedule.from_encoded(j, sequence) for j, sequence in enumerate(sequences)]
    return PipelineSchedule(stages=stages, num_microbatches=num_microbatches, name="1f1b")
