"""The DP partitioner's original implementations: ``repro.core.dp_solver`` before
its width-bounded recurrence.

Two references are kept:

* the **scalar callback path** — ``time_fn`` / ``feasible_fn`` callbacks
  behind a memoising :class:`_CostCache`, one Python-level DP per ``t_max``
  candidate (:func:`solve_partition_scalar`), and the
  ``DynamicMicroBatcher`` closures that drive it (:func:`scalar_split`);
* the **full-width vectorised recurrence** — every candidate advanced
  together over one ``(candidate, end)`` grid, each end evaluating all
  window sizes with a fresh inf matrix and a ``logical_and.accumulate``
  prefix (:func:`solve_partition_table`).

``repro.core.dp_solver.solve_partition`` must return the same
``boundaries``, ``times``, ``objective``, ``tmax_used`` and
``candidates_evaluated`` as both, on every table.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.batching.base import BatchingResult, MicroBatch
from repro.core.dp_solver import (
    DPSolution,
    PartitionError,
    WindowCostTable,
    singleton_infeasible_error,
)
from repro.core.ordering import order_samples
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape

#: Cost of the micro-batch formed from the half-open index range [start, end).
MicroBatchCostFn = Callable[[int, int], float]
#: Feasibility (memory limit) of the micro-batch formed from [start, end).
MicroBatchFeasibleFn = Callable[[int, int], bool]


class _CostCache:
    """Memoises the window cost/feasibility functions and counts calls."""

    def __init__(self, time_fn: MicroBatchCostFn, feasible_fn: MicroBatchFeasibleFn | None):
        self._time_fn = time_fn
        self._feasible_fn = feasible_fn
        self._time: dict[tuple[int, int], float] = {}
        self._feasible: dict[tuple[int, int], bool] = {}
        self.evaluations = 0

    def time(self, start: int, end: int) -> float:
        key = (start, end)
        if key not in self._time:
            self._time[key] = float(self._time_fn(start, end))
            self.evaluations += 1
        return self._time[key]

    def feasible(self, start: int, end: int) -> bool:
        if self._feasible_fn is None:
            return True
        key = (start, end)
        if key not in self._feasible:
            self._feasible[key] = bool(self._feasible_fn(start, end))
        return self._feasible[key]


def tmax_candidates(
    time: MicroBatchCostFn,
    num_samples: int,
    max_microbatch_size: int,
    sample_count: int,
) -> list[float]:
    """Candidate values for the maximum micro-batch execution time.

    The exact formulation enumerates all O(N²) window times; the paper's
    speed-up samples the range at fixed intervals.  We probe window times at
    geometrically growing window sizes from every few start positions, then
    thin the sorted unique values down to ``sample_count`` candidates.  The
    smallest candidate is always the largest singleton time (any smaller
    ``t_max`` admits no feasible partition).
    """
    singleton_max = max(time(i, i + 1) for i in range(num_samples))
    probed: set[float] = set()
    stride = max(1, num_samples // 64)
    for start in range(0, num_samples, stride):
        size = 1
        while size <= max_microbatch_size and start + size <= num_samples:
            window_time = time(start, start + size)
            if window_time >= singleton_max:
                probed.add(window_time)
            size *= 2
    probed.add(singleton_max)
    values = sorted(probed)
    if len(values) <= sample_count:
        return values
    if sample_count <= 1:
        # The smallest probed value (the largest singleton time) is the one
        # candidate guaranteed to admit a partition.
        return [values[0]]
    # Thin to roughly evenly spaced candidates over the sorted list, always
    # keeping the smallest and largest.
    step = (len(values) - 1) / (sample_count - 1)
    picked = [values[int(round(i * step))] for i in range(sample_count)]
    return sorted(set(picked))


def partition_for_tmax(
    cache: _CostCache,
    num_samples: int,
    tmax: float,
    max_microbatch_size: int,
) -> tuple[list[tuple[int, int]], list[float]] | None:
    """Optimal partition with every micro-batch time <= ``tmax`` (Eq. 2).

    Returns ``None`` when no feasible partition exists for this ``tmax``.
    """
    best_cost = [float("inf")] * (num_samples + 1)
    best_prev = [-1] * (num_samples + 1)
    best_cost[0] = 0.0
    for end in range(1, num_samples + 1):
        window_limit = min(max_microbatch_size, end)
        for size in range(1, window_limit + 1):
            start = end - size
            window_time = cache.time(start, end)
            if window_time > tmax:
                # Window times grow with window size, so larger windows
                # cannot satisfy the bound either.
                break
            if not cache.feasible(start, end):
                break
            if best_cost[start] == float("inf"):
                continue
            candidate = best_cost[start] + window_time
            if candidate < best_cost[end]:
                best_cost[end] = candidate
                best_prev[end] = start
    if best_cost[num_samples] == float("inf"):
        return None
    boundaries: list[tuple[int, int]] = []
    end = num_samples
    while end > 0:
        start = best_prev[end]
        boundaries.append((start, end))
        end = start
    boundaries.reverse()
    times = [cache.time(start, end) for start, end in boundaries]
    return boundaries, times


def partitions_for_tmax_batch(
    end_times: np.ndarray,
    end_feasible: np.ndarray,
    num_samples: int,
    tmaxes: Sequence[float],
) -> list[tuple[list[tuple[int, int]], list[float]] | None]:
    """Eq. 2 DP for *all* ``t_max`` candidates in one (candidate, end) pass.

    The per-candidate DP passes are independent (ROADMAP: "Parallel t_max
    candidates"), so instead of looping candidates in Python the recurrence
    advances a ``(num_candidates, num_samples + 1)`` cost matrix end by end:
    each step evaluates every candidate's admissible window sizes with one
    batch of numpy operations.  Arithmetic, admissible-prefix computation and
    argmin tie-breaking (first minimum → smallest window) are exactly those
    of the single-candidate recurrence, so each candidate's partition is
    bit-identical to running it alone.

    Returns one ``(boundaries, times)`` pair — or ``None`` when infeasible —
    per candidate, in input order.
    """
    num_candidates = len(tmaxes)
    max_window = end_times.shape[1]
    bounds = np.asarray(list(tmaxes), dtype=float)[:, None]
    best_cost = np.full((num_candidates, num_samples + 1), np.inf)
    best_prev = np.full((num_candidates, num_samples + 1), -1, dtype=np.int64)
    best_cost[:, 0] = 0.0
    rows = np.arange(num_candidates)
    for end in range(1, num_samples + 1):
        row_times = end_times[end - 1]
        # Admissible sizes form a contiguous prefix (window times grow with
        # window size); logical-and accumulation stops at the first violation.
        admissible = (row_times[None, :] <= bounds) & end_feasible[end - 1][None, :]
        prefix_mask = np.logical_and.accumulate(admissible, axis=1)
        # Window size s ends at `end` and starts at `end - s`; sizes
        # 1..min(max_window, end) map onto best_cost[:, end - 1 .. end - s],
        # i.e. a reversed slice (padded with inf for sizes larger than end).
        width = min(max_window, end)
        prev_cost = np.full((num_candidates, max_window), np.inf)
        prev_cost[:, :width] = best_cost[:, end - width : end][:, ::-1]
        candidates = np.where(prefix_mask, prev_cost + row_times[None, :], np.inf)
        pick = np.argmin(candidates, axis=1)
        values = candidates[rows, pick]
        update = np.isfinite(values)
        best_cost[update, end] = values[update]
        best_prev[update, end] = end - (pick[update] + 1)

    results: list[tuple[list[tuple[int, int]], list[float]] | None] = []
    for c in range(num_candidates):
        if not np.isfinite(best_cost[c, num_samples]):
            results.append(None)
            continue
        boundaries: list[tuple[int, int]] = []
        end = num_samples
        while end > 0:
            start = int(best_prev[c, end])
            boundaries.append((start, end))
            end = start
        boundaries.reverse()
        times = [float(end_times[end - 1, end - start - 1]) for start, end in boundaries]
        results.append((boundaries, times))
    return results


def end_major_tables(table: WindowCostTable) -> tuple[np.ndarray, np.ndarray]:
    """Re-index the (start, size) tables by (end, size) for the DP inner loop."""
    n, max_window = table.num_samples, table.max_window
    ends = np.arange(1, n + 1)[:, None]
    sizes = np.arange(1, max_window + 1)[None, :]
    starts = ends - sizes
    valid = starts >= 0
    clipped = np.where(valid, starts, 0)
    end_times = np.where(valid, table.times[clipped, sizes - 1], np.inf)
    end_feasible = valid & table.feasible[clipped, sizes - 1]
    return end_times, end_feasible


def solve_partition_scalar(
    num_samples: int,
    num_stages: int,
    time_fn: MicroBatchCostFn,
    feasible_fn: MicroBatchFeasibleFn | None = None,
    sum_weight: float = 1.0,
    max_microbatch_size: int = 512,
    tmax_sample_count: int = 24,
) -> DPSolution:
    """The scalar callback path of the old ``solve_partition``."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    if sum_weight <= 0:
        raise ValueError(f"sum_weight must be > 0, got {sum_weight}")
    if max_microbatch_size < 1:
        raise ValueError(f"max_microbatch_size must be >= 1, got {max_microbatch_size}")

    cache = _CostCache(time_fn, feasible_fn)
    for i in range(num_samples):
        if not cache.feasible(i, i + 1):
            raise singleton_infeasible_error(i)

    candidates = tmax_candidates(
        cache.time, num_samples, max_microbatch_size, tmax_sample_count
    )

    best: DPSolution | None = None
    for tmax in candidates:
        result = partition_for_tmax(cache, num_samples, tmax, max_microbatch_size)
        if result is None:
            continue
        boundaries, times = result
        objective = (num_stages - 1) * max(times) + sum_weight * sum(times)
        if best is None or objective < best.objective:
            best = DPSolution(
                boundaries=boundaries,
                times=times,
                objective=objective,
                tmax_used=tmax,
            )
    if best is None:
        raise PartitionError(
            "no feasible partition found for any t_max candidate; this indicates "
            "an inconsistency between the time and feasibility functions"
        )
    best.candidates_evaluated = len(candidates)
    best.cost_evaluations = cache.evaluations
    return best


def solve_partition_table(
    num_samples: int,
    num_stages: int,
    table: WindowCostTable,
    sum_weight: float = 1.0,
    max_microbatch_size: int = 512,
    tmax_sample_count: int = 24,
) -> DPSolution:
    """The full-width vectorised table path of the old ``solve_partition``."""
    if table.num_samples != num_samples:
        raise ValueError(
            f"cost table covers {table.num_samples} samples, expected {num_samples}"
        )
    if table.max_window < min(max_microbatch_size, num_samples):
        raise ValueError(
            f"cost table max window {table.max_window} is smaller than "
            f"max_microbatch_size {max_microbatch_size}"
        )

    singleton_feasible = table.feasible[:, 0]
    if not singleton_feasible.all():
        raise singleton_infeasible_error(int(np.argmin(singleton_feasible)))

    candidates = tmax_candidates(
        table.time, num_samples, max_microbatch_size, tmax_sample_count
    )

    window = min(max_microbatch_size, num_samples, table.max_window)
    trimmed = WindowCostTable(
        times=table.times[:, :window],
        feasible=table.feasible[:, :window],
        unique_shape_evaluations=table.unique_shape_evaluations,
    )
    end_times, end_feasible = end_major_tables(trimmed)

    # All candidate DP passes advance together in one (candidate, end) grid;
    # the selection below scans candidates in their original (sorted) order,
    # so the winner matches the sequential loop exactly.
    results = partitions_for_tmax_batch(end_times, end_feasible, num_samples, candidates)

    best: DPSolution | None = None
    for tmax, result in zip(candidates, results):
        if result is None:
            continue
        boundaries, times = result
        objective = (num_stages - 1) * max(times) + sum_weight * sum(times)
        if best is None or objective < best.objective:
            best = DPSolution(
                boundaries=boundaries,
                times=times,
                objective=objective,
                tmax_used=tmax,
            )
    if best is None:
        raise PartitionError(
            "no feasible partition found for any t_max candidate; this indicates "
            "an inconsistency between the time and feasibility functions"
        )
    best.candidates_evaluated = len(candidates)
    best.cost_evaluations = table.unique_shape_evaluations
    return best


def window_shape(
    ordered: Sequence[Sample], start: int, end: int, decoder_only: bool
) -> MicroBatchShape:
    """Padded shape of the micro-batch formed from ``ordered[start:end]``."""
    window = ordered[start:end]
    if decoder_only:
        enc = max(s.total_tokens for s in window)
        dec = 0
    else:
        enc = max(s.input_tokens for s in window)
        dec = max(s.target_tokens for s in window)
    return MicroBatchShape(batch_size=end - start, enc_seq_len=enc, dec_seq_len=dec)


def scalar_split(
    batcher, samples: Sequence[Sample], recompute: RecomputeMode | None = None
) -> tuple[BatchingResult, DPSolution | None]:
    """``DynamicMicroBatcher.split_with_solution`` on the scalar callback path.

    Each window's shape is built from the ordered samples and costed with one
    ``microbatch_time_ms`` / ``microbatch_activation_bytes`` call.
    """
    if not samples:
        return BatchingResult(micro_batches=[]), None
    mode = batcher.recompute if recompute is None else recompute
    ordered = order_samples(samples, batcher.ordering, decoder_only=batcher.decoder_only)
    shape_cache: dict[tuple[int, int], MicroBatchShape] = {}

    def shape(start: int, end: int) -> MicroBatchShape:
        key = (start, end)
        if key not in shape_cache:
            shape_cache[key] = window_shape(ordered, start, end, batcher.decoder_only)
        return shape_cache[key]

    solution = solve_partition_scalar(
        num_samples=len(ordered),
        num_stages=batcher.cost_model.num_stages,
        time_fn=lambda start, end: batcher.cost_model.microbatch_time_ms(
            shape(start, end), mode
        ),
        feasible_fn=lambda start, end: batcher.cost_model.microbatch_activation_bytes(
            shape(start, end), mode
        )
        <= batcher.per_microbatch_memory_bytes,
        sum_weight=batcher.sum_weight,
        max_microbatch_size=batcher.max_microbatch_size,
        tmax_sample_count=batcher.tmax_sample_count,
    )
    micro_batches = [
        MicroBatch.from_samples(ordered[start:end], decoder_only=batcher.decoder_only)
        for start, end in solution.boundaries
    ]
    return BatchingResult(micro_batches=micro_batches), solution
