"""Dynamic-programming micro-batch partitioning (paper §4, Eq. 1/2).

Given an *ordered* list of samples, the partitioner chooses split points so
that consecutive samples form micro-batches minimising the modelled
iteration time

    (c - 1) · max_i t(M_i)  +  w · Σ_i t(M_i)

where ``c`` is the number of pipeline stages, ``t(M)`` is the forward +
backward time of micro-batch ``M`` on the bottleneck stage (from the cost
model) and ``w`` is 1 for a single pipeline or ``1 / |D|`` when the
micro-batches will later be spread over ``|D|`` data-parallel replicas.

Following the paper, the outer minimisation over the maximum micro-batch
time ``t_max`` enumerates candidate values (sampled at fixed intervals to
bound the O(N⁴) exact formulation), and for each candidate an O(N·W) DP
finds the best partition whose micro-batches all respect ``t_max`` and the
per-micro-batch memory limit.

The DP reads a dense :class:`WindowCostTable` of window times and
feasibility flags, built by :class:`~repro.core.microbatch.DynamicMicroBatcher`
from one batched cost-model query over the unique window shapes.  All
candidates' DPs advance together, end by end, and each end touches only the
window sizes some candidate can pick:

* **Admissible prefixes up front.**  A window ending at ``end`` is
  admissible for ``t_max`` while every window of that end up to its size is
  feasible and no slower than ``t_max``.  One pass over the table ranks each
  window time among the (ascending) candidates, folds in feasibility and
  takes the running maximum along each end's sizes; counting ranks then
  gives every ``(end, candidate)`` admissible-prefix length.
* **Width-bounded steps.**  Each end adds its window times to the
  candidates' best costs of the matching starts for the widest candidate's
  prefix only, masks each candidate's sizes past its own prefix, and keeps
  the first minimum (the smallest window) — the same sums, comparisons and
  tie-break as a full-width pass.

The working set is O(C·N + N·W) for C candidates, N samples and window
width W.  ``tests/oracles/dp_solver.py`` keeps the scalar callback DP and the
full-width recurrence this replaced; both must give identical partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class PartitionError(ValueError):
    """Raised when no feasible partition exists (e.g. a single sample's
    micro-batch already violates the memory limit)."""


def singleton_infeasible_error(index: int) -> PartitionError:
    """The error for sample ``index`` not fitting a micro-batch on its own."""
    return PartitionError(
        f"sample {index} alone exceeds the per-micro-batch memory limit; "
        "increase the device memory limit or enable recomputation"
    )


@dataclass
class DPSolution:
    """Result of :func:`solve_partition`.

    Attributes:
        boundaries: Half-open index ranges ``(start, end)`` of the chosen
            micro-batches, in order.
        times: Modelled execution time of each chosen micro-batch.
        objective: Value of the optimised objective for the chosen partition.
        tmax_used: The ``t_max`` candidate that produced the best partition.
        candidates_evaluated: Number of ``t_max`` candidates tried.
        cost_evaluations: Number of unique window shapes costed by the
            batched cost-model query that filled the table (reported by the
            planning-time experiment, Fig. 17).
    """

    boundaries: list[tuple[int, int]]
    times: list[float]
    objective: float
    tmax_used: float
    candidates_evaluated: int = 0
    cost_evaluations: int = 0

    @property
    def num_microbatches(self) -> int:
        """Number of micro-batches in the partition."""
        return len(self.boundaries)

    @property
    def max_time(self) -> float:
        """Largest micro-batch time in the partition."""
        return max(self.times) if self.times else 0.0

    @property
    def total_time(self) -> float:
        """Sum of micro-batch times in the partition."""
        return sum(self.times)


@dataclass
class WindowCostTable:
    """Dense window time / feasibility tables for the DP.

    Row ``start``, column ``size - 1`` describes the window
    ``[start, start + size)``.  Entries beyond the sample count hold ``inf``
    time and ``False`` feasibility.

    Attributes:
        times: ``(num_samples, max_window)`` window execution times in ms.
        feasible: ``(num_samples, max_window)`` memory-feasibility flags.
        unique_shape_evaluations: Number of unique window shapes that were
            costed to fill the table (the solution's ``cost_evaluations``).
    """

    times: np.ndarray
    feasible: np.ndarray
    unique_shape_evaluations: int = 0

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.feasible = np.asarray(self.feasible, dtype=bool)
        if self.times.shape != self.feasible.shape or self.times.ndim != 2:
            raise ValueError(
                f"times {self.times.shape} and feasible {self.feasible.shape} must "
                "be equal 2-D shapes"
            )

    @property
    def num_samples(self) -> int:
        """Number of samples the table covers."""
        return self.times.shape[0]

    @property
    def max_window(self) -> int:
        """Largest window size the table covers."""
        return self.times.shape[1]

    def time(self, start: int, end: int) -> float:
        """Window time of ``[start, end)``."""
        return float(self.times[start, end - start - 1])

    def is_feasible(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` respects the memory limit."""
        return bool(self.feasible[start, end - start - 1])


def _tmax_candidates(times: np.ndarray, max_window: int, sample_count: int) -> list[float]:
    """Candidate values for the maximum micro-batch execution time.

    The exact formulation enumerates all O(N²) window times; the paper's
    speed-up samples the range at fixed intervals.  We probe window times at
    power-of-two window sizes up to ``max_window`` from every few start
    positions, then thin the sorted unique values down to ``sample_count``
    candidates.  The smallest candidate is always the largest singleton time
    (any smaller ``t_max`` admits no feasible partition).
    """
    num_samples = times.shape[0]
    singleton_max = times[:, 0].max()
    starts = np.arange(0, num_samples, max(1, num_samples // 64))[:, None]
    sizes = 1 << np.arange(max_window.bit_length())
    probed = times[starts, sizes - 1][starts + sizes <= num_samples]
    values = np.unique(np.append(probed[probed >= singleton_max], singleton_max)).tolist()
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


def _by_end(values: np.ndarray, fill) -> np.ndarray:
    """Re-index a ``(start, size)`` table as ``(size, end)``.

    ``out[size - 1, end - 1]`` is ``values[end - size, size - 1]``, or
    ``fill`` for a window that would start before sample 0.  The table is
    copied transposed behind ``width`` fill columns per row and read back
    with rows one element shorter, which shifts row ``size - 1`` left by
    ``size - 1``: one copy and no index arrays.
    """
    n, width = values.shape
    skewed = np.full((width, n + width), fill, dtype=values.dtype)
    skewed[:, width:] = values.T
    row = n + width - 1
    return skewed.ravel()[width : width + width * row].reshape(width, row)[:, :n]


def _admissible_prefixes(
    times: np.ndarray, feasible: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Admissible-prefix lengths of every ``(end, candidate)`` pair.

    Returns ``(prefix, times_by_end)``.  ``prefix[end - 1, c]`` is the number
    of leading sizes ``s`` for which every window ``[end - s', end)``,
    ``s' <= s``, is feasible and no slower than ``bounds[c]``: the prefix
    ``logical_and.accumulate((t <= t_max) & feasible)`` gives, also when
    window times are not monotone in size.  ``times_by_end[s - 1, end - 1]``
    is the time of ``[end - s, end)``, for sizes up to the widest prefix.
    ``bounds`` must be ascending.
    """
    num_samples = times.shape[0]
    num_candidates = len(bounds)
    # Sizes no candidate admits at any end need no further work.
    admitted = ((times <= bounds[-1]) & feasible).any(axis=0)
    width = len(admitted) - int(np.argmax(admitted[::-1]))
    times, feasible = times[:, :width], feasible[:, :width]
    # rank = number of candidates below the window time: candidate c admits
    # the window iff rank <= c.  Infeasible windows rank past every
    # candidate, and a running maximum over sizes turns "this window" into
    # "this window and every smaller one of the same end".
    rank = np.searchsorted(bounds, times)
    rank[~feasible] = num_candidates
    rank = np.maximum.accumulate(_by_end(rank, num_candidates), axis=0)
    # Count each end's sizes per rank, then accumulate over candidates.
    rank += np.arange(num_samples) * (num_candidates + 1)
    counts = np.bincount(rank.ravel(), minlength=num_samples * (num_candidates + 1))
    prefix = counts.reshape(num_samples, num_candidates + 1)[:, :num_candidates].cumsum(axis=1)
    return prefix, _by_end(times, np.inf)


def _partitions_for_tmax_batch(
    times: np.ndarray,
    feasible: np.ndarray,
    tmaxes: Sequence[float],
) -> list[tuple[list[tuple[int, int]], list[float]] | None]:
    """Eq. 2 DP for every ``t_max`` candidate, advanced together end by end.

    ``times``/``feasible`` are ``(start, size)`` window tables and ``tmaxes``
    the ascending candidates.  Each end evaluates only the sizes up to its
    widest admissible prefix: one add of the row's window times to the
    candidates' best costs of the matching starts, each candidate's sizes
    past its own prefix masked to ``inf``, then the first minimum (smallest
    window) per candidate.  Sums, comparisons and tie-breaks are those of a
    single candidate's DP, so each partition is bit-identical to running
    that candidate alone.

    Returns one ``(boundaries, times)`` pair — or ``None`` when no partition
    respects the candidate — per candidate, in input order.
    """
    num_samples = times.shape[0]
    bounds = np.asarray(tmaxes, dtype=float)
    if np.any(bounds[1:] < bounds[:-1]):
        raise ValueError("t_max candidates must be in ascending order")
    num_candidates = len(bounds)
    prefix, times_by_end = _admissible_prefixes(times, feasible, bounds)
    reach = prefix[:, -1].tolist()
    limits = list(prefix[:, :, None])
    sizes = np.arange(times_by_end.shape[0])
    candidates = np.arange(num_candidates)
    # Column num_samples - k holds each candidate's best cost of the first k
    # samples, so the starts of sizes 1..w ending at `end` are the w
    # columns from num_samples - end + 1 on, in size order.
    cost = np.full((num_candidates, num_samples + 1), np.inf)
    cost[:, num_samples] = 0.0
    # best_size[end, c]: size - 1 of the last window of candidate c's best
    # partition of the first `end` samples.
    best_size = np.zeros((num_samples + 1, num_candidates), dtype=np.intp)
    for end in range(1, num_samples + 1):
        width = reach[end - 1]
        if not width:
            continue
        first = num_samples - end + 1
        sums = cost[:, first : first + width] + times_by_end[:width, end - 1]
        np.copyto(sums, np.inf, where=sizes[:width] >= limits[end - 1])
        pick = sums.argmin(axis=1, out=best_size[end])
        cost[:, first - 1] = sums[candidates, pick]

    results: list[tuple[list[tuple[int, int]], list[float]] | None] = []
    for finite, chosen in zip(np.isfinite(cost[:, 0]), best_size.T.tolist()):
        if not finite:
            results.append(None)
            continue
        boundaries: list[tuple[int, int]] = []
        end = num_samples
        while end > 0:
            start = end - 1 - chosen[end]
            boundaries.append((start, end))
            end = start
        boundaries.reverse()
        window_times = [float(times[start, end - start - 1]) for start, end in boundaries]
        results.append((boundaries, window_times))
    return results


def solve_partition(
    num_samples: int,
    num_stages: int,
    cost_table: WindowCostTable,
    sum_weight: float = 1.0,
    max_microbatch_size: int = 512,
    tmax_sample_count: int = 24,
) -> DPSolution:
    """Find the micro-batch partition minimising the Eq. 1 objective.

    Args:
        num_samples: Number of (already ordered) samples.
        num_stages: Number of pipeline stages ``c``.
        cost_table: Dense window times and feasibility flags of the ordered
            samples.
        sum_weight: Weight of the Σ t(M) term (``1/|D|`` under data parallelism).
        max_microbatch_size: Upper bound on samples per micro-batch (bounds
            the DP inner loop; generous by default).
        tmax_sample_count: Number of ``t_max`` candidates to evaluate.

    Raises:
        PartitionError: If even single-sample micro-batches are infeasible.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    if sum_weight <= 0:
        raise ValueError(f"sum_weight must be > 0, got {sum_weight}")
    if max_microbatch_size < 1:
        raise ValueError(f"max_microbatch_size must be >= 1, got {max_microbatch_size}")
    if cost_table.num_samples != num_samples:
        raise ValueError(
            f"cost table covers {cost_table.num_samples} samples, expected {num_samples}"
        )
    window = min(max_microbatch_size, num_samples)
    if cost_table.max_window < window:
        raise ValueError(
            f"cost table max window {cost_table.max_window} is smaller than "
            f"max_microbatch_size {max_microbatch_size}"
        )

    singleton_feasible = cost_table.feasible[:, 0]
    if not singleton_feasible.all():
        raise singleton_infeasible_error(int(np.argmin(singleton_feasible)))

    times = cost_table.times[:, :window]
    candidates = _tmax_candidates(times, window, tmax_sample_count)
    results = _partitions_for_tmax_batch(times, cost_table.feasible[:, :window], candidates)

    # Candidates are scanned in ascending order, so ties keep the smallest
    # t_max, as a sequential loop over candidates would.
    best: DPSolution | None = None
    for tmax, result in zip(candidates, results):
        if result is None:
            continue
        boundaries, times_chosen = result
        objective = (num_stages - 1) * max(times_chosen) + sum_weight * sum(times_chosen)
        if best is None or objective < best.objective:
            best = DPSolution(
                boundaries=boundaries,
                times=times_chosen,
                objective=objective,
                tmax_used=tmax,
            )
    if best is None:
        raise PartitionError(
            "no feasible partition found for any t_max candidate; this indicates "
            "an inconsistency between the time and feasibility functions"
        )
    best.candidates_evaluated = len(candidates)
    best.cost_evaluations = cost_table.unique_shape_evaluations
    return best
