"""DynaPipe's dynamic micro-batch construction (paper §4).

:class:`DynamicMicroBatcher` is the planner-facing front end of the
dynamic-programming partitioner: it orders the mini-batch's samples,
queries the cost model for window times and activation footprints, enforces
the per-micro-batch memory limit, and returns the resulting micro-batches
in partition order together with the DP solution metadata (used by the
planning-time experiment and by tests).

The window costs come from the padded shape of every candidate
``[start, start + size)`` window, taken from sliding maxima over the ordered
sample lengths (a handful of numpy ops per mini-batch, for any ordering):

* **Packed dedup.**  Each window's ``(size, enc, dec)`` shape is packed into
  one int64 key ``(size * R_e + enc) * R_d + dec`` with radices one above
  the largest length in the mini-batch, and the keys are deduplicated with
  a 1-D ``np.unique``.  For non-negative components the key order is the
  lexicographic row order, so the unique shapes and the window → shape
  index equal those of a row-wise ``np.unique(axis=0)`` over the triples.
  A mini-batch whose radix product would overflow int64 raises
  ``ValueError``.
* **Singleton gate.**  The size-1 shapes sort first among the unique
  shapes.  They are costed on their own first; if any sample does not fit
  a micro-batch alone, the mode is rejected with the
  :class:`~repro.core.dp_solver.PartitionError` the solver would raise,
  before the rest of the table is costed.  Otherwise the remaining shapes
  are costed and the two results joined — the interpolation is
  elementwise, so the values equal those of one query over all shapes.

The costs of the unique shapes are gathered into a dense
:class:`~repro.core.dp_solver.WindowCostTable` for the DP.  The window
*geometry* (shapes and their dedup indices) does not depend on the
recomputation mode, so it is cached and reused across the planner's
recomputation-mode retries; only the cost query is re-issued per mode.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.batching.base import BatchingResult, BatchingStrategy, MicroBatch
from repro.core.dp_solver import (
    DPSolution,
    WindowCostTable,
    singleton_infeasible_error,
    solve_partition,
)
from repro.core.ordering import OrderingMethod, order_samples
from repro.costmodel.cost_model import CostModel
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode


def sliding_window_maxima(values: np.ndarray, max_window: int) -> np.ndarray:
    """Maxima of every ``[start, start + size)`` window of ``values``.

    Returns an ``(n, max_window)`` array whose ``[start, size - 1]`` entry is
    ``max(values[start:start + size])``; entries for windows running past the
    end of ``values`` are unspecified.  The result is the transposed view of
    a size-major ``(size - 1, start)`` buffer, filled one band of sizes per
    numpy op: a window longer than ``span`` is the maximum of its first
    ``span`` values and of the rest, both windows of earlier bands, so
    ``span`` doubles from band to band — O(log max_window) ops for any
    ordering of ``values``.
    """
    values = np.asarray(values)
    n = len(values)
    window = min(max_window, n) if n else 0
    out = np.empty((window, n), dtype=values.dtype)
    if window == 0:
        return out.T
    out[0] = values
    span = 1
    while span < window:
        top = min(2 * span, window)
        np.maximum(
            out[span - 1, None, : n - span],
            out[: top - span, span:],
            out=out[span:top, : n - span],
        )
        span = top
    return out.T


class _WindowGeometry:
    """Unique window shapes of one ordered mini-batch (mode-independent).

    ``unique`` is a ``(3, num_shapes)`` array: its rows are the batch size,
    encoder and decoder length of each distinct window shape, whose columns
    are in lexicographic order.  ``rows[start, size - 1]`` is the column of
    window ``[start, start + size)``, or ``num_shapes`` for a window running
    past the end of the mini-batch.  The first ``num_singletons`` columns are
    the size-1 shapes; ``rows[:, 0]`` maps each sample to the column of its
    singleton window.
    """

    def __init__(self, unique: np.ndarray, rows: np.ndarray, num_singletons: int) -> None:
        self.unique = unique
        self.rows = rows
        self.num_singletons = num_singletons


class DynamicMicroBatcher(BatchingStrategy):
    """Dynamic-programming micro-batch construction.

    Args:
        cost_model: Cost model of one model replica's pipeline.
        ordering: Sample ordering method applied before partitioning.
        recompute: Recomputation mode assumed when estimating time/memory.
        per_microbatch_memory_bytes: Activation-memory limit for a single
            micro-batch on its bottleneck stage.  Defaults to the tightest
            stage activation budget divided by the number of stages, the
            1F1B-style limit described in §4 ("Limit memory consumption").
        sum_weight: Weight of the Σ t(M) objective term (``1/|D|`` when the
            micro-batches will be spread over ``|D|`` data-parallel replicas).
        tmax_sample_count: Number of ``t_max`` candidates for the DP.
        max_microbatch_size: Upper bound on samples per micro-batch.
    """

    name = "dynapipe-dp"

    def __init__(
        self,
        cost_model: CostModel,
        ordering: OrderingMethod | str = OrderingMethod.SORT,
        recompute: RecomputeMode = RecomputeMode.NONE,
        per_microbatch_memory_bytes: float | None = None,
        sum_weight: float = 1.0,
        tmax_sample_count: int = 24,
        max_microbatch_size: int = 256,
    ) -> None:
        if max_microbatch_size < 1:
            raise ValueError(f"max_microbatch_size must be >= 1, got {max_microbatch_size}")
        super().__init__(decoder_only=not cost_model.config.is_encoder_decoder)
        self.cost_model = cost_model
        self.ordering = OrderingMethod(ordering)
        self.recompute = recompute
        if per_microbatch_memory_bytes is None:
            per_microbatch_memory_bytes = (
                cost_model.min_activation_budget_bytes() / cost_model.num_stages
            )
        self.per_microbatch_memory_bytes = per_microbatch_memory_bytes
        self.sum_weight = sum_weight
        self.tmax_sample_count = tmax_sample_count
        self.max_microbatch_size = max_microbatch_size
        #: DP solution of the most recent :meth:`split` call (for inspection).
        self.last_solution: DPSolution | None = None
        # One-slot (key, geometry) cache of the latest mini-batch's window
        # geometry, reused across recomputation-mode retries (the geometry is
        # mode-free).  Stored as a single tuple so concurrent planners reading
        # and replacing the slot never observe a key paired with another
        # mini-batch's geometry.
        self._geometry_entry: tuple[tuple, _WindowGeometry] | None = None

    # ------------------------------------------------------------------ window costs

    def _window_geometry(self, ordered: Sequence[Sample]) -> _WindowGeometry:
        """Unique shapes of all candidate windows of the ordered mini-batch."""
        if self.decoder_only:
            enc = np.array([s.total_tokens for s in ordered], dtype=np.int64)
            dec = np.zeros(len(ordered), dtype=np.int64)
        else:
            enc = np.array([s.input_tokens for s in ordered], dtype=np.int64)
            dec = np.array([s.target_tokens for s in ordered], dtype=np.int64)
        key = (len(ordered), self.max_microbatch_size, enc.tobytes(), dec.tobytes())
        entry = self._geometry_entry
        if entry is not None and entry[0] == key:
            return entry[1]

        n = len(ordered)
        window = min(self.max_microbatch_size, n)
        enc_radix = int(enc.max()) + 1
        dec_radix = int(dec.max()) + 1
        if (window + 1) * enc_radix * dec_radix > 1 << 63:
            raise ValueError(
                f"window shapes (size <= {window}, enc < {enc_radix}, dec < {dec_radix}) "
                "do not pack into an int64 key"
            )
        # Size-major (size - 1, start) grids: one packed key per window.
        keys = np.arange(1, window + 1)[:, None] * enc_radix
        keys = keys + sliding_window_maxima(enc, window).T
        keys *= dec_radix
        keys += sliding_window_maxima(dec, window).T
        valid = np.arange(n) < (n - np.arange(window))[:, None]
        # Listed size-major, the keys of sorted samples are nearly sorted;
        # ``return_index`` makes ``np.unique`` use a stable, run-aware
        # argsort, which is near-linear on them.
        unique_keys, _first, inverse = np.unique(
            keys[valid], return_index=True, return_inverse=True
        )
        unique = np.empty((3, len(unique_keys)), dtype=np.int64)
        rest = np.empty_like(unique_keys)
        np.divmod(unique_keys, dec_radix, out=(rest, unique[2]))
        np.divmod(rest, enc_radix, out=(unique[0], unique[1]))
        rows = np.full((n, window), len(unique_keys), dtype=np.intp)
        rows.T[valid] = inverse
        geometry = _WindowGeometry(
            unique=unique,
            rows=rows,
            num_singletons=int(np.searchsorted(unique[0], 2)),
        )
        self._geometry_entry = (key, geometry)
        return geometry

    def build_window_cost_table(
        self, ordered: Sequence[Sample], recompute: RecomputeMode | None = None
    ) -> WindowCostTable:
        """Dense window time/feasibility tables for the DP.

        The size-1 shapes are costed first; the rest of the unique shapes
        are costed in one more batched query only when every sample fits a
        micro-batch alone.  The results are gathered into dense
        ``(start, size)`` tables.

        Raises:
            PartitionError: If a sample alone exceeds the per-micro-batch
                memory limit (the same error :func:`solve_partition` raises).
        """
        mode = self.recompute if recompute is None else recompute
        geometry = self._window_geometry(ordered)
        sizes, enc, dec = geometry.unique
        singles = slice(geometry.num_singletons)
        times_single, activation_single = self.cost_model.window_costs_arrays(
            sizes[singles], enc[singles], dec[singles], mode
        )
        fits_alone = (activation_single <= self.per_microbatch_memory_bytes)[
            geometry.rows[:, 0]
        ]
        if not fits_alone.all():
            raise singleton_infeasible_error(int(np.argmin(fits_alone)))
        rest = slice(geometry.num_singletons, None)
        times_rest, activation_rest = self.cost_model.window_costs_arrays(
            sizes[rest], enc[rest], dec[rest], mode
        )
        # One trailing entry for the past-the-end windows: never feasible.
        times = np.concatenate([times_single, times_rest, [np.inf]])[geometry.rows]
        activation = np.concatenate([activation_single, activation_rest, [np.nan]])
        feasible = (activation <= self.per_microbatch_memory_bytes)[geometry.rows]
        return WindowCostTable(
            times=times,
            feasible=feasible,
            unique_shape_evaluations=geometry.unique.shape[1],
        )

    # ------------------------------------------------------------------ strategy API

    def split(
        self, samples: Sequence[Sample], recompute: RecomputeMode | None = None
    ) -> BatchingResult:
        """Order the mini-batch and partition it with the DP algorithm.

        Args:
            samples: The mini-batch to partition.
            recompute: Recomputation mode override for this call (defaults to
                the instance's mode); lets the planner retry heavier modes
                without rebuilding the batcher or its window geometry.
        """
        result, solution = self.split_with_solution(samples, recompute)
        self.last_solution = solution
        return result

    def split_with_solution(
        self, samples: Sequence[Sample], recompute: RecomputeMode | None = None
    ) -> tuple[BatchingResult, DPSolution | None]:
        """:meth:`split` returning the DP solution directly.

        Concurrent planners sharing one batcher (e.g. planner-pool worker
        threads) must use this instead of reading ``last_solution``, which is
        last-writer-wins across threads.
        """
        if not samples:
            return BatchingResult(micro_batches=[]), None
        mode = self.recompute if recompute is None else recompute
        ordered = order_samples(samples, self.ordering, decoder_only=self.decoder_only)
        solution = solve_partition(
            num_samples=len(ordered),
            num_stages=self.cost_model.num_stages,
            cost_table=self.build_window_cost_table(ordered, mode),
            sum_weight=self.sum_weight,
            max_microbatch_size=self.max_microbatch_size,
            tmax_sample_count=self.tmax_sample_count,
        )
        micro_batches = [
            MicroBatch.from_samples(ordered[start:end], decoder_only=self.decoder_only)
            for start, end in solution.boundaries
        ]
        return BatchingResult(micro_batches=micro_batches), solution
