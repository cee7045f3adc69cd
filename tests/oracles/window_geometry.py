"""Row-wise window-shape dedup: the planner's original window geometry.

Every candidate ``[start, start + size)`` window of an ordered mini-batch is
listed start-major as a ``(size, enc, dec)`` triple, the maxima come from a
per-size running-maximum loop, and the triples are deduplicated with
``np.unique(axis=0)``.  ``repro.core.microbatch`` replaces this with packed
int64 keys and a 1-D ``np.unique``; the two must give equal unique shapes and
window → shape indices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dp_solver import WindowCostTable
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode


def running_window_maxima(values: np.ndarray, window: int) -> np.ndarray:
    """``out[start, size - 1] = max(values[start:start + size])``, one size at a time."""
    n = len(values)
    out = np.zeros((n, window), dtype=values.dtype)
    if n == 0 or window == 0:
        return out
    out[:, 0] = values
    for size in range(2, window + 1):
        np.maximum(
            out[: n - size + 1, size - 2],
            values[size - 1 :],
            out=out[: n - size + 1, size - 1],
        )
    return out


def sample_lengths(
    ordered: Sequence[Sample], decoder_only: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (enc, dec) padded lengths as the planner reads them."""
    if decoder_only:
        enc = np.array([s.total_tokens for s in ordered], dtype=np.int64)
        return enc, np.zeros(len(ordered), dtype=np.int64)
    return (
        np.array([s.input_tokens for s in ordered], dtype=np.int64),
        np.array([s.target_tokens for s in ordered], dtype=np.int64),
    )


def window_geometry(
    enc: np.ndarray, dec: np.ndarray, max_window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(unique, inverse, start_index, size_index)`` of the row-wise dedup.

    ``unique`` has one ``(size, enc, dec)`` row per distinct shape;
    ``inverse[i]`` is the row of window ``(start_index[i], size_index[i] + 1)``,
    windows listed start-major.
    """
    n = len(enc)
    window = min(max_window, n)
    enc_max = running_window_maxima(enc, window)
    dec_max = running_window_maxima(dec, window)
    valid = np.arange(n)[:, None] + np.arange(1, window + 1)[None, :] <= n
    start_index, size_index = np.nonzero(valid)
    triples = np.stack(
        [
            size_index + 1,
            enc_max[start_index, size_index],
            dec_max[start_index, size_index],
        ],
        axis=1,
    )
    unique, inverse = np.unique(triples, axis=0, return_inverse=True)
    return unique, inverse.reshape(-1), start_index, size_index


def window_cost_table(
    batcher, ordered: Sequence[Sample], recompute: RecomputeMode
) -> WindowCostTable:
    """The ungated table: every unique shape costed in one query, then scattered."""
    enc, dec = sample_lengths(ordered, batcher.decoder_only)
    unique, inverse, start_index, size_index = window_geometry(
        enc, dec, batcher.max_microbatch_size
    )
    times_unique, activation_unique = batcher.cost_model.window_costs_arrays(
        unique[:, 0], unique[:, 1], unique[:, 2], recompute
    )
    n = len(ordered)
    window = min(batcher.max_microbatch_size, n)
    times = np.full((n, window), np.inf)
    feasible = np.zeros((n, window), dtype=bool)
    times[start_index, size_index] = times_unique[inverse]
    feasible[start_index, size_index] = (
        activation_unique <= batcher.per_microbatch_memory_bytes
    )[inverse]
    return WindowCostTable(
        times=times, feasible=feasible, unique_shape_evaluations=len(unique)
    )
