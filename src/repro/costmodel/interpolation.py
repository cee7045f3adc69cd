"""Multi-linear interpolation over a rectangular grid of profiled points.

The paper profiles micro-batch sizes and sequence lengths at power-of-two
intervals and uses linear interpolation between sampled points.  This module
implements that interpolation for an arbitrary number of dimensions (two for
GPT layers, three for T5 decoder layers because cross-attention couples the
target and source lengths).

Values outside the profiled range are linearly extrapolated from the last
grid cell, matching the common practice of extending the profile rather than
failing; extrapolation quality is part of what the cost-model accuracy
experiment measures.

Two query paths are provided: the scalar ``__call__`` (the reference
implementation) and the batched :func:`query_grids`, which evaluates
thousands of points on several grids sharing one set of axes in a handful of
numpy operations and is the entry point of the planner's vectorized
cost-model fast path.  It brackets the points and forms the corner weights
once, then gathers every grid with the same corners in the same order, so
each grid's result is bit-identical to its scalar ``__call__``;
:meth:`GridInterpolator.query_many` is its one-grid case.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

import numpy as np


class GridInterpolator:
    """N-dimensional multi-linear interpolation on a rectangular grid.

    Args:
        axes: One strictly-increasing coordinate array per dimension.
        values: Array of shape ``tuple(len(a) for a in axes)`` holding the
            profiled value at each grid point.
    """

    def __init__(self, axes: Sequence[Sequence[float]], values: np.ndarray) -> None:
        if not axes:
            raise ValueError("at least one axis is required")
        self.axes = [np.asarray(axis, dtype=float) for axis in axes]
        for dim, axis in enumerate(self.axes):
            if axis.ndim != 1 or len(axis) < 1:
                raise ValueError(f"axis {dim} must be a non-empty 1-D sequence")
            if len(axis) > 1 and not np.all(np.diff(axis) > 0):
                raise ValueError(f"axis {dim} must be strictly increasing")
        self.values = np.asarray(values, dtype=float)
        expected_shape = tuple(len(axis) for axis in self.axes)
        if self.values.shape != expected_shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match axes shape {expected_shape}"
            )

    def _bracket(self, dim: int, x: float) -> tuple[int, int, float]:
        """Return (low index, high index, fraction) bracketing ``x`` on ``dim``.

        Points beyond either end of the axis extrapolate from the outermost
        cell (fraction outside [0, 1]).
        """
        axis = self.axes[dim]
        if len(axis) == 1:
            return 0, 0, 0.0
        idx = bisect_left(axis, x)
        if idx <= 0:
            lo, hi = 0, 1
        elif idx >= len(axis):
            lo, hi = len(axis) - 2, len(axis) - 1
        else:
            lo, hi = idx - 1, idx
        span = axis[hi] - axis[lo]
        frac = (x - axis[lo]) / span if span else 0.0
        return lo, hi, float(frac)

    def __call__(self, *coords: float) -> float:
        """Interpolated value at ``coords`` (one coordinate per dimension)."""
        if len(coords) != len(self.axes):
            raise ValueError(
                f"expected {len(self.axes)} coordinates, got {len(coords)}"
            )
        brackets = [self._bracket(dim, float(c)) for dim, c in enumerate(coords)]
        total = 0.0
        corners = 1 << len(self.axes)
        for corner in range(corners):
            weight = 1.0
            index = []
            for dim, (lo, hi, frac) in enumerate(brackets):
                if corner >> dim & 1:
                    weight *= frac
                    index.append(hi)
                else:
                    weight *= 1.0 - frac
                    index.append(lo)
            if weight != 0.0:
                total += weight * float(self.values[tuple(index)])
        return total

    def query_many(self, coords: np.ndarray) -> np.ndarray:
        """Interpolated values for a batch of points in one numpy pass.

        Args:
            coords: Array of shape ``(num_points, num_dims)``; one row per
                query point, one column per grid dimension.

        Returns:
            Array of ``num_points`` interpolated values, bit-identical to
            calling the scalar ``__call__`` on each row.
        """
        return query_grids([self], coords)[0]

    def max_value(self) -> float:
        """Maximum profiled value (useful for sanity checks)."""
        return float(self.values.max())


def _bracket_many(axis: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :meth:`GridInterpolator._bracket`: arrays of (low, high, fraction)."""
    if len(axis) == 1:
        zeros = np.zeros(len(x), dtype=np.intp)
        return zeros, zeros, np.zeros(len(x))
    idx = np.searchsorted(axis, x, side="left")
    np.clip(idx, 1, len(axis) - 1, out=idx)
    lo = idx - 1
    span = axis[idx] - axis[lo]
    frac = (x - axis[lo]) / span
    return lo, idx, frac


def query_grids(grids: Sequence[GridInterpolator], coords: np.ndarray) -> list[np.ndarray]:
    """Interpolate every grid of ``grids`` at a batch of points.

    The grids must share their axes.  Brackets are computed once, and each
    corner's weight and flat index once for all grids; every grid sums its
    gathered corner values in the scalar ``__call__``'s corner order with
    the same weight products, so every result is bit-identical to the
    scalar path.

    Args:
        grids: Interpolators over identical axes.
        coords: Array of shape ``(num_points, num_dims)``.

    Returns:
        One array of ``num_points`` values per grid, in ``grids`` order.

    Raises:
        ValueError: If the grids' axes differ or ``coords`` has the wrong
            shape.
    """
    axes = grids[0].axes
    for grid in grids[1:]:
        if len(grid.axes) != len(axes) or not all(
            np.array_equal(a, b) for a, b in zip(grid.axes, axes)
        ):
            raise ValueError("grids queried together must share their axes")
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != len(axes):
        raise ValueError(f"expected coords of shape (n, {len(axes)}), got {coords.shape}")
    brackets = [_bracket_many(axis, coords[:, dim]) for dim, axis in enumerate(axes)]
    sides = [((lo, 1.0 - frac), (hi, frac)) for lo, hi, frac in brackets]
    shape = grids[0].values.shape
    flat_values = [grid.values.ravel() for grid in grids]
    results = [np.zeros(coords.shape[0]) for _ in grids]
    for corner in range(1 << len(axes)):
        # Corner bit ``dim`` selects the high side of dimension ``dim``;
        # weights multiply in dimension order, as in ``__call__``.
        weight = None
        index = []
        for dim, (low, high) in enumerate(sides):
            side_index, side_weight = high if corner >> dim & 1 else low
            weight = side_weight if weight is None else weight * side_weight
            index.append(side_index)
        flat = np.ravel_multi_index(index, shape)
        for total, values in zip(results, flat_values):
            total += weight * values[flat]
    return results
