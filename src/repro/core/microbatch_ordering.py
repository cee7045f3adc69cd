"""Micro-batch injection ordering (paper §5, "Micro-batch ordering").

The order in which micro-batches are injected into the pipeline affects
throughput when their execution times differ.  Modelling this exactly is
intractable, so the paper clusters micro-batches by predicted execution
time, permutes the *cluster order* (a small factorial search — 3 or 4
clusters suffice), and keeps the order with the lowest simulated makespan.
The candidate orders are scored together in one call, so a scorer can share
work between them (the planner solves every candidate that has the same
schedule geometry in one batched timeline solve).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations
from typing import Callable, Sequence

import numpy as np

#: Scores candidate injection orders (permutations of micro-batch indices):
#: one makespan per order, in order (lower is better).
OrderBatchScoreFn = Callable[[list[list[int]]], Sequence[float]]


@dataclass
class OrderingSearchResult:
    """Result of the cluster-permutation search.

    Attributes:
        order: The selected injection order (micro-batch indices).
        makespan_ms: Simulated makespan of the selected order.
        evaluated: Number of candidate orders scored.
        cluster_sizes: Sizes of the execution-time clusters used.
        geometry_compiles: Distinct schedule geometries the search solved on
            (set by the planner; ``None`` when the scorer does not report it).
        timeline_solves: Candidate orders the search solved on the timeline
            (set by the planner; ``None`` when the scorer does not report it).
    """

    order: list[int]
    makespan_ms: float
    evaluated: int
    cluster_sizes: list[int]
    geometry_compiles: int | None = None
    timeline_solves: int | None = None


def cluster_by_time(times: Sequence[float], num_clusters: int) -> list[list[int]]:
    """Group micro-batch indices into ``num_clusters`` clusters of similar
    predicted execution time.

    Clustering is one-dimensional, so quantile bucketing over the sorted
    times is both simple and as good as k-means for this purpose.  Clusters
    are returned ordered by increasing execution time; indices within a
    cluster keep their original relative order.
    """
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    n = len(times)
    if n == 0:
        return []
    num_clusters = min(num_clusters, n)
    order = sorted(range(n), key=lambda i: times[i])
    boundaries = np.array_split(np.array(order), num_clusters)
    clusters = []
    for bucket in boundaries:
        members = sorted(int(i) for i in bucket)
        if members:
            clusters.append(members)
    return clusters


def cluster_and_order(
    times: Sequence[float],
    score_orders: OrderBatchScoreFn,
    num_clusters: int = 3,
    max_permutations: int = 24,
) -> OrderingSearchResult:
    """Search cluster-order permutations for the best injection order.

    Args:
        times: Predicted execution time of each micro-batch.
        score_orders: Scores every candidate injection order in one call
            (lower is better); typically a simulation of the adaptive schedule.
        num_clusters: Number of execution-time clusters (3–4 per the paper).
        max_permutations: Safety cap on the number of permutations evaluated.

    Returns:
        The first best-scoring order together with search statistics.  When
        no permutation scores finite (e.g. every one exceeds device memory),
        the order is the input order ``0..n-1`` and ``makespan_ms`` is
        ``inf``.

    Raises:
        ValueError: If ``times`` is empty, ``num_clusters`` or
            ``max_permutations`` is below 1, or the scorer returns a number
            of scores other than one per candidate.
    """
    n = len(times)
    if n == 0:
        raise ValueError("at least one micro-batch is required")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    if max_permutations < 1:
        raise ValueError(f"max_permutations must be >= 1, got {max_permutations}")
    if n == 1:
        clusters = [[0]]
        candidates = [[0]]
    else:
        clusters = cluster_by_time(times, num_clusters)
        candidates = [
            [index for cluster_index in permutation for index in clusters[cluster_index]]
            for permutation in islice(permutations(range(len(clusters))), max_permutations)
        ]
    scores = list(score_orders(candidates))
    if len(scores) != len(candidates):
        raise ValueError(
            f"score_orders returned {len(scores)} scores for {len(candidates)} orders"
        )
    best_order = list(range(n))
    best_score = float("inf")
    for candidate, score in zip(candidates, scores):
        if score < best_score:
            best_score = score
            best_order = candidate
    return OrderingSearchResult(
        order=best_order,
        makespan_ms=best_score,
        evaluated=len(candidates),
        cluster_sizes=[len(cluster) for cluster in clusters],
    )
