"""Replica timeline order search: group candidates by geometry, solve in batches.

The planner's injection-order search (paper §5) scores permutations of a
replica's micro-batches by simulating the memory-aware adaptive schedule.
The rebuild path (kept as the test oracle in ``tests/oracles/order_search.py``)
builds the full compute-op schedule and re-simulates the timeline for every
permutation; the planner's replica timeline runs the slot-level scheduler
per permutation, groups the permutations by the resulting schedule
*geometry* (op order + dependency structure) and solves each group in one
batched array pass.  Both are bit-identical — this example times them side
by side on a seeded GPT configuration and prints the counters that show
the reuse.

Run with:  PYTHONPATH=src python examples/incremental_order_search.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.model.config import ModelArch, ModelConfig
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.order_search import RebuildingPlanner, replica_search  # noqa: E402

CONFIG = ModelConfig(
    name="gpt-example-small",
    arch=ModelArch.GPT,
    num_layers=8,
    hidden_size=1024,
    num_heads=16,
    kv_channels=64,
    ffn_hidden_size=4096,
    vocab_size=32000,
)

NUM_MICROBATCHES = 16
REPEATS = 5


def main() -> None:
    cost_model = CostModel(
        CONFIG, num_stages=4, max_profile_batch_size=128, max_profile_seq_len=2048
    )
    config = PlannerConfig(order_search=True, num_time_clusters=4, max_order_permutations=24)
    planner = DynaPipePlanner(cost_model, config=config)
    rebuilding = RebuildingPlanner(cost_model, config=config)

    rng = np.random.default_rng(42)
    shapes = [
        MicroBatchShape(
            batch_size=int(rng.integers(1, 9)),
            enc_seq_len=int(rng.choice([128, 256, 512, 1024])),
        )
        for _ in range(NUM_MICROBATCHES)
    ]
    mode = RecomputeMode.NONE

    def search(planner: DynaPipePlanner):
        replica_search(planner, shapes, mode)  # warm caches
        best = float("inf")
        result = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = replica_search(planner, shapes, mode)
            best = min(best, time.perf_counter() - start)
        return result, best

    legacy, legacy_s = search(rebuilding)
    incremental, incremental_s = search(planner)

    print(f"micro-batches: {NUM_MICROBATCHES}   stages: {cost_model.num_stages}")
    print(f"permutations evaluated: {incremental.evaluated}")
    print()
    print(f"rebuild per permutation:           {legacy_s * 1e3:8.2f} ms")
    print(f"replica timeline (batched solves): {incremental_s * 1e3:8.2f} ms")
    print(f"speed-up:                          {legacy_s / incremental_s:8.1f}x")
    print()
    print(
        f"geometries: {incremental.geometry_compiles}   "
        f"timeline solves: {incremental.timeline_solves}"
    )
    print(f"selected order:    {incremental.order}")
    print(f"makespan:          {incremental.makespan_ms:.3f} ms")

    assert incremental.order == legacy.order
    assert incremental.makespan_ms == legacy.makespan_ms
    print()
    print("OK: the replica timeline's search is bit-identical to the rebuild path.")


if __name__ == "__main__":
    main()
