"""Tier-2 benchmark of the data-oriented simulation engine.

Three measurements, mirroring where the simulator dominates:

* **Fig. 7-style re-simulation sweep** — the schedule-robustness figures
  re-simulate a fixed schedule under dozens of perturbed duration tables.
  The scalar engine re-runs its per-op Python event loop per table; the
  compiled engine compiles the geometry once and solves all duration
  vectors in one batched wave sweep.  Per-solve makespans are asserted
  bit-identical before any timing is reported.

* **Fig. 16-style order search** — the planner's injection-order search
  scores permutations of one replica's micro-batches.  Three variants are
  timed: the seed's path (rebuild the schedule + scalar simulation per
  permutation), the rebuild path on the vectorized engine (both kept in
  ``tests/oracles/order_search.py``), and the planner's replica timeline
  (candidates grouped by slot geometry, one batched solve per group).  All
  three must select the same order with the same makespan.

* **Replica plan** — everything the planner does per replica after the DP
  split: verify the given injection order, search, finalise the chosen
  order.  The oracle rebuilds and re-simulates for each step; the replica
  timeline solves the given order once, the candidates in batches, and
  finalises from the solved row.  Search result, schedule and simulation
  (makespan, busy, idle, peaks, op times) are asserted equal.

Run with ``pytest benchmarks/bench_sim_engine.py --benchmark-disable -s``
(or ``pytest benchmarks/ -m tier2_bench``).  Set ``REPRO_BENCH_SMOKE=1``
for the reduced tier-1 smoke workload, which asserts only equivalence; the
>= 10x speed-up claim on the sweep rows is enforced on multi-core hosts in
the full run.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.model.config import ModelArch, ModelConfig
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.cyclic import cyclic_schedule
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.engine import compile_schedule, simulate_schedule_scalar

from common import emit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.order_search import RebuildingPlanner, replica_plan, replica_search  # noqa: E402

#: Reduced workload + relaxed timing asserts (used as a tier-1 smoke check).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
MULTI_CORE = (os.cpu_count() or 1) >= 4

#: Required speed-up of the batched compiled solve over the scalar loop on
#: the Fig. 7-style sweep rows (full run, multi-core hosts only).
SWEEP_SPEEDUP_FLOOR = 10.0

STAGE_COUNTS = (2, 4) if SMOKE else (4, 8, 16)
NUM_MICROBATCHES = 8 if SMOKE else 32
NUM_DURATION_TABLES = 8 if SMOKE else 64

ORDER_SEARCH_MICROBATCHES = 6 if SMOKE else 16
ORDER_SEARCH_REPEATS = 1 if SMOKE else 3

BENCH_CONFIG = ModelConfig(
    name="gpt-bench-small",
    arch=ModelArch.GPT,
    num_layers=8,
    hidden_size=1024,
    num_heads=16,
    kv_channels=64,
    ffn_hidden_size=4096,
    vocab_size=32000,
)

BASE_FORWARD_MS = 1.0
BASE_BACKWARD_MS = 2.0


def _noise_tables(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-solve (table, microbatch) forward/backward duration matrices,
    mirroring the Fig. 7 noise model across its noise levels."""
    stds = np.linspace(0.0, 3.0, NUM_DURATION_TABLES)
    forward = np.maximum(
        0.05,
        BASE_FORWARD_MS
        + rng.normal(0.0, 1.0, (NUM_DURATION_TABLES, NUM_MICROBATCHES))
        * stds[:, None] * BASE_FORWARD_MS / 3.0,
    )
    backward = np.maximum(
        0.05,
        BASE_BACKWARD_MS
        + rng.normal(0.0, 1.0, (NUM_DURATION_TABLES, NUM_MICROBATCHES))
        * stds[:, None] * BASE_BACKWARD_MS / 3.0,
    )
    return forward, backward


def run_resimulation_sweep() -> list[list]:
    rows = []
    rng = np.random.default_rng(17)
    for num_stages in STAGE_COUNTS:
        schedules = {
            "1f1b": one_f_one_b_schedule(num_stages, NUM_MICROBATCHES),
            "adaptive": cyclic_schedule(
                num_stages, [[1.0] * num_stages for _ in range(NUM_MICROBATCHES)]
            ),
        }
        forward, backward = _noise_tables(rng)
        for name, schedule in schedules.items():
            tables = [
                {
                    (mb, is_forward): (forward if is_forward else backward)[t, mb]
                    for mb in range(NUM_MICROBATCHES)
                    for is_forward in (True, False)
                }
                for t in range(NUM_DURATION_TABLES)
            ]

            start = time.perf_counter()
            scalar_makespans = []
            for table in tables:
                duration = lambda op: table[(op.microbatch, op.op_type.value == "F")]
                scalar_makespans.append(
                    simulate_schedule_scalar(schedule, duration).makespan_ms
                )
            scalar_s = time.perf_counter() - start

            start = time.perf_counter()
            timeline = compile_schedule(schedule)
            durations = np.where(
                timeline.op_is_forward,
                forward[:, timeline.op_microbatch],
                backward[:, timeline.op_microbatch],
            )
            batch = timeline.solve_batch(durations)
            vector_s = time.perf_counter() - start

            assert list(batch.makespan_ms) == scalar_makespans
            speedup = scalar_s / vector_s if vector_s > 0 else float("inf")
            rows.append(
                [
                    f"fig07/{name}",
                    num_stages,
                    NUM_MICROBATCHES,
                    NUM_DURATION_TABLES,
                    round(scalar_s, 4),
                    round(vector_s, 4),
                    round(speedup, 1),
                ]
            )
    return rows


def _order_search_shapes() -> list[MicroBatchShape]:
    rng = np.random.default_rng(23)
    return [
        MicroBatchShape(
            batch_size=int(rng.integers(1, 9)),
            enc_seq_len=int(rng.choice([128, 256, 512, 1024])),
        )
        for _ in range(ORDER_SEARCH_MICROBATCHES)
    ]


def _timed(fn, warm: bool = True):
    """``(result, best seconds)`` of ``fn`` over ``ORDER_SEARCH_REPEATS`` runs."""
    if warm:
        fn()  # warm the cost-model caches so only the replica path is timed
    best = float("inf")
    result = None
    for _ in range(ORDER_SEARCH_REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _with_engine(engine: str | None, fn):
    """Run ``fn`` with ``REPRO_SIM_ENGINE`` set to ``engine`` (``None``: unset)."""
    previous = os.environ.pop("REPRO_SIM_ENGINE", None)
    if engine is not None:
        os.environ["REPRO_SIM_ENGINE"] = engine
    try:
        return fn()
    finally:
        os.environ.pop("REPRO_SIM_ENGINE", None)
        if previous is not None:
            os.environ["REPRO_SIM_ENGINE"] = previous


def _assert_same_replica_plan(expected, actual) -> None:
    (search_a, schedule_a, sim_a), (search_b, schedule_b, sim_b) = expected, actual
    assert search_a.order == search_b.order
    assert search_a.makespan_ms == search_b.makespan_ms
    assert search_a.evaluated == search_b.evaluated
    assert schedule_a == schedule_b
    assert sim_a.makespan_ms == sim_b.makespan_ms
    assert sim_a.device_busy_ms == sim_b.device_busy_ms
    assert sim_a.device_idle_ms == sim_b.device_idle_ms
    assert sim_a.peak_activation_bytes == sim_b.peak_activation_bytes
    assert sim_a.op_times == sim_b.op_times


def run_order_search() -> list[list]:
    cost_model = CostModel(
        BENCH_CONFIG, num_stages=4, max_profile_batch_size=128, max_profile_seq_len=2048
    )
    config = PlannerConfig(order_search=True, num_time_clusters=4, max_order_permutations=24)
    planner = DynaPipePlanner(cost_model, config=config)
    rebuilding = RebuildingPlanner(cost_model, config=config)
    shapes = _order_search_shapes()
    mode = RecomputeMode.NONE

    # Order search alone: the seed's path (rebuild + scalar engine), the
    # rebuild path on the vectorized engine, and the replica timeline.
    seed_result, seed_s = _with_engine(
        "scalar", lambda: _timed(lambda: replica_search(rebuilding, shapes, mode))
    )
    rebuild_result, rebuild_s = _with_engine(
        None, lambda: _timed(lambda: replica_search(rebuilding, shapes, mode))
    )
    search_result, search_s = _timed(lambda: replica_search(planner, shapes, mode))
    assert search_result.order == seed_result.order == rebuild_result.order
    assert search_result.makespan_ms == seed_result.makespan_ms == rebuild_result.makespan_ms
    assert search_result.geometry_compiles is not None
    assert search_result.geometry_compiles < search_result.timeline_solves

    # The whole replica path the planner runs: verify the given order,
    # search, finalise the chosen order (rebuilt vs from the solved row).
    oracle_plan, oracle_s = _with_engine(
        None, lambda: _timed(lambda: replica_plan(rebuilding, shapes, mode))
    )
    new_plan, new_s = _timed(lambda: replica_plan(planner, shapes, mode))
    _assert_same_replica_plan(oracle_plan, new_plan)

    def row(variant: str, solves: int, baseline_s: float, compiled_s: float) -> list:
        return [
            variant,
            cost_model.num_stages,
            ORDER_SEARCH_MICROBATCHES,
            solves,
            round(baseline_s, 4),
            round(compiled_s, 4),
            round(baseline_s / compiled_s if compiled_s > 0 else float("inf"), 1),
        ]

    return [
        row("fig16/order-search/seed-rebuild-scalar", search_result.evaluated, seed_s, search_s),
        row("fig16/order-search/rebuild-vector", search_result.evaluated, rebuild_s, search_s),
        # verify + search + finalise: one solve, the search's solves, none.
        row("replica-plan/rebuild-vs-timeline", 1 + search_result.timeline_solves, oracle_s, new_s),
    ]


HEADERS = [
    "sweep", "stages", "microbatches", "solves",
    "baseline_s", "compiled_s", "speedup",
]


@pytest.mark.tier2_bench
def test_sim_engine(benchmark, capsys):
    def run():
        return run_resimulation_sweep() + run_order_search()

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "sim_engine",
        "Simulation engine: scalar loop vs compiled batched timeline solver",
        HEADERS,
        rows,
        capsys,
    )
    sweep_speedups = [row[-1] for row in rows if str(row[0]).startswith("fig07/")]
    search_speedups = [row[-1] for row in rows if str(row[0]).startswith("fig16/")]
    assert sweep_speedups and search_speedups
    if not SMOKE and MULTI_CORE:
        # The batched compiled solve must beat the scalar loop by an order
        # of magnitude on the re-simulation sweeps...
        assert max(sweep_speedups) >= SWEEP_SPEEDUP_FLOOR
        # ...and the incremental order search must clearly beat the seed's
        # rebuild-and-simulate-scalar scoring path.
        assert max(search_speedups) >= 2.0
