"""Tier-2 micro-benchmark of the planner's DP hot path and planner pool.

A regression guard for planning time: it exercises the vectorized fast path
that dominates per-iteration planning — window-shape table construction, the
batched cost-model query over unique shapes, and the dense-matrix DP — plus
the process-backed :class:`~repro.runtime.planner_pool.PlannerPool`, on
small models whose profiles build in about a second.  The split table has
decoder-only (GPT) rows over growing mini-batches, an encoder-decoder (T5)
row, and a recomputation-retry row in which NONE is infeasible (rejected by
the singleton gate) before FULL succeeds, as in the planner's mode search.
A second table times the DP solve alone on the same GPT and T5
mini-batches: the full-width recurrence kept in ``tests/oracles`` against
the width-bounded one in ``repro.core.dp_solver``, with their solutions
asserted equal.  Run it with

    pytest benchmarks/bench_planner_hotpath.py --benchmark-disable -s

(or ``pytest benchmarks/ -m tier2_bench``) to catch planning-time
regressions without the full Fig. 17 sweep.  Besides timing, it asserts that
the table-driven partition matches the scalar oracle exactly and that
pooled plans are bit-identical to serial planning.

Set ``REPRO_BENCH_SMOKE=1`` to run a reduced workload with the timing
assertions relaxed — the smoke mode the tier-1 suite uses to keep these
benchmark files from silently rotting.  The multi-core speed-up assertion
additionally requires >= 4 CPU cores (the claim is about multi-core hosts).
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.dp_solver import PartitionError, solve_partition
from repro.core.microbatch import DynamicMicroBatcher
from repro.core.ordering import order_samples
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.data.tasks import Sample
from repro.instructions.store import InstructionStore
from repro.model.config import ModelArch, ModelConfig
from repro.model.memory import RecomputeMode
from repro.runtime.planner_pool import PlannerPool

from common import emit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import dp_solver as dp_oracle  # noqa: E402

#: Reduced workload + relaxed timing asserts (used as a tier-1 smoke check).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

#: Ceiling on the mean vectorized split time for the largest mini-batch.
#: The fast path runs it in well under 100 ms; the pre-vectorization scalar
#: chain took several seconds, so this catches order-of-magnitude
#: regressions with ample headroom for slow CI machines.
SPLIT_TIME_LIMIT_S = 1.0

MINIBATCH_SIZES = (64, 192) if SMOKE else (64, 192, 448)
#: Mini-batch size of the encoder-decoder and recomputation-retry rows.
T5_MINIBATCH_SAMPLES = 192
REPEATS = 1 if SMOKE else 3

#: Timed solves per row of the DP-solve table (median reported).
DP_SOLVE_REPEATS = 3 if SMOKE else 9
#: Required speed-up of the width-bounded recurrence over the full-width one.
DP_SOLVE_SPEEDUP_FLOOR = 1.5

#: Planner-pool scaling: worker counts compared on the same iteration set.
POOL_WORKER_COUNTS = (1, 4)
POOL_ITERATIONS = 3 if SMOKE else 12
POOL_MINIBATCH_SAMPLES = 96 if SMOKE else 256
#: Required wall-clock speed-up of 4 workers over 1 on a multi-core host.
POOL_SPEEDUP_FLOOR = 2.0

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

BENCH_T5_CONFIG = ModelConfig(
    name="t5-bench-small",
    arch=ModelArch.T5,
    num_layers=8,
    hidden_size=1024,
    num_heads=16,
    kv_channels=64,
    ffn_hidden_size=4096,
    vocab_size=32000,
)


def synthetic_minibatch(
    num_samples: int, seed: int, encoder_decoder: bool = False
) -> list[Sample]:
    """Seeded heavy-tailed sample lengths (mimicking the FLAN mixture)."""
    rng = np.random.default_rng(seed)
    lengths = np.clip(rng.lognormal(mean=5.0, sigma=0.8, size=num_samples), 8, 2040)
    if not encoder_decoder:
        return [Sample(input_tokens=int(n), target_tokens=0) for n in lengths]
    targets = np.clip(rng.lognormal(mean=4.0, sigma=0.8, size=num_samples), 1, 1020)
    return [Sample(input_tokens=int(n), target_tokens=int(t)) for n, t in zip(lengths, targets)]


def time_splits(batcher, samples, modes) -> tuple[list[float], object]:
    """Per-repeat time to try ``modes`` in turn until one partitions.

    Each repeat perturbs one sample so the one-slot geometry cache cannot
    serve the timing run; returns the times and the last DP solution.
    """
    elapsed = []
    for repeat in range(REPEATS):
        perturbed = list(samples)
        perturbed[0] = Sample(
            input_tokens=samples[0].input_tokens + repeat,
            target_tokens=samples[0].target_tokens,
        )
        start = time.perf_counter()
        for mode in modes:
            try:
                batcher.split(perturbed, mode)
            except PartitionError:
                continue
            break
        elapsed.append(time.perf_counter() - start)
    return elapsed, batcher.last_solution


def retry_limit(cost_model, samples) -> float:
    """A per-micro-batch limit some sample alone exceeds under NONE but
    every sample meets under FULL recomputation."""
    batch = np.ones(len(samples))
    enc = np.array([s.input_tokens for s in samples], dtype=float)
    dec = np.array([s.target_tokens for s in samples], dtype=float)
    _, none_need = cost_model.window_costs_arrays(batch, enc, dec, RecomputeMode.NONE)
    _, full_need = cost_model.window_costs_arrays(batch, enc, dec, RecomputeMode.FULL)
    assert full_need.max() < none_need.max()
    return float(full_need.max() + none_need.max()) / 2


def assert_matches_scalar(cost_model, samples, modes=(RecomputeMode.NONE,), **kwargs):
    """The table path partitions exactly like the scalar oracle, and an
    infeasible mode fails with the same error on both."""
    batcher = DynamicMicroBatcher(cost_model, tmax_sample_count=16, **kwargs)
    for mode in modes[:-1]:
        with pytest.raises(PartitionError) as fast_error:
            batcher.split(samples, mode)
        with pytest.raises(PartitionError) as slow_error:
            dp_oracle.scalar_split(batcher, samples, mode)
        assert str(fast_error.value) == str(slow_error.value)
    batcher.split(samples, modes[-1])
    _, scalar = dp_oracle.scalar_split(batcher, samples, modes[-1])
    assert batcher.last_solution.boundaries == scalar.boundaries
    assert batcher.last_solution.objective == scalar.objective


def _row(workload, num_samples, elapsed, solution):
    return [
        workload,
        num_samples,
        round(sum(elapsed) / len(elapsed), 4),
        round(max(elapsed), 4),
        solution.cost_evaluations,
        solution.num_microbatches,
    ]


def run():
    cost_model = CostModel(
        BENCH_CONFIG, num_stages=4, max_profile_batch_size=128, max_profile_seq_len=2048
    )
    rows = []
    for num_samples in MINIBATCH_SIZES:
        batcher = DynamicMicroBatcher(cost_model, tmax_sample_count=16)
        samples = synthetic_minibatch(num_samples, seed=num_samples)
        elapsed, solution = time_splits(batcher, samples, [RecomputeMode.NONE])
        rows.append(_row("gpt", num_samples, elapsed, solution))

    t5_cost_model = CostModel(
        BENCH_T5_CONFIG, num_stages=2, max_profile_batch_size=128, max_profile_seq_len=2048
    )
    samples = synthetic_minibatch(T5_MINIBATCH_SAMPLES, seed=5, encoder_decoder=True)
    batcher = DynamicMicroBatcher(t5_cost_model, tmax_sample_count=16)
    elapsed, solution = time_splits(batcher, samples, [RecomputeMode.NONE])
    rows.append(_row("t5", T5_MINIBATCH_SAMPLES, elapsed, solution))
    retry = DynamicMicroBatcher(
        t5_cost_model,
        tmax_sample_count=16,
        per_microbatch_memory_bytes=retry_limit(t5_cost_model, samples),
    )
    retry_modes = [RecomputeMode.NONE, RecomputeMode.FULL]
    elapsed, solution = time_splits(retry, samples, retry_modes)
    rows.append(_row("t5-retry-none-full", T5_MINIBATCH_SAMPLES, elapsed, solution))

    # Correctness guards: the fast path must match the scalar reference.
    assert_matches_scalar(cost_model, synthetic_minibatch(MINIBATCH_SIZES[0], seed=7))
    small = synthetic_minibatch(MINIBATCH_SIZES[0], seed=11, encoder_decoder=True)
    assert_matches_scalar(t5_cost_model, small)
    assert_matches_scalar(
        t5_cost_model,
        small,
        modes=retry_modes,
        per_microbatch_memory_bytes=retry_limit(t5_cost_model, small),
    )
    return rows


HEADERS = [
    "workload", "minibatch_samples", "mean_split_s", "max_split_s",
    "dp_cost_evaluations", "num_microbatches",
]


@pytest.mark.tier2_bench
def test_planner_hotpath(benchmark, capsys):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "planner_hotpath",
        "Planner hot path: vectorized DP split time (GPT, T5, T5 NONE->FULL retry)",
        HEADERS,
        rows,
        capsys,
    )
    # Split time grows with the mini-batch but stays far below the scalar
    # regime; a regression to per-window Python cost evaluation trips this.
    if not SMOKE:
        assert all(row[2] < SPLIT_TIME_LIMIT_S for row in rows)
    # The DP evaluated a deduplicated shape set, not every window.
    for row in rows:
        num_samples, evaluations = row[1], row[4]
        max_windows = num_samples * min(num_samples, 256)
        assert 0 < evaluations <= max_windows


# --------------------------------------------------------------------- DP solve


def bench_dp_solve(workload, cost_model, samples):
    """Median full-width vs width-bounded solve time on one mini-batch's table.

    Both recurrences solve the same window cost table; their solutions are
    asserted equal field by field.
    """
    batcher = DynamicMicroBatcher(cost_model, tmax_sample_count=16)
    ordered = order_samples(samples, batcher.ordering, decoder_only=batcher.decoder_only)
    table = batcher.build_window_cost_table(ordered)
    args = (
        len(ordered), cost_model.num_stages, table, batcher.sum_weight,
        batcher.max_microbatch_size, batcher.tmax_sample_count,
    )

    solvers = {"full": dp_oracle.solve_partition_table, "bounded": solve_partition}
    elapsed = {name: [] for name in solvers}
    solutions = {}
    # Alternate which recurrence runs first so host-speed drift hits both.
    for repeat in range(DP_SOLVE_REPEATS):
        for name in sorted(solvers, reverse=repeat % 2 == 1):
            start = time.perf_counter()
            solutions[name] = solvers[name](*args)
            elapsed[name].append(time.perf_counter() - start)
    full, bounded = solutions["full"], solutions["bounded"]
    assert bounded == full, f"{workload}: width-bounded solution differs from the oracle"
    full_s, bounded_s = (statistics.median(elapsed[name]) for name in ("full", "bounded"))
    return [
        workload,
        len(ordered),
        bounded.candidates_evaluated,
        round(full_s * 1e3, 3),
        round(bounded_s * 1e3, 3),
        round(full_s / bounded_s, 2),
        bounded.num_microbatches,
    ]


def run_dp_solve():
    cost_model = CostModel(
        BENCH_CONFIG, num_stages=4, max_profile_batch_size=128, max_profile_seq_len=2048
    )
    rows = [
        bench_dp_solve("gpt", cost_model, synthetic_minibatch(n, seed=n))
        for n in MINIBATCH_SIZES
    ]
    t5_cost_model = CostModel(
        BENCH_T5_CONFIG, num_stages=2, max_profile_batch_size=128, max_profile_seq_len=2048
    )
    samples = synthetic_minibatch(T5_MINIBATCH_SAMPLES, seed=5, encoder_decoder=True)
    rows.append(bench_dp_solve("t5", t5_cost_model, samples))
    return rows


DP_SOLVE_HEADERS = [
    "workload", "minibatch_samples", "tmax_candidates", "full_width_ms",
    "width_bounded_ms", "speedup", "num_microbatches",
]


@pytest.mark.tier2_bench
def test_dp_solve(benchmark, capsys):
    rows = benchmark.pedantic(run_dp_solve, rounds=1, iterations=1)
    emit(
        "planner_dp_solve",
        "DP solve per mini-batch (median ms): full-width recurrence (oracle) vs "
        "width-bounded recurrence (solutions asserted equal)",
        DP_SOLVE_HEADERS,
        rows,
        capsys,
    )
    if not SMOKE:
        for row in rows:
            assert row[5] >= DP_SOLVE_SPEEDUP_FLOOR, (
                f"{row[0]} ({row[1]} samples): width-bounded solve only {row[5]}x"
            )


# --------------------------------------------------------------------- pool


def run_pool():
    """Plan the same iteration set with 1 and 4 worker processes.

    Returns one row per worker count: wall-clock time from pool start to the
    last plan landing in the store, the CPU time the workers spent planning,
    and the ratio of the two (> 1 means real parallelism).
    """
    cost_model = CostModel(
        BENCH_CONFIG, num_stages=4, max_profile_batch_size=128, max_profile_seq_len=2048
    )
    planner = DynaPipePlanner(
        cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=16)
    )
    minibatches = [
        synthetic_minibatch(POOL_MINIBATCH_SAMPLES, seed=100 + i)
        for i in range(POOL_ITERATIONS)
    ]
    rows = []
    wall: dict[int, float] = {}
    stores: dict[int, InstructionStore] = {}
    for workers in POOL_WORKER_COUNTS:
        store = InstructionStore()
        pool = PlannerPool(
            planner=planner,
            minibatches=minibatches,
            store=store,
            num_workers=workers,
            lookahead=len(minibatches),
        )
        start = time.perf_counter()
        pool.start()
        deadline = start + 600
        while (
            len(pool.planned_iterations()) < len(minibatches)
            and time.perf_counter() < deadline
        ):
            time.sleep(0.005)
        elapsed = time.perf_counter() - start
        abandoned = pool.stop()
        assert not pool.errors, pool.errors
        assert not abandoned, abandoned
        wall[workers] = elapsed
        stores[workers] = store
        planning_cpu = sum(record.planning_time_s for record in pool.records)
        rows.append([workers, round(elapsed, 3), round(planning_cpu, 3),
                     round(planning_cpu / elapsed, 2)])

    # Correctness guards: every worker count produced plans that match
    # serial (in-process) planning bit for bit, for every iteration — the
    # later iterations are the ones planned under contention.
    for iteration, minibatch in enumerate(minibatches):
        reference = planner.plan(list(minibatch), iteration=iteration).plans[0].to_dict()
        for workers, store in stores.items():
            stored = store.fetch(iteration, 0)
            reference["metadata"]["planning_time_s"] = stored["metadata"]["planning_time_s"]
            assert stored == reference, (
                f"pooled plan (iteration {iteration}, {workers} workers) != serial plan"
            )

    speedup = wall[POOL_WORKER_COUNTS[0]] / wall[POOL_WORKER_COUNTS[-1]]
    rows.append(["speedup_4v1", round(speedup, 2), "", ""])
    return rows, speedup


POOL_HEADERS = ["workers", "wall_s", "planning_cpu_s", "parallelism"]


@pytest.mark.tier2_bench
def test_planner_pool_scaling(benchmark, capsys):
    rows, speedup = benchmark.pedantic(run_pool, rounds=1, iterations=1)
    emit(
        "planner_pool_scaling",
        "Planner pool: wall-clock planning time vs worker processes",
        POOL_HEADERS,
        rows,
        capsys,
    )
    # The paper's Fig. 17 overlap claim needs *real* parallel speed-up from
    # extra planner workers; single-core hosts (and the smoke mode) only run
    # the correctness guards inside run_pool().
    if not SMOKE and (os.cpu_count() or 1) >= 4:
        assert speedup >= POOL_SPEEDUP_FLOOR, (
            f"4 planner workers only {speedup:.2f}x faster than 1 "
            f"(need >= {POOL_SPEEDUP_FLOOR}x)"
        )
