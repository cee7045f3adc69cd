"""Tier-2 benchmark of execution-backend overhead: sim vs local.

Runs identical planner-style instruction streams through the simulator
oracle and the real multiprocess local backend, and reports a Fig. 7-style
row per pipeline geometry:

* ``sim_s`` — wall time of the discrete-event run (virtual time inside),
* ``local_s`` — wall time of the real run (process spawn + IPC + matching),
* ``overhead_x`` — how many times slower the real execution is, and
* ``conformant`` — whether the two backends' conformance fingerprints
  (per-device completion order, per-channel matching order, completed
  transfer set) were identical — asserted, so the benchmark doubles as an
  end-to-end conformance check on larger streams than the unit suite uses.

The local backend's wall time is dominated by worker startup, so the
interesting signal is how the overhead *scales* with stream size: matching
itself is cheap and the per-geometry times should grow far slower than the
instruction count.

A second, sim-only table times the execution hot path on one planned
GPT-6.7B pp4 replica plan and one planned T5-11B pp2 replica plan (FULL
recomputation): the scalar oracle loop driven by the per-instruction
ground-truth closures (``tests/oracles``) against the integer-coded
executor driven by the per-replica :class:`~repro.simulator.ground_truth.
GroundTruth` tables.  Both sides decode the same stored payload (the
column decode is timed once; the oracle's run includes building the
instruction objects it needs) and run with the same noise seed; every
result field (makespan, per-device finish/busy/peak, transfer log, trace)
is asserted equal.

Run with ``pytest benchmarks/bench_backend_overhead.py --benchmark-disable
-s`` (or ``pytest benchmarks/ -m tier2_bench``).  Set
``REPRO_BENCH_SMOKE=1`` for the reduced tier-1 smoke workload.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

import pytest

from repro.backends import BackendOptions, get_backend
from repro.cluster.device import SimulatedGPU
from repro.comm.planner import build_instruction_streams
from repro.comm.shapes import TransferShapes
from repro.core.execution_plan import ExecutionPlan
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.data.flan import SyntheticFlanDataset
from repro.data.sampler import MiniBatchSampler
from repro.data.truncation import truncate_samples
from repro.model.config import get_model_config
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.cyclic import cyclic_schedule
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.engine import simulate_schedule

from common import emit

# The reference implementations live with the tests that diff against them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.ground_truth import closure_backend_options  # noqa: E402
from oracles.instruction_executor import ScalarInstructionExecutor  # noqa: E402
from repro.simulator.executor import InstructionExecutor  # noqa: E402
from repro.simulator.ground_truth import GroundTruth  # noqa: E402

#: Reduced workload + no timing asserts (used as a tier-1 smoke check).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

#: (label, schedule builder) per benchmarked geometry.
if SMOKE:
    GEOMETRIES = [
        ("1f1b 2st x 4mb", lambda: one_f_one_b_schedule(2, 4)),
        ("1f1b 4st x 8mb", lambda: one_f_one_b_schedule(4, 8)),
    ]
else:
    GEOMETRIES = [
        ("1f1b 2st x 8mb", lambda: one_f_one_b_schedule(2, 8)),
        ("1f1b 4st x 16mb", lambda: one_f_one_b_schedule(4, 16)),
        ("1f1b 4st x 32mb", lambda: one_f_one_b_schedule(4, 32)),
        (
            "cyclic 4st x 16mb",
            lambda: cyclic_schedule(
                4, [[1.0] * 4 for _ in range(16)], memory_limits=[8.0] * 4
            ),
        ),
    ]

HEADERS = ["geometry", "instructions", "transfers", "sim_s", "local_s", "overhead_x", "conformant"]

SHAPE = MicroBatchShape(batch_size=1, enc_seq_len=64)

#: Generous watchdog knobs: the streams are deadlock-free by construction,
#: so these only bound how long a regression could hang the benchmark.
LOCAL_KWARGS = dict(block_report_s=1.0, grace_s=0.4, timeout_s=120.0, poll_s=0.01)


def planned_streams(schedule):
    shapes = [SHAPE] * schedule.num_microbatches
    transfer_shapes = TransferShapes(
        activation_bytes=[[256.0] * schedule.num_stages for _ in shapes],
        gradient_bytes=[[256.0] * schedule.num_stages for _ in shapes],
    )
    sim = simulate_schedule(schedule, lambda op: 1.0)
    return build_instruction_streams(schedule, sim.op_times, shapes, transfer_shapes)


def bench_geometry(label: str, schedule) -> list:
    streams = planned_streams(schedule)
    num_instructions = sum(len(stream) for stream in streams)
    options = BackendOptions(
        compute_duration_fn=lambda instr: 1.0,
        transfer_time_fn=lambda nbytes, src, dst: 0.1,
    )

    started = time.perf_counter()
    sim_report = get_backend("sim", options).run_report(streams)
    sim_s = time.perf_counter() - started

    started = time.perf_counter()
    local_report = get_backend("local", options, **LOCAL_KWARGS).run_report(streams)
    local_s = time.perf_counter() - started

    conformant = (
        local_report.conformance_fingerprint() == sim_report.conformance_fingerprint()
    )
    assert conformant, f"{label}: local backend diverged from the simulator"
    assert local_report.payload_errors == 0, f"{label}: corrupted payloads"
    overhead = local_s / sim_s if sim_s > 0 else float("inf")
    return [
        label,
        num_instructions,
        len(sim_report.result.transfer_log),
        round(sim_s, 5),
        round(local_s, 5),
        round(overhead, 1),
        conformant,
    ]


@pytest.mark.tier2_bench
def test_backend_overhead(benchmark, capsys):
    def run():
        return [bench_geometry(label, build()) for label, build in GEOMETRIES]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "backend_overhead",
        "Execution-backend overhead: identical planned streams on the simulator "
        "oracle vs the real multiprocess backend (fingerprints asserted equal)",
        HEADERS,
        rows,
        capsys,
    )
    # Ordering conformance is asserted per geometry above; the only timing
    # claim worth enforcing is that real execution stays within a sane
    # multiple of the simulation on the largest stream (process startup
    # dominates, so small streams are allowed to look arbitrarily bad).
    if not SMOKE:
        largest = rows[-2]  # 1f1b 4st x 32mb
        assert largest[4] < 30.0, f"local backend took {largest[4]}s on {largest[0]}"


# ------------------------------------------------------------ sim hot path

#: (label, arch, pipeline stages, data-parallel replicas, recompute mode).
HOT_PATH_PLANS = [
    ("gpt-6.7b pp4", "gpt", 4, 2, None),
    ("t5-11b pp2 full", "t5", 2, 4, RecomputeMode.FULL),
]
HOT_PATH_TOKENS = 16_384 if SMOKE else 65_536
HOT_PATH_SEQ_LEN = 1024 if SMOKE else 2048
HOT_PATH_ROUNDS = 3 if SMOKE else 15
HOT_PATH_HEADERS = [
    "plan", "instructions", "decode_ms", "oracle_run_ms", "run_ms", "speedup_x", "equal",
]


def replica_payload(arch: str, pipeline: int, data_parallel: int, mode) -> tuple[CostModel, dict]:
    """The cost model and the stored payload of replica 0 of one planned
    mini-batch."""
    cost_model = CostModel(
        get_model_config(arch, 8),
        num_stages=pipeline,
        zero_shards=data_parallel,
        max_profile_seq_len=HOT_PATH_SEQ_LEN,
        max_profile_batch_size=128,
    )
    planner = DynaPipePlanner(
        cost_model,
        data_parallel_size=data_parallel,
        config=PlannerConfig(
            order_search=False,
            tmax_sample_count=16,
            dynamic_recompute=mode is None,
            recompute=mode or RecomputeMode.NONE,
        ),
    )
    samples = truncate_samples(
        SyntheticFlanDataset(num_samples=2000, seed=0).samples,
        HOT_PATH_SEQ_LEN,
        decoder_only=arch == "gpt",
    )
    minibatch = next(iter(MiniBatchSampler(samples, HOT_PATH_TOKENS, seed=0).epoch(0)))
    payload = planner.plan(minibatch.samples).plans[0].to_dict()
    return cost_model, payload


def outcome(result) -> tuple:
    return (
        result.makespan_ms,
        result.device_finish_ms,
        result.device_compute_ms,
        result.peak_memory_bytes,
        result.transfer_log,
        result.trace.events,
    )


def bench_hot_path(label: str, arch: str, pipeline: int, data_parallel: int, mode) -> list:
    cost_model, payload = replica_payload(arch, pipeline, data_parallel, mode)
    truth = GroundTruth(cost_model)

    def noisy_gpu():
        return SimulatedGPU(cost_model.device_spec, noise_std=0.05, seed=11)

    def oracle(plan):
        options = closure_backend_options(cost_model, noisy_gpu(), truth.network)
        return ScalarInstructionExecutor(
            options.compute_duration_fn,
            options.transfer_time_fn,
            options.activation_bytes_fn,
            options.static_bytes,
        ).run(plan.device_instructions)

    def current(plan):
        options = truth.backend_options(plan.streams, noisy_gpu())
        return InstructionExecutor(
            options.compute_duration_fn,
            options.transfer_time_fn,
            options.activation_bytes_fn,
            options.static_bytes,
        ).run(plan.streams)

    decode, oracle_run, run = [], [], []
    for _ in range(HOT_PATH_ROUNDS):
        started = time.perf_counter()
        plan = ExecutionPlan.from_dict(payload)
        decode.append(time.perf_counter() - started)
        started = time.perf_counter()
        expected = oracle(plan)
        oracle_run.append(time.perf_counter() - started)
        started = time.perf_counter()
        actual = current(plan)
        run.append(time.perf_counter() - started)
        equal = outcome(actual) == outcome(expected)
        assert equal, f"{label}: the executor diverged from the scalar oracle"
    decode_ms, oracle_ms, run_ms = (
        statistics.median(times) * 1e3 for times in (decode, oracle_run, run)
    )
    return [
        label,
        plan.total_instructions(),
        round(decode_ms, 3),
        round(oracle_ms, 3),
        round(run_ms, 3),
        round(oracle_ms / run_ms, 2) if run_ms > 0 else float("inf"),
        equal,
    ]


@pytest.mark.tier2_bench
def test_sim_execution_hot_path(benchmark, capsys):
    def run():
        return [bench_hot_path(*spec) for spec in HOT_PATH_PLANS]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "sim_execution_hot_path",
        "Sim execution hot path per replica plan (median ms): decode, scalar "
        "oracle + per-call closures vs integer-coded executor + per-replica "
        "ground truth (results asserted equal)",
        HOT_PATH_HEADERS,
        rows,
        capsys,
    )
    if not SMOKE:
        for row in rows:
            assert row[5] > 1.5, f"{row[0]}: executor only {row[5]}x the oracle"
