"""Closed-loop training workloads: one caller runs plan -> store -> execute.

Each iteration runs the path the planner pool and the fleet share:
``DynaPipePlanner.plan`` -> ``IterationPlan.to_dict`` ->
``InstructionStore.push``/``fetch`` -> ``TrainingSession.record_from_payload``
(which deserialises the plans and executes every replica on the ``sim``
backend).  The next iteration starts only when the previous one finished.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.backends.sim import SimBackend
from repro.comm.deadlock import check_comm_order
from repro.core import microbatch as microbatch_module
from repro.core import planner as planner_module
from repro.core.adaptive_schedule import AdaptiveScheduler
from repro.core.execution_plan import ExecutionPlan
from repro.core.microbatch import DynamicMicroBatcher
from repro.core.planner import DynaPipePlanner, IterationPlan, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.data.flan import SyntheticFlanDataset
from repro.data.sampler import MiniBatchSampler
from repro.instructions.store import InstructionStore
from repro.model.config import get_model_config
from repro.training.throughput import IterationRecord, TrainingReport
from repro.training.trainer import TrainerConfig, TrainingSession

from harness import HostSpeed, Outcome, SetupTimer, timing_metrics
from spans import Tracer

#: Table-1 cluster size the model configurations are taken from.
NUM_GPUS = 8
GLOBAL_BATCH_TOKENS = 65_536
MAX_SEQ_LEN = 2048
NOISE_STD = 0.05
#: Synthetic FLAN samples per dataset (about 93 mini-batches per epoch;
#: later epochs reshuffle).
DATASET_SAMPLES = 20_000
#: Every run times at least this many iterations, whatever ``--seconds``
#: says: the p90 then has >= 10 samples beyond it, and the output digest and
#: the simulated throughput cover the same iterations on every run.
MIN_ITERATIONS = 100
SETUP_REPEATS = 5


@dataclass(frozen=True)
class TrainingWorkload:
    arch: str
    pipeline: int
    data_parallel: int
    order_search: bool


WORKLOADS = {
    "gpt-pp4-search": TrainingWorkload("gpt", pipeline=4, data_parallel=2, order_search=True),
    "t5-pp2-recompute": TrainingWorkload("t5", pipeline=2, data_parallel=4, order_search=False),
}


class Pipeline:
    """Cost model, planner, dataset, session and store of one training job."""

    def __init__(self, workload: TrainingWorkload, seed: int) -> None:
        self.cost_model = CostModel(
            get_model_config(workload.arch, NUM_GPUS),
            num_stages=workload.pipeline,
            tensor_parallel=1,
            zero_shards=workload.data_parallel,
            max_profile_seq_len=MAX_SEQ_LEN,
            max_profile_batch_size=128,
        )
        self.planner = DynaPipePlanner(
            self.cost_model,
            data_parallel_size=workload.data_parallel,
            config=PlannerConfig(order_search=workload.order_search, tmax_sample_count=16),
        )
        dataset = SyntheticFlanDataset(num_samples=DATASET_SAMPLES, seed=seed)
        self.session = TrainingSession(
            self.planner,
            dataset.samples,
            global_batch_tokens=GLOBAL_BATCH_TOKENS,
            config=TrainerConfig(
                max_iterations=None, noise_std=NOISE_STD, seed=seed, max_seq_len=MAX_SEQ_LEN
            ),
        )
        self.store = InstructionStore()
        # The session's own shuffle, epoch after epoch, without the
        # under-full tail batch of each epoch: a tail with fewer samples
        # than data-parallel replicas has no feasible plan.
        self._sampler = MiniBatchSampler(
            self.session.samples, GLOBAL_BATCH_TOKENS, seed=seed, drop_last=True
        )
        self._minibatches = self._stream()
        self.index = -1

    def _stream(self) -> Iterator[list]:
        for epoch in itertools.count():
            for minibatch in self._sampler.epoch(epoch):
                yield minibatch.samples

    def step(self) -> tuple[IterationPlan, dict, IterationRecord]:
        """Plan, store, fetch and execute the next mini-batch."""
        self.index += 1
        index = self.index
        samples = next(self._minibatches)
        plan = self.planner.plan(samples, iteration=index)
        payload = plan.to_dict()
        for rank, replica in enumerate(payload["replicas"]):
            self.store.push(index, rank, replica)
        fetched = dict(
            payload,
            replicas=[self.store.fetch(index, rank) for rank in range(len(payload["replicas"]))],
        )
        record, _stats = self.session.record_from_payload(index, fetched)
        return plan, fetched, record


def check(pipeline: Pipeline, payload: dict, record: IterationRecord) -> list[str]:
    """Correctness problems of one executed iteration (empty when correct).

    Execution already raised if a replica deadlocked; this checks the stored
    payloads and the measured memory.
    """
    problems = []
    for replica in payload["replicas"]:
        plan = ExecutionPlan.from_dict(replica)
        if plan.to_dict() != replica:
            problems.append("plan payload does not survive from_dict/to_dict")
        if not check_comm_order(plan.device_instructions).consistent:
            problems.append("inconsistent communication order")
    if record.measured_peak_bytes > pipeline.planner.device_memory_bytes:
        problems.append("measured peak memory exceeds device memory")
    return problems


def digest_entry(plan: IterationPlan, payload: dict, record: IterationRecord) -> bytes:
    """Timing-free outputs of one iteration, as canonical JSON."""
    replicas = []
    for replica in payload["replicas"]:
        metadata = {k: v for k, v in replica["metadata"].items() if k != "planning_time_s"}
        replicas.append(dict(replica, metadata=metadata))
    entry = {
        "boundaries": plan.dp_solution.boundaries,
        "replicas": replicas,
        "predicted_ms": record.predicted_ms,
        "measured_ms": record.measured_ms,
    }
    return json.dumps(entry, sort_keys=True).encode()


def build_tracer() -> Tracer:
    """Spans around every layer the iteration pipeline calls into."""
    tracer = Tracer()
    tracer.wrap(DynaPipePlanner, "plan", "plan")
    tracer.wrap(DynamicMicroBatcher, "split_with_solution", "dp_split")
    tracer.wrap(DynamicMicroBatcher, "build_window_cost_table", "window_table")
    tracer.wrap(CostModel, "window_costs_arrays", "cost_query", count=lambda a, r: len(a[1]))
    tracer.wrap(microbatch_module, "solve_partition", "dp_solve")
    tracer.wrap(planner_module, "karmarkar_karp_partition", "replica_balance")
    tracer.wrap(AdaptiveScheduler, "build", "schedule_build")
    tracer.wrap(planner_module, "simulate_schedule", "timeline_sim")
    tracer.wrap(planner_module, "cluster_and_order", "order_search", count=lambda a, r: r.evaluated)
    tracer.wrap(
        planner_module,
        "build_instruction_streams",
        "lowering",
        count=lambda a, r: sum(len(stream) for stream in r),
    )
    tracer.wrap(IterationPlan, "to_dict", "plan_serialize")
    tracer.wrap(InstructionStore, "push", "store")
    tracer.wrap(InstructionStore, "fetch", "store")
    tracer.wrap(ExecutionPlan, "from_dict", "plan_deserialize")
    tracer.wrap(
        SimBackend, "run", "execute", count=lambda a, r: sum(len(stream) for stream in a[1])
    )
    return tracer


def _timed_step(pipeline: Pipeline, tracer: Tracer | None = None):
    """One iteration: (result or None if it raised, start, end)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = pipeline.step()
        else:
            tracer.unit = pipeline.index + 1
            with tracer.installed(), tracer.span("iteration"):
                result = pipeline.step()
    except Exception:  # a failed iteration is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        result = None
    end = time.perf_counter()
    # Consumed plans leave the store, as an executor evicts them.
    pipeline.store.evict_iteration(pipeline.index)
    return result, start, end


def _ready_pipeline(workload: TrainingWorkload, seed: int) -> Pipeline:
    pipeline = Pipeline(workload, seed)
    # Lazy set-up (cost-model profiling, caches) finishes on the first
    # iteration, which counts as set-up and is not timed.
    pipeline.step()
    pipeline.store.evict_iteration(pipeline.index)
    return pipeline


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    workload = WORKLOADS[name]
    host = HostSpeed()
    setup = SetupTimer(
        lambda: _ready_pipeline(workload, seed), seconds, 1 if trace else SETUP_REPEATS, host
    )
    pipeline = setup.time()
    if trace:
        # A twin pipeline fed the same inputs runs each iteration traced,
        # next to the untraced one (alternating which goes first): both see
        # identical cache states, so the pairwise time difference is the
        # tracing overhead.
        traced = _ready_pipeline(workload, seed)
        tracer = build_tracer()

    intervals: list[tuple[float, float]] = []
    traced_s = 0.0
    records: list[IterationRecord] = []
    tokens = 0
    attempted = failed = 0
    digest = hashlib.sha256()
    started = time.perf_counter()
    while attempted < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        setup.poll(time.perf_counter() - started)
        attempted += 1
        if trace and attempted % 2 == 0:
            twin, twin_start, twin_end = _timed_step(traced, tracer)
        if not trace:
            host.calibrate()
        result, start, end = _timed_step(pipeline)
        if trace and attempted % 2 == 1:
            twin, twin_start, twin_end = _timed_step(traced, tracer)
        if result is None or (trace and twin is None):
            failed += 1
            continue
        plan, payload, record = result
        problems = check(pipeline, payload, record)
        if trace and digest_entry(*twin) != digest_entry(plan, payload, record):
            problems.append("traced iteration differs from the untraced one")
        if problems:
            print(f"iteration {pipeline.index}: {'; '.join(problems)}", file=sys.stderr)
            failed += 1
            continue
        intervals.append((start, end))
        if trace:
            traced_s += twin_end - twin_start
        tokens += record.actual_tokens
        if len(records) < MIN_ITERATIONS:
            records.append(record)
            digest.update(digest_entry(plan, payload, record))
    if not intervals:
        raise RuntimeError("no iteration completed")

    report = TrainingReport(system=name, records=records)
    detail = {
        "iterations_timed": len(intervals),
        "digest_iterations": len(records),
        "output_digest": digest.hexdigest(),
        "recompute_modes": sorted({record.recompute for record in records}),
        "pred_error_pct": report.time_prediction_error_percent(),
    }
    starts, ends = np.array(intervals).T
    if trace:
        return Outcome(
            attempted,
            failed,
            {
                "trace_overhead_pct": 100.0 * (traced_s / float((ends - starts).sum()) - 1.0),
                "pred_error_pct": detail["pred_error_pct"],
            },
            detail,
            tracer,
        )
    setup_s, raw_setup_s = setup.finish()
    metrics, raw = timing_metrics(host, starts, ends, tokens)
    metrics["sim_tokens_per_s"] = report.throughput_tokens_per_s
    metrics["setup_s"] = setup_s
    detail["raw"] = dict(raw, setup_s=raw_setup_s, reference_ms=host.reference_ms)
    return Outcome(attempted, failed, metrics, detail)
