"""Trace-replay workload: the fleet scheduler over a generated 1000-job trace.

Arrivals, failures and repairs follow the trace's simulated clock; the host
processes the resulting event stream as fast as it can, so the timed quantity
is the scheduler's own processing speed.  Jobs plan with
``SyntheticTracePlanner``: no DP, schedule or lowering runs, only the
scheduler, its admission policy, the gang allocator and job stepping.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import asdict

from repro.fleet.scheduler import FleetConfig, FleetScheduler
from repro.fleet.session import JobExecution
from repro.fleet.workloads import build_scheduler, generate_trace

from harness import HostSpeed, Outcome, SetupTimer, timing_metrics
from spans import Tracer

TRACE_ARGS = dict(
    num_jobs=1000,
    num_nodes=128,
    gpus_per_node=8,
    base_rate_per_s=40.0,
    min_iterations=4,
    max_iterations=16,
    storm_rate_per_s=0.5,
    num_rack_outages=2,
)
POLICY = "priority"
#: Distinct traces per run, derived from the run's seed.  An untraced run
#: replays each at least once, a traced run the first two (each twice); the
#: simulated metrics and the digest cover exactly these, so they do not
#: depend on how many replays fit in the time budget.
TRACES_PER_RUN = 4
TRACED_MIN_REPLAYS = 2
SETUP_REPEATS = 5
#: Host-speed calibration interval inside an untraced replay.
CALIBRATE_EVERY_S = 0.25


class _Replay:
    """One scheduler run, timed event by event.

    The scheduler's ``on_event`` hook fires at the top of every event-loop
    iteration.  It stamps the boundary and, given a :class:`HostSpeed`, times
    the reference kernel every :data:`CALIBRATE_EVERY_S`.  Event k lasts from
    the end of hook k to the start of hook k+1 (or the end of the run), so
    calibrations stay outside every timed event.
    """

    def __init__(self, trace, tracer: Tracer | None = None, host: HostSpeed | None = None) -> None:
        self.tracer = tracer
        self.host = host
        self._entries: list[float] = []
        self._exits: list[float] = []
        self._calibrated = 0.0
        config = FleetConfig(policy=POLICY, on_event=self._boundary)
        self.scheduler: FleetScheduler = build_scheduler(trace, config=config)

    def _boundary(self, _scheduler: FleetScheduler) -> None:
        now = time.perf_counter()
        self._entries.append(now)
        if self.host is not None and now - self._calibrated >= CALIBRATE_EVERY_S:
            self.host.calibrate()
            now = self._calibrated = time.perf_counter()
        self._exits.append(now)

    def run(self):
        """Run the scheduler; returns its report.

        Sets ``seconds`` (wall time of ``FleetScheduler.run``) and
        ``event_starts``/``event_ends``.
        """
        if self.host is not None:
            self.host.calibrate()
        start = self._calibrated = time.perf_counter()
        if self.tracer is None:
            report = self.scheduler.run()
        else:
            with self.tracer.installed(), self.tracer.span("replay"):
                report = self.scheduler.run()
        end = time.perf_counter()
        self.seconds = end - start
        self.event_starts = self._exits
        self.event_ends = self._entries[1:] + [end]
        return report


def committed_tokens(scheduler: FleetScheduler) -> int:
    """Real tokens of every committed job iteration."""
    return sum(record.training_report().total_actual_tokens for record in scheduler.jobs.values())


def outcome_digest(report) -> str:
    """sha256 over the fleet summary and every job's outcome."""
    payload = {"summary": report.summary(), "jobs": [asdict(job) for job in report.jobs]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def build_tracer(scheduler: FleetScheduler) -> Tracer:
    """Spans around the policy, allocator and job-step calls of ``scheduler``'s classes."""
    tracer = Tracer()
    tracer.wrap(type(scheduler.policy), "order", "fleet.policy_order")
    allocator = type(scheduler.allocator)
    tracer.wrap(
        allocator,
        "allocate",
        "fleet.gang_alloc",
        count=lambda a, r: int(r is not None),
        key=lambda a: a[1],
    )
    tracer.wrap(allocator, "release", "fleet.gang_release", key=lambda a: a[1].job)
    tracer.wrap(JobExecution, "step", "fleet.job_step", key=lambda a: a[0].job_name)
    return tracer


def _traces(seed: int) -> list:
    """Set-up of a fleet run: generate its traces and build one scheduler."""
    traces = [
        generate_trace(seed=seed * TRACES_PER_RUN + k, **TRACE_ARGS)
        for k in range(TRACES_PER_RUN)
    ]
    _Replay(traces[0])
    return traces


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    host = HostSpeed()
    setup = SetupTimer(lambda: _traces(seed), seconds, 1 if trace else SETUP_REPEATS, host)
    traces = setup.time()
    tracer = build_tracer(_Replay(traces[0]).scheduler) if trace else None

    digests: list[str | None] = [None] * len(traces)
    # Simulated outcome of each distinct trace, from its first replay.
    outcomes: list[dict] = []
    starts: list[float] = []
    ends: list[float] = []
    wall_s = traced_s = 0.0
    tokens = evictions = replays = 0
    attempted = failed = 0
    min_replays = TRACED_MIN_REPLAYS if trace else len(traces)
    started = time.perf_counter()
    while attempted < min_replays or time.perf_counter() - started < seconds:
        setup.poll(time.perf_counter() - started)
        index = attempted % len(traces)
        attempted += 1
        # Each replay starts from a collected heap, not with the last one's garbage.
        gc.collect()
        try:
            if trace:
                # The same trace twice, untraced and traced; which of the
                # two goes first alternates.
                tracer.unit = attempted - 1
                replay, twin = _Replay(traces[index]), _Replay(traces[index], tracer)
                if attempted % 2 == 0:
                    twin_report = twin.run()
                report = replay.run()
                if attempted % 2 == 1:
                    twin_report = twin.run()
            else:
                replay = _Replay(traces[index], host=host)
                report = replay.run()
        except Exception:  # a failed replay is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        problems = []
        if report.finished_jobs + report.failed_jobs != len(traces[index].jobs):
            problems.append("jobs neither finished nor failed")
        digest = outcome_digest(report)
        replay_tokens = committed_tokens(replay.scheduler)
        if digests[index] is None:
            digests[index] = digest
            outcomes.append(
                {
                    "util_pct": 100.0 * report.device_utilization,
                    "mean_queue_s": report.mean_queueing_delay_ms / 1e3,
                    "evictions": report.total_evictions,
                    "events": report.events_processed,
                    "makespan_s": report.makespan_ms / 1e3,
                    "tokens": replay_tokens,
                }
            )
        elif digest != digests[index]:
            problems.append("replay of the same trace gave another outcome")
        if trace and outcome_digest(twin_report) != digest:
            problems.append("traced replay differs from the untraced one")
        if problems:
            print(f"replay {attempted - 1}: {'; '.join(problems)}", file=sys.stderr)
            failed += 1
            continue
        replays += 1
        starts += replay.event_starts
        ends += replay.event_ends
        wall_s += replay.seconds
        tokens += replay_tokens
        if trace:
            traced_s += twin.seconds
            evictions += report.total_evictions
    if not replays:
        raise RuntimeError("no replay completed")

    detail = {
        "replays_timed": replays,
        "output_digest": hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest(),
        "fleet_util_pct": statistics.fmean(o["util_pct"] for o in outcomes),
        "fleet_mean_queue_s": statistics.fmean(o["mean_queue_s"] for o in outcomes),
        "fleet_evictions": statistics.fmean(o["evictions"] for o in outcomes),
        "events_per_replay": statistics.fmean(o["events"] for o in outcomes),
    }
    if trace:
        return Outcome(
            attempted,
            failed,
            {
                "trace_overhead_pct": 100.0 * (traced_s / wall_s - 1.0),
                "fleet.evictions": evictions / replays,
            },
            detail,
            tracer,
        )
    setup_s, raw_setup_s = setup.finish()
    metrics, raw = timing_metrics(host, starts, ends, tokens)
    metrics["sim_tokens_per_s"] = sum(o["tokens"] for o in outcomes) / sum(
        o["makespan_s"] for o in outcomes
    )
    metrics["setup_s"] = setup_s
    detail["fleet_events_per_s"] = metrics["iters_per_s"]
    detail["raw"] = dict(raw, setup_s=raw_setup_s, reference_ms=host.reference_ms)
    return Outcome(attempted, failed, metrics, detail)
