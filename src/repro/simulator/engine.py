"""Compute-op level pipeline simulation.

Given a :class:`~repro.schedule.events.PipelineSchedule` and per-op
durations, the engine resolves the timing of every forward and backward pass
under the pipeline's data dependencies:

* an op must wait for the previous op on its own device (devices execute
  their schedule in order, one op at a time);
* a forward pass on stage ``j > 0`` must wait for the same micro-batch's
  forward on stage ``j - 1`` plus the activation transfer time;
* a backward pass on stage ``j < c-1`` must wait for the same micro-batch's
  backward on stage ``j + 1`` plus the gradient transfer time;
* the backward pass on the last stage follows its own forward pass.

Two engines implement this recurrence:

* the **vectorized** engine (default) compiles the schedule into a
  :class:`~repro.simulator.compiled.CompiledTimeline` — flat numpy arrays
  plus a precomputed dependency index — and solves it wave-by-wave in
  topological levels.  Compiled geometries are cached by schedule structure
  in one thread-safe process-wide LRU, shared with the planner's replica
  timelines (:func:`compile_stage_sequences`), so re-simulating the same
  geometry (order search, fleet iterations with unchanged plans) skips
  compilation entirely;
* the **scalar** engine is the original per-op Python event loop, kept as
  the bit-identity oracle.  Select it per call (``engine="scalar"``) or
  process-wide (``REPRO_SIM_ENGINE=scalar``).

The result contains the full timeline (used for safety-stock analysis and
communication planning), the makespan, per-device idle time and the peak
activation memory per device.  ``op_times`` and ``trace`` are materialized
lazily from the solver arrays on first access.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.obs.events import publish as _publish
from repro.schedule.events import ComputeOp, OpType, PipelineSchedule
from repro.simulator.compiled import (
    _STATS,
    CompiledTimeline,
    SimulationError,
    UnsupportedScheduleError,
    engine_stats,
    reset_engine_stats,
)
from repro.simulator.memory_tracker import MemoryTracker
from repro.simulator.trace import ExecutionTrace, TraceEvent

__all__ = [
    "CommTimeFn",
    "DurationFn",
    "SimulationError",
    "SimulationResult",
    "compile_schedule",
    "compile_stage_sequences",
    "engine_stats",
    "geometry_key",
    "reset_engine_stats",
    "simulate_schedule",
    "simulate_schedule_scalar",
    "timeline_result",
]

#: Duration provider: maps a compute op to milliseconds.
DurationFn = Callable[[ComputeOp], float]
#: Communication time provider: (microbatch, from_stage, to_stage, is_gradient) -> ms.
CommTimeFn = Callable[[int, int, int, bool], float]

#: Environment variable selecting the default engine ("vector" or "scalar").
ENGINE_ENV_VAR = "REPRO_SIM_ENGINE"


class SimulationResult:
    """Output of :func:`simulate_schedule`.

    Attributes:
        op_times: Mapping from compute op to its (start, end) time in ms.
        makespan_ms: Completion time of the last op.
        device_busy_ms: Total compute time per device.
        device_idle_ms: Idle (bubble) time per device within the makespan.
        peak_activation_bytes: Peak activation memory per device (excludes
            static memory unless the caller passes it via the tracker).
        trace: Flat execution trace for rendering / export.
        op_columns: ``(starts, ends)`` arrays in ``schedule.all_ops()``
            order when the result wraps a compiled-timeline solve, else
            ``None``.

    ``op_times`` may be built lazily from the vectorized solver's arrays
    (``materialize``), and ``trace`` lazily from ``op_times``; all other
    attributes are always materialized.
    """

    def __init__(
        self,
        op_times: dict[ComputeOp, tuple[float, float]] | None = None,
        makespan_ms: float = 0.0,
        device_busy_ms: list[float] | None = None,
        device_idle_ms: list[float] | None = None,
        peak_activation_bytes: list[float] | None = None,
        trace: ExecutionTrace | None = None,
        materialize: Callable[[], dict[ComputeOp, tuple[float, float]]] | None = None,
        op_columns: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.op_columns = op_columns
        self._op_times = op_times
        self._trace = trace
        self._materialize = materialize
        if materialize is None and self._op_times is None:
            self._op_times = {}
        self.makespan_ms = makespan_ms
        self.device_busy_ms = device_busy_ms if device_busy_ms is not None else []
        self.device_idle_ms = device_idle_ms if device_idle_ms is not None else []
        self.peak_activation_bytes = (
            peak_activation_bytes if peak_activation_bytes is not None else []
        )

    @property
    def op_times(self) -> dict[ComputeOp, tuple[float, float]]:
        if self._op_times is None:
            assert self._materialize is not None
            self._op_times = self._materialize()
            self._materialize = None
        return self._op_times

    @property
    def trace(self) -> ExecutionTrace:
        if self._trace is None:
            trace = ExecutionTrace()
            for op, (start, end) in self.op_times.items():
                trace.add(
                    TraceEvent(
                        device=op.stage,
                        name=f"{op.op_type.value}{op.microbatch}",
                        start_ms=start,
                        end_ms=end,
                        category="compute",
                        microbatch=op.microbatch,
                    )
                )
            self._trace = trace
        return self._trace

    @property
    def bubble_fraction(self) -> float:
        """Average fraction of the makespan devices spend idle."""
        if self.makespan_ms <= 0 or not self.device_idle_ms:
            return 0.0
        return sum(self.device_idle_ms) / (len(self.device_idle_ms) * self.makespan_ms)


def _zero_comm_time(microbatch: int, src: int, dst: int, is_gradient: bool) -> float:
    return 0.0


# ---------------------------------------------------------------- geometry cache

#: Process-wide LRU of compiled geometries keyed by :func:`geometry_key`.
#: Planner threads share it, so every access holds ``_GEOMETRY_LOCK``.
_GEOMETRY_CACHE: OrderedDict[tuple, CompiledTimeline] = OrderedDict()
_GEOMETRY_CACHE_MAX = 128
_GEOMETRY_LOCK = threading.Lock()


def geometry_key(sequences: Sequence[Sequence[int]]) -> tuple[bytes, ...]:
    """Hashable key of a geometry given as encoded per-stage sequences
    (``(microbatch << 1) | is_forward``): one int64 byte string per stage."""
    return tuple(np.asarray(sequence, dtype=np.int64).tobytes() for sequence in sequences)


def _structure_signature(schedule: PipelineSchedule) -> tuple:
    """:func:`geometry_key` of ``schedule``'s per-stage op sequences."""
    parts = []
    for stage_schedule in schedule.stages:
        encoded = np.fromiter(
            (
                (op.microbatch << 1) | (op.op_type is OpType.FORWARD)
                for op in stage_schedule.ops
            ),
            dtype=np.int64,
            count=len(stage_schedule.ops),
        )
        parts.append(encoded.tobytes())
    return tuple(parts)


def _cached_geometry(
    signature: tuple, compile_fn: Callable[[], CompiledTimeline]
) -> CompiledTimeline:
    """LRU lookup of ``signature``, compiling (outside the lock) on a miss."""
    with _GEOMETRY_LOCK:
        timeline = _GEOMETRY_CACHE.get(signature)
        if timeline is not None:
            _GEOMETRY_CACHE.move_to_end(signature)
            _STATS["geometry_cache_hits"] += 1
            return timeline
    compiled = compile_fn()
    with _GEOMETRY_LOCK:
        # A concurrent miss on the same key may have inserted an equal
        # geometry meanwhile; keep the first so callers share one object.
        timeline = _GEOMETRY_CACHE.setdefault(signature, compiled)
        _GEOMETRY_CACHE.move_to_end(signature)
        while len(_GEOMETRY_CACHE) > _GEOMETRY_CACHE_MAX:
            _GEOMETRY_CACHE.popitem(last=False)
    return timeline


def compile_stage_sequences(
    num_stages: int,
    sequences: Sequence[Sequence[int]],
    key: tuple[bytes, ...] | None = None,
) -> CompiledTimeline:
    """Compiled geometry of encoded per-stage sequences, from the shared LRU.

    Shares its cache with :func:`compile_schedule`: a schedule and its
    encoded sequences have the same key.  ``key`` is the sequences'
    :func:`geometry_key` when the caller has computed it already.
    """
    return _cached_geometry(
        key if key is not None else geometry_key(sequences),
        lambda: CompiledTimeline.from_stage_sequences(num_stages, sequences),
    )


def compile_schedule(schedule: PipelineSchedule) -> CompiledTimeline:
    """Compile ``schedule`` into a :class:`CompiledTimeline`, with caching.

    Two cache layers avoid recompilation: the compiled timeline is attached
    to the schedule object itself (same-object re-simulation, e.g. repeated
    fleet iterations over one plan), and a process-wide LRU keyed by the
    schedule *structure* catches structurally identical schedules built
    fresh each iteration.
    """
    cached = getattr(schedule, "_compiled_timeline", None)
    if cached is not None:
        _STATS["geometry_cache_hits"] += 1
        return cached
    timeline = _cached_geometry(
        _structure_signature(schedule), lambda: CompiledTimeline.from_schedule(schedule)
    )
    schedule._compiled_timeline = timeline  # cheap same-object memoization
    return timeline


def clear_geometry_cache() -> None:
    """Drop all cached compiled geometries (used by tests)."""
    with _GEOMETRY_LOCK:
        _GEOMETRY_CACHE.clear()


def timeline_result(
    schedule: PipelineSchedule,
    timeline: CompiledTimeline,
    starts: np.ndarray,
    ends: np.ndarray,
    makespan: float,
    peaks: list[float],
) -> SimulationResult:
    """Wrap one solve of ``schedule``'s compiled geometry as a result.

    Busy/idle come from the solve arrays now; ``op_times`` is built on
    first access, keyed by ``schedule``'s own compute ops (and the trace
    from it).
    """
    busy, idle = timeline.device_busy_idle(starts, ends, makespan)

    def materialize() -> dict[ComputeOp, tuple[float, float]]:
        return dict(zip(schedule.all_ops(), zip(starts.tolist(), ends.tolist())))

    return SimulationResult(
        makespan_ms=makespan,
        device_busy_ms=busy,
        device_idle_ms=idle,
        peak_activation_bytes=peaks,
        materialize=materialize,
        op_columns=(starts, ends),
    )


# ---------------------------------------------------------------- dispatcher


def simulate_schedule(
    schedule: PipelineSchedule,
    duration_fn: DurationFn | Mapping[ComputeOp, float],
    comm_time_fn: CommTimeFn | None = None,
    activation_bytes: Sequence[Sequence[float]] | None = None,
    static_bytes: Sequence[float] | None = None,
    engine: str | None = None,
) -> SimulationResult:
    """Simulate ``schedule`` and return its timeline.

    Args:
        schedule: The pipeline schedule to execute.
        duration_fn: Per-op durations, either as a callable or a mapping.
        comm_time_fn: Optional transfer time between adjacent stages;
            defaults to zero (communication fully overlapped / negligible).
        activation_bytes: Optional ``[microbatch][stage]`` activation sizes
            for memory accounting.
        static_bytes: Optional per-device static memory added to the tracker.
        engine: ``"vector"`` (default) or ``"scalar"``; overrides the
            ``REPRO_SIM_ENGINE`` environment variable.

    Returns:
        A :class:`SimulationResult`.
    """
    selected = engine or os.environ.get(ENGINE_ENV_VAR) or "vector"
    if selected == "scalar":
        return simulate_schedule_scalar(
            schedule, duration_fn, comm_time_fn, activation_bytes, static_bytes
        )
    if selected != "vector":
        raise ValueError(f"unknown simulation engine {selected!r}")
    try:
        timeline = compile_schedule(schedule)
    except UnsupportedScheduleError:
        # Degenerate schedules (duplicate ops) keep the scalar semantics.
        return simulate_schedule_scalar(
            schedule, duration_fn, comm_time_fn, activation_bytes, static_bytes
        )
    durations = timeline.durations_from(duration_fn, schedule)
    comm = timeline.comm_from(comm_time_fn) if comm_time_fn is not None else None
    solution = timeline.solve(durations, comm)
    makespan = solution.makespan_ms
    if activation_bytes is not None:
        peaks = timeline.peak_activation(activation_bytes, static_bytes)
    else:
        peaks = [
            (static_bytes[j] if static_bytes else 0.0) for j in range(schedule.num_stages)
        ]
    _STATS["vector_simulations"] += 1
    _publish("simulation", engine="vector", num_stages=schedule.num_stages, makespan_ms=makespan)
    return timeline_result(schedule, timeline, solution.starts, solution.ends, makespan, peaks)


# ---------------------------------------------------------------- scalar oracle


def _cross_stage_dependency(op: ComputeOp, num_stages: int) -> ComputeOp | None:
    """The op whose completion ``op`` waits for across stages (None for the
    pipeline entry: a forward pass on stage 0)."""
    if op.op_type is OpType.FORWARD:
        if op.stage == 0:
            return None
        return ComputeOp(op.microbatch, op.stage - 1, OpType.FORWARD)
    if op.stage == num_stages - 1:
        return ComputeOp(op.microbatch, op.stage, OpType.FORWARD)
    return ComputeOp(op.microbatch, op.stage + 1, OpType.BACKWARD)


def _no_progress_error(
    schedule: PipelineSchedule, pointers: list[int], num_stages: int
) -> SimulationError:
    """Build a diagnostic naming the first blocked op and its unmet dependency."""
    blocked = [
        schedule.stage(j).ops[pointers[j]]
        for j in range(num_stages)
        if pointers[j] < len(schedule.stage(j).ops)
    ]
    first = min(blocked, key=lambda op: op.stage)
    dependency = _cross_stage_dependency(first, num_stages)
    if dependency is None:  # pragma: no cover - entry ops are always runnable
        return SimulationError("simulation cannot make progress")
    if dependency in set(schedule.all_ops()):
        why = "cannot execute (circular or misordered schedule dependencies)"
    else:
        why = "never appears in the schedule"
    return SimulationError(
        f"simulation cannot make progress: {first} is blocked waiting for "
        f"{dependency}, which {why}"
    )


def simulate_schedule_scalar(
    schedule: PipelineSchedule,
    duration_fn: DurationFn | Mapping[ComputeOp, float],
    comm_time_fn: CommTimeFn | None = None,
    activation_bytes: Sequence[Sequence[float]] | None = None,
    static_bytes: Sequence[float] | None = None,
) -> SimulationResult:
    """Reference per-op event-loop engine (the vectorized engine's oracle)."""
    if isinstance(duration_fn, Mapping):
        durations: Mapping[ComputeOp, float] = duration_fn
        duration = lambda op: durations[op]  # noqa: E731 - small adapter
    else:
        duration = duration_fn
    comm_time = comm_time_fn or _zero_comm_time

    num_stages = schedule.num_stages
    op_times: dict[ComputeOp, tuple[float, float]] = {}
    pointers = [0] * num_stages
    device_clock = [0.0] * num_stages
    busy = [0.0] * num_stages
    trackers = [
        MemoryTracker(static_bytes=(static_bytes[j] if static_bytes else 0.0))
        for j in range(num_stages)
    ]
    trace = ExecutionTrace()

    def dependency_ready_time(op: ComputeOp) -> float | None:
        """Earliest time the cross-stage dependency of ``op`` is satisfied,
        or None if the dependency has not been simulated yet."""
        if op.op_type is OpType.FORWARD:
            if op.stage == 0:
                return 0.0
            dep = ComputeOp(op.microbatch, op.stage - 1, OpType.FORWARD)
            if dep not in op_times:
                return None
            return op_times[dep][1] + comm_time(op.microbatch, op.stage - 1, op.stage, False)
        if op.stage == num_stages - 1:
            dep = ComputeOp(op.microbatch, op.stage, OpType.FORWARD)
            if dep not in op_times:
                return None
            return op_times[dep][1]
        dep = ComputeOp(op.microbatch, op.stage + 1, OpType.BACKWARD)
        if dep not in op_times:
            return None
        return op_times[dep][1] + comm_time(op.microbatch, op.stage + 1, op.stage, True)

    total_ops = schedule.total_ops()
    scheduled = 0
    while scheduled < total_ops:
        progressed = False
        for stage in range(num_stages):
            stage_ops = schedule.stage(stage).ops
            while pointers[stage] < len(stage_ops):
                op = stage_ops[pointers[stage]]
                ready = dependency_ready_time(op)
                if ready is None:
                    break
                start = max(device_clock[stage], ready)
                end = start + max(duration(op), 0.0)
                op_times[op] = (start, end)
                device_clock[stage] = end
                busy[stage] += end - start
                pointers[stage] += 1
                scheduled += 1
                progressed = True
                if activation_bytes is not None:
                    if op.op_type is OpType.FORWARD:
                        trackers[stage].allocate(op.microbatch, activation_bytes[op.microbatch][stage])
                    else:
                        trackers[stage].free(op.microbatch)
                trace.add(
                    TraceEvent(
                        device=stage,
                        name=f"{op.op_type.value}{op.microbatch}",
                        start_ms=start,
                        end_ms=end,
                        category="compute",
                        microbatch=op.microbatch,
                    )
                )
        if not progressed:
            raise _no_progress_error(schedule, pointers, num_stages)

    makespan = max((end for _, end in op_times.values()), default=0.0)
    idle = [max(makespan - busy[j], 0.0) for j in range(num_stages)]
    peaks = [trackers[j].peak_bytes for j in range(num_stages)]
    _STATS["scalar_simulations"] += 1
    _publish("simulation", engine="scalar", num_stages=num_stages, makespan_ms=makespan)
    return SimulationResult(
        op_times=op_times,
        makespan_ms=makespan,
        device_busy_ms=busy,
        device_idle_ms=idle,
        peak_activation_bytes=peaks,
        trace=trace,
    )
