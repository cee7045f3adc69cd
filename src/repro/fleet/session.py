"""Per-attempt job execution: stepping a training session under fleet control.

A :class:`JobExecution` owns one attempt of one job on an allocated gang.
It builds the attempt's planner for the gang's (possibly shrunk) replica
count, constructs a :class:`~repro.training.trainer.TrainingSession` resumed
at the job's checkpoint boundary, and exposes the epoch one iteration at a
time so the fleet clock can interleave jobs and inject failures at
iteration granularity.

Planning can run inline, through a private per-attempt
:class:`~repro.runtime.planner_pool.PlannerPool`, or — the paper's
"planning cluster" — through a **fleet-wide shared pool** owned by the
scheduler: the attempt registers a uniquely named job stream
(``submit_job``), its plans land in the shared
:class:`~repro.instructions.store.InstructionStore` under
``(job, iteration, replica)`` keys, and :meth:`JobExecution.close` retires
exactly that stream (draining only its queued tasks) so a preemption never
perturbs co-tenant jobs.

``close()`` is the single teardown contract for *every* way an attempt can
end — finishing its epoch, a mid-iteration device failure, a planning
failure, a graceful priority eviction or an elastic regrowth at an
iteration boundary — and it is idempotent; the scheduler guarantees it runs
exactly once per attempt.  Either way, every planning failure — an
out-of-memory plan, a DP partition error, a
:class:`~repro.instructions.store.PlanFailedError` marker pushed by a pool
worker, or a corrupt plan payload
(:class:`~repro.instructions.serialization.PlanPayloadError`) — surfaces as a :class:`JobPlanningError` within one step, which the
scheduler converts into a bounded job-level retry instead of a hang.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.batching.metrics import PaddingStats
from repro.core.dp_solver import PartitionError
from repro.core.recomputation import OutOfMemoryError
from repro.instructions.serialization import PlanPayloadError
from repro.instructions.store import PlanFailedError
from repro.obs.spans import span as _span
from repro.runtime.planner_pool import PlannerPool
from repro.schedule.cyclic import ScheduleDeadlockError
from repro.training.throughput import IterationRecord
from repro.training.trainer import TrainingSession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.fleet.gang import DeviceGang
    from repro.fleet.job import JobRecord

#: Exceptions that mean "this attempt cannot produce a plan" (as opposed to
#: programming errors, which should propagate).
_PLANNING_ERRORS = (
    PlanFailedError,
    PlanPayloadError,
    OutOfMemoryError,
    PartitionError,
    ScheduleDeadlockError,
)


class JobPlanningError(RuntimeError):
    """Planning for a job attempt failed; the scheduler retries or fails the job."""


class JobExecution:
    """One attempt of a job, stepped iteration by iteration.

    Args:
        record: The job being attempted (checkpoint decides the resume point).
        gang: The allocated device gang (its ``data_parallel`` sizes the
            planner).
        planner_processes: When > 0, plan through a
            :class:`~repro.runtime.planner_pool.PlannerPool` with that many
            workers — a private pool started lazily on the first step, or
            the ``shared_pool`` if one is given.
        planner_lookahead: Plan-ahead window of the pooled mode.
        planner_backend: Pool backend (``"process"`` or ``"thread"``);
            ignored when ``shared_pool`` is given (the pool was built with
            its own backend).
        planner_timeout_s: Per-iteration wait bound of the pooled mode.
        shared_pool: The fleet-wide planning cluster.  When set (and
            ``planner_processes > 0``) the attempt registers a uniquely
            named job stream on it instead of spawning a private pool —
            worker spawn is amortised across every job of the fleet.

    Raises:
        JobPlanningError: If the attempt's planner cannot even be built
            (e.g. static memory exceeds the device under this gang shape).
    """

    def __init__(
        self,
        record: "JobRecord",
        gang: "DeviceGang",
        planner_processes: int = 0,
        planner_lookahead: int = 4,
        planner_backend: str = "process",
        planner_timeout_s: float = 600.0,
        shared_pool: PlannerPool | None = None,
    ) -> None:
        spec = record.spec
        self.job_name = spec.name
        self.start_iteration = record.checkpoint.completed_iterations
        self._timeout_s = planner_timeout_s
        try:
            planner = spec.build_planner(gang.data_parallel)
        except _PLANNING_ERRORS as error:
            raise JobPlanningError(
                f"job {spec.name}: cannot build planner for dp={gang.data_parallel}: {error}"
            ) from error
        self.session = TrainingSession(
            planner,
            spec.samples,
            global_batch_tokens=spec.global_batch_tokens,
            config=spec.trainer_config(self.start_iteration),
            system_name=spec.name,
        )
        self.minibatches = self.session.epoch_minibatches()
        self._position = 0
        self._pool: PlannerPool | None = None
        self._pool_started = False
        self._workers_spawned = 0
        self._shared_pool: PlannerPool | None = None
        #: Sticky degradation latch: once every worker of the attempt's
        #: pool is dead, the attempt plans inline for the rest of its life
        #: (pooled and inline plans are bit-identical, so only timing
        #: accounting — not results — can tell the difference).
        self._degraded = False
        #: Whether the most recent successful step() planned through the
        #: degraded inline fallback; the scheduler folds this into the
        #: record's ``degraded_iterations`` when the iteration commits.
        self.last_step_degraded = False
        #: Stream key on the shared pool — unique per attempt, so a retried
        #: attempt's stream can never receive (or be poisoned by) a dead
        #: attempt's late results or stale failure markers.
        self._stream_key: str | None = None
        self._stream_retired = False
        if planner_processes > 0 and self.minibatches:
            if shared_pool is not None:
                self._shared_pool = shared_pool
                self._stream_key = f"{spec.name}#a{len(record.attempts)}"
                shared_pool.submit_job(
                    self._stream_key,
                    planner,
                    [mb.samples for mb in self.minibatches],
                    start=self.start_iteration,
                    lookahead=planner_lookahead,
                )
            else:
                self._pool = PlannerPool(
                    planner=planner,
                    minibatches=[mb.samples for mb in self.minibatches],
                    num_workers=planner_processes,
                    lookahead=planner_lookahead,
                    backend=planner_backend,
                    start_iteration=self.start_iteration,
                )

    @property
    def total_iterations(self) -> int:
        """Last iteration index this attempt will reach (epoch-bounded)."""
        return self.start_iteration + len(self.minibatches)

    @property
    def planner_workers_spawned(self) -> int:
        """Workers this attempt's *private* pool spawned (0 in shared mode)."""
        return self._workers_spawned

    @property
    def stream_key(self) -> str | None:
        """This attempt's stream name on the shared pool (``None`` otherwise)."""
        return self._stream_key

    @property
    def next_pending_iteration(self) -> int | None:
        """Absolute index of the next iteration to plan/execute, if any."""
        if self._position >= len(self.minibatches):
            return None
        return self.minibatches[self._position].index

    def kill_planner_workers(self, count: int) -> int:
        """Kill up to ``count`` of this attempt's *private* pool workers.

        Returns the number actually killed (0 for inline or shared-pool
        attempts — the scheduler kills shared workers on the pool itself).
        """
        if self._pool is not None and self._pool_started:
            return self._pool.kill_workers(count)
        return 0

    def step(self) -> "tuple[IterationRecord, PaddingStats] | None":
        """Plan and execute the next iteration.

        Returns:
            The iteration's record and padding statistics, or ``None`` when
            the attempt has no iterations left.

        Raises:
            JobPlanningError: If planning the iteration failed (including a
                pool worker's failure marker or a pooled-planning timeout).
        """
        if self._position >= len(self.minibatches):
            return None
        minibatch = self.minibatches[self._position]
        with _span("job.step", job=self.job_name, iteration=minibatch.index):
            return self._step_minibatch(minibatch)

    def _step_minibatch(
        self, minibatch
    ) -> "tuple[IterationRecord, PaddingStats] | None":
        degraded = False
        try:
            if self._shared_pool is not None:
                if self._degraded or self._shared_pool.live_workers() == 0:
                    # Graceful degradation: the planning cluster lost every
                    # worker, so the attempt plans inline instead of failing
                    # (inline plans are bit-identical to pooled ones).
                    self._degraded = degraded = True
                    record = self.session.run_iteration(minibatch)
                    stats = self.session.last_padding_stats
                else:
                    payload = self._shared_pool.wait_payload(
                        minibatch.index, timeout=self._timeout_s, job=self._stream_key
                    )
                    record, stats = self.session.record_from_payload(
                        minibatch.index, payload
                    )
                    self._shared_pool.notify_consumed(
                        minibatch.index, job=self._stream_key
                    )
            elif self._pool is not None:
                if not self._pool_started:
                    self._pool.start()
                    self._pool_started = True
                    self._workers_spawned = self._pool.num_workers
                if self._degraded or self._pool.live_workers() == 0:
                    self._degraded = degraded = True
                    record = self.session.run_iteration(minibatch)
                    stats = self.session.last_padding_stats
                else:
                    # Plans are keyed by absolute iteration (the pool's
                    # start_iteration anchors a resumed attempt's tail).
                    payload = self._pool.wait_payload(
                        minibatch.index, timeout=self._timeout_s
                    )
                    record, stats = self.session.record_from_payload(
                        minibatch.index, payload
                    )
                    self._pool.notify_consumed(minibatch.index)
            else:
                record = self.session.run_iteration(minibatch)
                stats = self.session.last_padding_stats
        except _PLANNING_ERRORS as error:
            raise JobPlanningError(
                f"job {self.job_name}: planning failed at iteration {minibatch.index}: {error}"
            ) from error
        except TimeoutError as error:
            raise JobPlanningError(
                f"job {self.job_name}: no plan for iteration {minibatch.index} "
                f"within {self._timeout_s:.1f}s: {error}"
            ) from error
        self._position += 1
        self.last_step_degraded = degraded
        return record, stats

    def close(self) -> None:
        """Release the attempt's planning resources (idempotent).

        Private pool: stop the workers (abandoned plans are dropped).
        Shared pool: retire this attempt's stream — only *its* queued tasks
        are drained and only *its* store namespace is evicted; the pool and
        its workers keep serving every other job.
        """
        if self._pool is not None and self._pool_started:
            self._pool.stop()
            self._pool_started = False
            self._pool = None
        if self._shared_pool is not None and not self._stream_retired:
            self._shared_pool.retire_job(self._stream_key)
            self._stream_retired = True
            self._shared_pool = None
