"""Distributed instruction store.

The real system uses Redis in the host memory of one machine: planners push
serialised execution plans keyed by (iteration, executor) and executors
pre-fetch them.  The reproduction keeps the same interface over an
in-process dictionary, including the "plan not ready yet" condition an
executor can observe when planning for a future iteration has not finished.

The store is *job-namespaced* so one instance can serve a whole fleet (the
paper's CPU-side "planning cluster" is shared by every training worker):
plans are keyed ``(job, iteration, replica)`` and failure markers
``(job, iteration)``.  Single-job consumers never pass ``job`` and live in
the :data:`DEFAULT_JOB` namespace, so the single-runtime API is unchanged.

Planning failures are first-class: when a planner cannot produce a plan for
an iteration it pushes a *failure marker* instead, so an executor polling
:meth:`InstructionStore.ready` / :meth:`InstructionStore.fetch` observes a
:class:`PlanFailedError` immediately rather than spinning until its fetch
timeout on a plan that will never arrive.  Markers are scoped to their
``(job, iteration)`` and are *last-writer-wins*: a successful
:meth:`InstructionStore.push` clears any stale marker for its key, so a
retried job can re-plan an iteration a previous attempt failed without the
old marker masking the new plan forever.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Iterator

from repro.obs.events import publish as _publish
from repro.obs.registry import REGISTRY

#: Namespace of consumers that never pass ``job`` (the single-job runtime).
DEFAULT_JOB = ""

#: Registry-backed store counters (``store.*`` in metric snapshots).
_STORE_STATS = REGISTRY.counter_dict(
    "store", ("plans_pushed", "failures_pushed", "fetches", "fetch_misses")
)


class PlanNotReadyError(KeyError):
    """Raised when an executor fetches a plan that has not been pushed yet."""


class StoreTransientError(PlanNotReadyError):
    """A transient store-side fault: the fetch failed but the plan may exist.

    Deliberately a :class:`PlanNotReadyError` subclass — the real system's
    Redis hiccups (connection resets, timeouts) are retryable, so executors
    that already retry "not ready" handle a transient store error with the
    same loop.  Armed by :meth:`InstructionStore.inject_transient_errors`
    (the chaos harness's store-fault primitive).
    """


class PlanFailedError(RuntimeError):
    """Raised when planning for the fetched iteration failed.

    Deliberately *not* a :class:`PlanNotReadyError` subclass: executors retry
    "not ready" (the plan may still arrive) but must fail fast on "failed"
    (the plan never will).

    Attributes:
        iteration: The store/pool key the failure marker was pushed under
            (``None`` when the failure is not tied to one key).  Consumers
            resuming work should rely on their own committed-progress
            accounting (as the fleet's checkpoints do) and treat this as
            diagnostics.
        job: Job namespace of the failure marker (``None`` when the failure
            is not tied to a store key; :data:`DEFAULT_JOB` for single-job
            consumers).
    """

    def __init__(
        self, message: str, iteration: int | None = None, job: str | None = None
    ) -> None:
        super().__init__(message)
        self.iteration = iteration
        self.job = job


class InstructionStore:
    """Key/value store for serialised execution plans.

    Keys are ``(job, iteration, executor_rank)`` triples; values are
    JSON-compatible payloads (typically
    :meth:`~repro.core.execution_plan.ExecutionPlan.to_dict` output: plan
    metadata plus the instruction streams as checksummed integer columns).  The store is thread-safe so that a planner pool and executor
    threads can share it, mirroring the CPU-planner / GPU-executor overlap of
    the real system; one store instance can back a whole fleet of jobs, each
    isolated in its own namespace.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plans: dict[tuple[str, int, int], Any] = {}
        self._failures: dict[tuple[str, int], str] = {}
        self._transient_errors = 0
        self._transient_message = ""
        self._corrupt_fetches = 0

    def inject_transient_errors(
        self, count: int = 1, message: str = "injected transient store error"
    ) -> None:
        """Arm the next ``count`` :meth:`fetch` calls to fail transiently.

        Each armed fetch raises :class:`StoreTransientError` (a retryable
        :class:`PlanNotReadyError`) instead of returning, decrementing the
        counter — modelling a Redis connection hiccup that clears after a
        bounded number of attempts.  State-changing operations (push,
        evict) are unaffected, matching the read-path-only failure mode
        the real system retries around.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        with self._lock:
            self._transient_errors += count
            self._transient_message = message

    def inject_corrupt_payloads(self, count: int = 1) -> None:
        """Arm the next ``count`` successful :meth:`fetch` calls to return a
        corrupted copy of the plan: its ``checksum`` has one bit flipped, as
        bit rot in transit would, so decoding it raises
        :class:`~repro.instructions.serialization.PlanPayloadError`.  The
        stored plan itself stays intact."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        with self._lock:
            self._corrupt_fetches += count

    def push(
        self, iteration: int, executor_rank: int, plan: Any, job: str = DEFAULT_JOB
    ) -> None:
        """Store the plan for ``executor_rank`` at ``(job, iteration)``.

        A successful push clears any failure marker for the same
        ``(job, iteration)``: the marker described a planning attempt that
        has since been superseded, and leaving it would permanently mask the
        new plan from every rank (fatal once a store is shared across job
        retries).
        """
        with self._lock:
            self._plans[(job, iteration, executor_rank)] = plan
            self._failures.pop((job, iteration), None)
            _STORE_STATS["plans_pushed"] += 1
        _publish("plan_pushed", job=job, iteration=iteration, replica=executor_rank)

    def push_failure(self, iteration: int, message: str, job: str = DEFAULT_JOB) -> None:
        """Mark planning of ``(job, iteration)`` as failed (for every rank).

        Subsequent :meth:`fetch` calls for the iteration raise
        :class:`PlanFailedError` and :meth:`ready` reports ``True`` so that
        polling executors wake up and observe the failure.  Only ``job``'s
        executors are affected — other jobs sharing the store (and the same
        iteration index) never see the marker.
        """
        with self._lock:
            self._failures[(job, iteration)] = message
            _STORE_STATS["failures_pushed"] += 1
        _publish("plan_failure_pushed", job=job, iteration=iteration, message=message)

    def fetch(self, iteration: int, executor_rank: int, job: str = DEFAULT_JOB) -> Any:
        """Fetch a plan.

        Raises:
            StoreTransientError: If a transient store fault is armed (see
                :meth:`inject_transient_errors`); retryable.
            PlanFailedError: If planning of ``(job, iteration)`` failed.
            PlanNotReadyError: If the plan has not been pushed yet.
        """
        with self._lock:
            if self._transient_errors > 0:
                self._transient_errors -= 1
                raise StoreTransientError(
                    f"{self._transient_message} (fetch of iteration {iteration}, "
                    f"executor {executor_rank})"
                )
            if (job, iteration) in self._failures:
                raise PlanFailedError(
                    f"planning failed for iteration {iteration}"
                    + (f" of job {job!r}" if job != DEFAULT_JOB else "")
                    + f": {self._failures[(job, iteration)]}",
                    iteration=iteration,
                    job=job,
                )
            _STORE_STATS["fetches"] += 1
            try:
                plan = self._plans[(job, iteration, executor_rank)]
            except KeyError as exc:
                _STORE_STATS["fetch_misses"] += 1
                raise PlanNotReadyError(
                    f"no plan for iteration {iteration}, executor {executor_rank}"
                    + (f", job {job!r}" if job != DEFAULT_JOB else "")
                ) from exc
            if self._corrupt_fetches > 0:
                self._corrupt_fetches -= 1
                plan = copy.deepcopy(plan)
                plan["checksum"] = plan.get("checksum", 0) ^ 1
            return plan

    def ready(self, iteration: int, executor_rank: int, job: str = DEFAULT_JOB) -> bool:
        """Whether a fetch for the key would return.

        ``True`` also covers failed iterations: the executor's fetch returns
        immediately (with :class:`PlanFailedError`) instead of blocking.
        """
        with self._lock:
            return (
                (job, iteration, executor_rank) in self._plans
                or (job, iteration) in self._failures
            )

    def failed_iterations(self, job: str = DEFAULT_JOB) -> dict[int, str]:
        """Failure messages of ``job``'s iterations whose planning failed."""
        with self._lock:
            return {
                iteration: message
                for (marker_job, iteration), message in self._failures.items()
                if marker_job == job
            }

    def evict_iteration(self, iteration: int, job: str = DEFAULT_JOB) -> int:
        """Remove all plans (and any failure marker) of ``(job, iteration)``.

        Returns the number of plans removed.  Executors call this after an
        iteration completes so the store does not grow with the length of
        training.
        """
        with self._lock:
            keys = [key for key in self._plans if key[0] == job and key[1] == iteration]
            for key in keys:
                del self._plans[key]
            self._failures.pop((job, iteration), None)
            return len(keys)

    def evict_job(self, job: str) -> int:
        """Remove every plan and failure marker of ``job``.

        The fleet calls this when a job stream retires (finished, preempted
        or failed) so a shared store never leaks a terminated job's state
        into a later attempt under the same name.  Returns the number of
        plans removed.
        """
        with self._lock:
            plan_keys = [key for key in self._plans if key[0] == job]
            for key in plan_keys:
                del self._plans[key]
            for key in [key for key in self._failures if key[0] == job]:
                del self._failures[key]
            return len(plan_keys)

    def iterations(self, job: str = DEFAULT_JOB) -> list[int]:
        """Sorted iterations of ``job`` that currently have at least one plan."""
        with self._lock:
            return sorted(
                {iteration for plan_job, iteration, _ in self._plans if plan_job == job}
            )

    def jobs(self) -> list[str]:
        """Sorted job namespaces with at least one plan or failure marker."""
        with self._lock:
            return sorted(
                {key[0] for key in self._plans} | {key[0] for key in self._failures}
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __iter__(self) -> Iterator[tuple[str, int, int]]:
        with self._lock:
            return iter(list(self._plans))
