"""Executor side of the runtime: fetch plans, run them, track stalls.

The executor service owns the simulated devices of one data-parallel replica
group.  For every iteration it fetches each replica's execution plan from
the instruction store — blocking (and recording the stall time) if planning
has not finished yet — deserialises it, and runs it on the ``sim``
execution backend against the same ground truth as
:class:`~repro.training.trainer.TrainingSession` (analytic stage models,
execution-time noise).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.backends import get_backend
from repro.cluster.device import SimulatedGPU
from repro.cluster.network import NetworkModel
from repro.core.execution_plan import ExecutionPlan
from repro.costmodel.cost_model import CostModel
from repro.instructions.store import InstructionStore, PlanNotReadyError
from repro.simulator.executor import ExecutionResult
from repro.simulator.ground_truth import GroundTruth
from repro.utils.rng import SeedLike, new_rng


@dataclass
class ExecutorStats:
    """Per-iteration execution statistics collected by the service.

    Attributes:
        iteration: Iteration index.
        stall_s: Wall-clock time spent waiting for the plan to appear in the
            instruction store (0 when planning kept ahead of execution).
        simulated_ms: Simulated execution time of the iteration (slowest
            replica).
        peak_memory_bytes: Largest per-device peak across replicas.
    """

    iteration: int
    stall_s: float
    simulated_ms: float
    peak_memory_bytes: float


@dataclass
class ExecutorService:
    """Fetches plans from the store and executes them on simulated devices.

    Attributes:
        cost_model: Cost model describing the pipeline (used to build the
            ground-truth stage models and static memory).
        store: The shared instruction store.
        data_parallel_size: Number of replicas whose plans to fetch per
            iteration.
        noise_std: Execution-time noise of the simulated devices.
        seed: Noise seed.
        fetch_timeout_s: Maximum time to wait for a plan before failing.
        stages_same_node: Link class used for inter-stage transfers.
    """

    cost_model: CostModel
    store: InstructionStore
    data_parallel_size: int = 1
    noise_std: float = 0.05
    seed: SeedLike = 0
    fetch_timeout_s: float = 120.0
    stages_same_node: bool = True
    stats: list[ExecutorStats] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ground_truth = GroundTruth(
            self.cost_model, NetworkModel(), same_node=self.stages_same_node
        )
        self._rng = new_rng(self.seed)

    # ------------------------------------------------------------------ internals

    def _fetch(self, iteration: int, replica: int) -> ExecutionPlan:
        deadline = time.perf_counter() + self.fetch_timeout_s
        while True:
            try:
                payload = self.store.fetch(iteration, replica)
                return ExecutionPlan.from_dict(payload)
            except PlanNotReadyError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)

    def _execute(self, plan: ExecutionPlan) -> ExecutionResult:
        """Run one replica plan on the ``sim`` backend with fresh noise."""
        gpu = SimulatedGPU(
            self.cost_model.device_spec,
            noise_std=self.noise_std,
            seed=int(self._rng.integers(0, 2**31 - 1)),
        )
        options = self._ground_truth.backend_options(plan.streams, gpu)
        return get_backend("sim", options).run(plan.streams)

    # ------------------------------------------------------------------ API

    def run_iteration(self, iteration: int) -> ExecutorStats:
        """Fetch and execute one iteration's plans; returns its statistics."""
        stall_start = time.perf_counter()
        plans = [self._fetch(iteration, replica) for replica in range(self.data_parallel_size)]
        stall = time.perf_counter() - stall_start

        simulated_ms = 0.0
        peak = 0.0
        for plan in plans:
            result = self._execute(plan)
            simulated_ms = max(simulated_ms, result.makespan_ms)
            peak = max(peak, max(result.peak_memory_bytes))
        stats = ExecutorStats(
            iteration=iteration, stall_s=stall, simulated_ms=simulated_ms, peak_memory_bytes=peak
        )
        self.stats.append(stats)
        return stats

    def total_stall_s(self) -> float:
        """Total wall-clock time spent waiting for plans."""
        return sum(record.stall_s for record in self.stats)

    def total_simulated_ms(self) -> float:
        """Total simulated execution time across processed iterations."""
        return sum(record.simulated_ms for record in self.stats)
