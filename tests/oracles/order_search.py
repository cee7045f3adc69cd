"""Rebuild-per-permutation replica planning: the replica timeline's oracle.

``repro.core.planner`` verifies, searches and finalises every replica on one
slot-level timeline (``repro.simulator.incremental``).  The path it
replaced builds the schedule with ``AdaptiveScheduler.build`` and simulates
it with ``simulate_schedule`` from scratch: once to verify the injection
order, once per cluster permutation the order search scores, and once more
for the chosen order.  :class:`RebuildingPlanner` is the planner with that
path swapped back in; everything else (DP split, replica balance,
recomputation retries, lowering) is the planner's own code, so a diff of
the two isolates the replica timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.comm.shapes import TransferShapes
from repro.core.microbatch_ordering import OrderingSearchResult, cluster_and_order
from repro.core.planner import DynaPipePlanner
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.cyclic import ScheduleDeadlockError
from repro.schedule.events import PipelineSchedule
from repro.simulator.engine import SimulationResult, simulate_schedule


@dataclass
class RebuiltSolution:
    """The verification view of one rebuilt order."""

    makespan_ms: float
    peak_activation_bytes: list[float]
    feasible: bool


class RebuildingReplica:
    """One replica planned by rebuilding the schedule for every order.

    Offers the planner-facing calls of
    :class:`~repro.simulator.incremental.IncrementalOrderSimulator`
    (``solve``, ``score``, ``score_batch``, ``finalise``).
    """

    def __init__(
        self,
        planner: DynaPipePlanner,
        shapes: Sequence[MicroBatchShape],
        mode: RecomputeMode,
        transfer_shapes: TransferShapes,
    ) -> None:
        self.planner = planner
        self.shapes = list(shapes)
        self.mode = mode
        self.transfer_shapes = transfer_shapes
        cost_model = planner.cost_model
        self.static = [cost_model.stage_static_bytes(j) for j in range(cost_model.num_stages)]

    def comm_time(self, microbatch: int, src: int, dst: int, is_gradient: bool) -> float:
        """Inter-stage transfer time, one network query per transfer."""
        if is_gradient:
            nbytes = self.transfer_shapes.grad_bytes(microbatch, src)
        else:
            nbytes = self.transfer_shapes.act_bytes(microbatch, src)
        return self.planner.network.p2p_time_ms(
            nbytes, same_node=self.planner.config.stages_same_node
        )

    def build_and_simulate(self, order: Sequence[int] | None):
        """Build the configured schedule for ``order`` and simulate it."""
        build = self.planner.scheduler.build(
            self.shapes,
            kind=self.planner.config.schedule_kind,
            recompute=self.mode,
            injection_order=order,
        )
        simulation = simulate_schedule(
            build.schedule,
            build.durations,
            comm_time_fn=self.comm_time,
            activation_bytes=build.activation_bytes,
            static_bytes=self.static,
        )
        return build, simulation

    def feasible(self, simulation: SimulationResult) -> bool:
        return all(
            peak <= self.planner.device_memory_bytes * (1.0 + 1e-9)
            for peak in simulation.peak_activation_bytes
        )

    def solve(self, order: Sequence[int]) -> RebuiltSolution:
        """Verify ``order`` (raises :class:`ScheduleDeadlockError`)."""
        _build, simulation = self.build_and_simulate(list(order))
        return RebuiltSolution(
            makespan_ms=simulation.makespan_ms,
            peak_activation_bytes=list(simulation.peak_activation_bytes),
            feasible=self.feasible(simulation),
        )

    def score(self, order: Sequence[int]) -> float:
        """Makespan of ``order``; ``inf`` when it deadlocks or does not fit."""
        try:
            _build, simulation = self.build_and_simulate(order)
        except ScheduleDeadlockError:
            return float("inf")
        if not self.feasible(simulation):
            return float("inf")
        return simulation.makespan_ms

    def score_batch(self, orders: Sequence[Sequence[int]]) -> list[float]:
        return [self.score(order) for order in orders]

    def finalise(self, order: Sequence[int]) -> tuple[PipelineSchedule, SimulationResult]:
        """Rebuild and re-simulate the chosen order."""
        build, simulation = self.build_and_simulate(list(order))
        return build.schedule, simulation


def search_by_rebuilding(
    planner: DynaPipePlanner,
    replica: RebuildingReplica,
    shapes: Sequence[MicroBatchShape],
    mode: RecomputeMode,
) -> OrderingSearchResult:
    """The order search with one rebuild per permutation (no timeline counters)."""
    times = [float(t) for t in planner.cost_model.microbatch_times_ms(list(shapes), mode)]
    return cluster_and_order(
        times,
        replica.score_batch,
        num_clusters=planner.config.num_time_clusters,
        max_permutations=planner.config.max_order_permutations,
    )


class RebuildingPlanner(DynaPipePlanner):
    """:class:`DynaPipePlanner` with the rebuild-per-order replica path."""

    def _replica_timeline(self, shapes, mode, transfer_shapes) -> RebuildingReplica:
        return RebuildingReplica(self, shapes, mode, transfer_shapes)

    def _search_injection_order(self, timeline, shapes, mode) -> OrderingSearchResult:
        return search_by_rebuilding(self, timeline, shapes, mode)


def replica_search(
    planner: DynaPipePlanner,
    shapes: Sequence[MicroBatchShape],
    mode: RecomputeMode,
) -> OrderingSearchResult:
    """One replica's order search on ``planner``'s replica path.

    A :class:`RebuildingPlanner` rebuilds per permutation; a
    :class:`DynaPipePlanner` scores on its replica timeline.
    """
    transfer_shapes = TransferShapes.from_cost_model(planner.cost_model, shapes)
    timeline = planner._replica_timeline(shapes, mode, transfer_shapes)
    return planner._search_injection_order(timeline, shapes, mode)


def replica_plan(
    planner: DynaPipePlanner,
    shapes: Sequence[MicroBatchShape],
    mode: RecomputeMode,
) -> tuple[OrderingSearchResult, PipelineSchedule, SimulationResult]:
    """Verify, search and finalise one replica the way ``plan()`` does."""
    transfer_shapes = TransferShapes.from_cost_model(planner.cost_model, shapes)
    timeline = planner._replica_timeline(shapes, mode, transfer_shapes)
    timeline.solve(range(len(shapes)))
    search = planner._search_injection_order(timeline, shapes, mode)
    schedule, simulation = timeline.finalise(search.order)
    return search, schedule, simulation
