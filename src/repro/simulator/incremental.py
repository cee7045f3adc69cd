"""The planner's replica timeline: one slot-level timeline per replica.

For every data-parallel replica the planner verifies the injection order it
was given, searches cluster permutations of it (paper §5) and finally lowers
the chosen order into instruction streams.  All three steps run on one
:class:`IncrementalOrderSimulator`, built once per replica from the
replica's duration, transfer-time and activation matrices:

* **Slot relabeling.** Cyclic scheduling decisions depend only on the
  activation *values* presented, so scheduling micro-batches in injection
  order ``P`` is isomorphic to scheduling *slots* ``0..M-1`` in identity
  order over the permuted activation rows ``A[P]`` — slot ``k`` stands for
  micro-batch ``P[k]``.  Each order therefore only needs the lean
  slot-level scheduler (:func:`~repro.schedule.cyclic.cyclic_stage_sequences`)
  plus array gathers that map slot-indexed geometry onto real micro-batch
  durations, comm times and activations.  Schedules that ignore the
  injection order (1F1B) pass their fixed encoded sequences instead, and
  every order maps slot ``k`` to micro-batch ``k``.

* **Geometry reuse.** The encoded slot sequences are the key of the
  engine's process-wide geometry LRU
  (:func:`~repro.simulator.engine.compile_stage_sequences`), which
  schedules simulated by :func:`~repro.simulator.engine.simulate_schedule`
  share.  With ample memory every permutation has one slot structure;
  memory-gated schedules fork into a handful.  Structures that recur across
  iterations stay compiled.

* **Batched scoring.** :meth:`IncrementalOrderSimulator.score_batch` groups
  the candidate orders by geometry and solves each group with one
  :meth:`~repro.simulator.compiled.CompiledTimeline.solve_batch` sweep.

* **Finalise from the solved row.** Every solved order is kept (for the
  lifetime of the simulator, i.e. one ``plan()`` call), so
  :meth:`IncrementalOrderSimulator.finalise` turns the chosen order into a
  :class:`~repro.schedule.events.PipelineSchedule` and a
  :class:`~repro.simulator.engine.SimulationResult` without solving again.

Results are bit-identical to building the schedule with
``injection_order=P`` and simulating it: the same scheduler core emits the
op order, and the compiled solver performs the same float operations in the
same order as the scalar engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.schedule.cyclic import (
    ScheduleDeadlockError,
    check_injection_order,
    cyclic_stage_sequences,
)
from repro.schedule.events import PipelineSchedule, StageSchedule
from repro.simulator.compiled import CompiledTimeline
from repro.simulator.engine import (
    SimulationResult,
    compile_stage_sequences,
    geometry_key,
    timeline_result,
)


@dataclass
class OrderSolution:
    """One injection order solved on its slot geometry.

    Attributes:
        order: The injection order (micro-batch ids).
        microbatches: Micro-batch id of each slot of the geometry.
        sequences: Encoded per-stage slot sequences (the geometry key).
        timeline: The compiled slot geometry.
        starts / ends: Per-op start/end times in op-id order.
        makespan_ms: Completion time of the last op.
        peak_activation_bytes: Per-stage peak memory (static included).
        feasible: Whether every peak fits the device memory.
    """

    order: list[int]
    microbatches: list[int]
    sequences: list[list[int]]
    timeline: CompiledTimeline
    starts: np.ndarray
    ends: np.ndarray
    makespan_ms: float
    peak_activation_bytes: list[float]
    feasible: bool


class IncrementalOrderSimulator:
    """Verifies, scores and finalises injection orders of one replica.

    All inputs are indexed by *micro-batch id* and pipeline stage:

    Args:
        num_stages: Number of pipeline stages ``C``.
        activation_bytes: ``(M, C)`` activation footprint matrix.
        forward_ms / backward_ms: ``(M, C)`` per-op duration matrices.
        act_comm_ms: ``(M, C)`` activation transfer times; entry ``[i, j]``
            is the cost of sending micro-batch ``i``'s activations from
            stage ``j`` to ``j + 1`` (column ``C - 1`` unused).
        grad_comm_ms: ``(M, C)`` gradient transfer times; entry ``[i, j]``
            is the cost of sending micro-batch ``i``'s gradients from stage
            ``j`` to ``j - 1`` (column ``0`` unused).
        memory_limits: Optional per-stage limits for memory-aware scheduling.
        static_bytes: Optional per-stage static memory.
        device_memory_bytes: Optional per-device capacity; orders whose peak
            memory exceeds ``capacity * (1 + 1e-9)`` are infeasible and score
            ``inf``, matching the planner's feasibility rule.
        stage_sequences: Fixed encoded per-stage op order for schedules that
            ignore the injection order (1F1B; ``memory_limits`` then has no
            effect); ``None`` runs Algorithm 1 per order.
        schedule_name: Name recorded on finalised schedules.
    """

    def __init__(
        self,
        num_stages: int,
        activation_bytes: np.ndarray,
        forward_ms: np.ndarray,
        backward_ms: np.ndarray,
        act_comm_ms: np.ndarray,
        grad_comm_ms: np.ndarray,
        memory_limits: Sequence[float] | None = None,
        static_bytes: Sequence[float] | None = None,
        device_memory_bytes: float | None = None,
        stage_sequences: Sequence[Sequence[int]] | None = None,
        schedule_name: str = "adaptive",
    ) -> None:
        self.num_stages = num_stages
        self.activation_bytes = np.asarray(activation_bytes, dtype=np.float64)
        self.forward_ms = np.asarray(forward_ms, dtype=np.float64)
        self.backward_ms = np.asarray(backward_ms, dtype=np.float64)
        self.act_comm_ms = np.asarray(act_comm_ms, dtype=np.float64)
        self.grad_comm_ms = np.asarray(grad_comm_ms, dtype=np.float64)
        self.memory_limits = list(memory_limits) if memory_limits is not None else None
        self.static_bytes = list(static_bytes) if static_bytes is not None else None
        self.device_memory_bytes = device_memory_bytes
        self.stage_sequences = (
            [list(sequence) for sequence in stage_sequences]
            if stage_sequences is not None
            else None
        )
        self.schedule_name = schedule_name
        self.num_microbatches = int(self.activation_bytes.shape[0])
        # Algorithm 1 indexes rows element by element: Python lists are much
        # faster to index than numpy rows and hold the same floats.
        self._activation_rows = self.activation_bytes.tolist()
        # Gather tables: durations by [is_forward][mb][stage], transfer times
        # by [comm kind - 1][mb][source stage].
        self._durations = np.stack((self.backward_ms, self.forward_ms))
        self._comm = np.stack((self.act_comm_ms, self.grad_comm_ms))
        self._solutions: dict[tuple[int, ...], OrderSolution] = {}
        self._scored_geometries: set[tuple[bytes, ...]] = set()
        #: Distinct slot geometries the scoring calls solved on (each compiled
        #: at most once per process while it stays in the geometry LRU).
        self.compiles = 0
        #: Orders the scoring calls solved (deadlocked orders are not solved).
        self.solves = 0

    # ------------------------------------------------------------------ solving

    def _solve_orders(
        self, orders: Sequence[Sequence[int]]
    ) -> tuple[list[OrderSolution | ScheduleDeadlockError], list[tuple[bytes, ...]]]:
        """Solve ``orders`` with one batched solve per distinct geometry.

        Returns each order's solution (or the deadlock it hit) and the keys of
        the geometries solved on.
        """
        num_microbatches = self.num_microbatches
        orders = [check_injection_order(order, num_microbatches) for order in orders]
        results: list[OrderSolution | ScheduleDeadlockError | None] = [None] * len(orders)
        groups: dict[tuple[bytes, ...], tuple[list[list[int]], list]] = {}
        identity = list(range(num_microbatches))
        rows = self._activation_rows
        for index, order in enumerate(orders):
            if self.stage_sequences is not None:
                sequences, microbatches = self.stage_sequences, identity
            else:
                try:
                    sequences = cyclic_stage_sequences(
                        self.num_stages, [rows[mb] for mb in order], self.memory_limits
                    )
                except ScheduleDeadlockError as exc:
                    results[index] = exc
                    continue
                microbatches = order
            key = geometry_key(sequences)
            group = groups.get(key)
            if group is None:
                groups[key] = group = (sequences, [])
            group[1].append((index, order, microbatches))

        capacity = (
            self.device_memory_bytes * (1.0 + 1e-9)
            if self.device_memory_bytes is not None
            else None
        )
        for key, (sequences, members) in groups.items():
            timeline = compile_stage_sequences(self.num_stages, sequences, key)
            slots = np.array([microbatches for _, _, microbatches in members], dtype=np.int64)
            # Map slot-indexed geometry onto real micro-batch ids, one row per order.
            microbatch = slots[:, timeline.op_microbatch]
            stage = timeline.op_stage
            durations = self._durations[timeline.op_is_forward.astype(np.intp), microbatch, stage]
            comm = np.zeros(durations.shape, dtype=np.float64)
            edges = timeline.comm_edges
            comm[:, edges] = self._comm[
                timeline.comm_kind[edges] - 1, microbatch[:, edges], timeline.comm_src[edges]
            ]
            batch = timeline.solve_batch(durations, comm)
            peaks = timeline.peak_activation_batch(
                self.activation_bytes[microbatch, stage], self.static_bytes
            )
            makespans = batch.makespan_ms.tolist()
            for row, (index, order, microbatches) in enumerate(members):
                solution = OrderSolution(
                    order=order,
                    microbatches=microbatches,
                    sequences=sequences,
                    timeline=timeline,
                    starts=batch.starts[row],
                    ends=batch.ends[row],
                    makespan_ms=makespans[row],
                    peak_activation_bytes=peaks[row],
                    feasible=capacity is None or all(peak <= capacity for peak in peaks[row]),
                )
                self._solutions[tuple(order)] = solution
                results[index] = solution
        return results, list(groups)

    def solve(self, order: Sequence[int]) -> OrderSolution:
        """Solve one injection order (memoized for this simulator's lifetime).

        Raises:
            ValueError: If ``order`` is not a permutation of the micro-batches.
            ScheduleDeadlockError: If Algorithm 1 cannot schedule the order.
        """
        order = check_injection_order(order, self.num_microbatches)
        solution = self._solutions.get(tuple(order))
        if solution is not None:
            return solution
        (result,), _ = self._solve_orders([order])
        if isinstance(result, ScheduleDeadlockError):
            raise result
        return result

    # ------------------------------------------------------------------ scoring

    def score_batch(self, orders: Sequence[Sequence[int]]) -> list[float]:
        """Makespan of every order (``inf`` when infeasible or deadlocked).

        Each row is bit-identical to building the schedule with
        ``injection_order=order`` and running the simulation engine on it.

        Raises:
            ValueError: If any order is not a permutation of the micro-batches.
        """
        results, keys = self._solve_orders(orders)
        self._scored_geometries.update(keys)
        self.compiles = len(self._scored_geometries)
        scores = []
        for result in results:
            if isinstance(result, ScheduleDeadlockError):
                scores.append(float("inf"))
                continue
            self.solves += 1
            scores.append(result.makespan_ms if result.feasible else float("inf"))
        return scores

    def score(self, order: Sequence[int]) -> float:
        """Makespan of one order; see :meth:`score_batch`."""
        return self.score_batch([order])[0]

    # ------------------------------------------------------------------ finalising

    def finalise(self, order: Sequence[int]) -> tuple[PipelineSchedule, SimulationResult]:
        """The schedule and simulation result of ``order``, from its solved row.

        ``op_times`` and the trace of the result are built on first access.
        """
        solution = self.solve(order)
        stages = [
            StageSchedule.from_encoded(stage, sequence, solution.microbatches)
            for stage, sequence in enumerate(solution.sequences)
        ]
        schedule = PipelineSchedule(
            stages=stages, num_microbatches=self.num_microbatches, name=self.schedule_name
        )
        simulation = timeline_result(
            schedule,
            solution.timeline,
            solution.starts,
            solution.ends,
            solution.makespan_ms,
            solution.peak_activation_bytes,
        )
        return schedule, simulation
