"""The planner's replica timeline against the rebuild-per-order oracle.

``DynaPipePlanner`` verifies, searches and finalises each replica on one
slot-level timeline; ``tests/oracles/order_search.py`` keeps the path it
replaced, which builds and simulates the schedule from scratch for the
verification, for every scored permutation and for the chosen order.  Over
GPT/T5, 2/4 pipeline stages, every schedule kind, every recomputation mode
and tight device memory (memory-gated geometries that fork within one
search, orders that deadlock or exceed memory), both must agree exactly:
``==`` on the search (order, makespan, permutations evaluated, every score),
the simulation (makespan, busy, idle, peaks, op times), the instruction
streams and the plan metadata.  Every batched timeline solve the planner
runs is also checked row by row against a single solve.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.order_search import RebuildingPlanner, RebuildingReplica
from repro.comm.shapes import TransferShapes
from repro.core.adaptive_schedule import ScheduleKind
from repro.core.microbatch_ordering import cluster_and_order
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.core.recomputation import OutOfMemoryError
from repro.costmodel.cost_model import CostModel
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.cyclic import ScheduleDeadlockError
from repro.simulator.compiled import CompiledTimeline

SEQ_LENS = (64, 128, 256, 512, 1024)
#: Memory-aware twice: it is the planner's default and the kind that forks.
KINDS = [
    ScheduleKind.MEMORY_AWARE_ADAPTIVE,
    ScheduleKind.MEMORY_AWARE_ADAPTIVE,
    ScheduleKind.ADAPTIVE,
    ScheduleKind.ONE_F_ONE_B,
]


@pytest.fixture(scope="module")
def t5_pp2_cost_model(tiny_t5_config, small_device) -> CostModel:
    return CostModel(
        tiny_t5_config,
        num_stages=2,
        device_spec=small_device,
        max_profile_batch_size=32,
        max_profile_seq_len=2048,
    )


@pytest.fixture(scope="module")
def cost_models(gpt_cost_model, pp2_cost_model, t5_cost_model, t5_pp2_cost_model):
    return {
        ("gpt", 4): gpt_cost_model,
        ("gpt", 2): pp2_cost_model,
        ("t5", 4): t5_cost_model,
        ("t5", 2): t5_pp2_cost_model,
    }


@contextmanager
def checked_batch_solves():
    """Check every ``solve_batch`` row against a single ``solve`` of that row."""
    original = CompiledTimeline.solve_batch
    checked = []
    nested = []

    def solve_batch(self, durations, comm=None):
        if nested:  # the single solve below
            return original(self, durations, comm)
        batch = original(self, durations, comm)
        comm_rows = None if comm is None else np.broadcast_to(comm, np.shape(durations))
        nested.append(True)
        try:
            for row in range(len(durations)):
                single = self.solve(durations[row], None if comm is None else comm_rows[row])
                assert batch.starts[row].tolist() == single.starts.tolist()
                assert batch.ends[row].tolist() == single.ends.tolist()
                assert float(batch.makespan_ms[row]) == single.makespan_ms
                checked.append(row)
        finally:
            nested.pop()
        return batch

    CompiledTimeline.solve_batch = solve_batch
    try:
        yield checked
    finally:
        CompiledTimeline.solve_batch = original


def assert_same_simulation(expected, actual) -> None:
    assert actual.makespan_ms == expected.makespan_ms
    assert actual.device_busy_ms == expected.device_busy_ms
    assert actual.device_idle_ms == expected.device_idle_ms
    assert actual.peak_activation_bytes == expected.peak_activation_bytes
    assert actual.op_times == expected.op_times
    assert list(actual.op_times) == list(expected.op_times)
    assert actual.trace.events == expected.trace.events


def assert_same_plan(expected, actual) -> None:
    assert actual.recompute == expected.recompute
    assert actual.predicted_iteration_ms == expected.predicted_iteration_ms
    assert actual.dp_solution == expected.dp_solution
    assert len(actual.replicas) == len(expected.replicas)
    for want, got in zip(expected.replicas, actual.replicas):
        assert got.micro_batches == want.micro_batches
        if want.ordering_search is None:
            assert got.ordering_search is None
        else:
            assert got.ordering_search.order == want.ordering_search.order
            assert got.ordering_search.makespan_ms == want.ordering_search.makespan_ms
            assert got.ordering_search.evaluated == want.ordering_search.evaluated
            assert got.ordering_search.cluster_sizes == want.ordering_search.cluster_sizes
            assert got.ordering_search.timeline_solves <= got.ordering_search.evaluated
        assert_same_simulation(want.simulation, got.simulation)
        assert got.plan.device_instructions == want.plan.device_instructions
        assert got.plan.microbatch_shapes == want.plan.microbatch_shapes
        want_meta = dict(vars(want.plan.metadata), planning_time_s=None)
        got_meta = dict(vars(got.plan.metadata), planning_time_s=None)
        assert got_meta == want_meta
    want_payload, got_payload = expected.to_dict(), actual.to_dict()
    for payload in (want_payload, got_payload):
        payload.pop("planning_time_s")
        for replica in payload["replicas"]:
            replica["metadata"].pop("planning_time_s")
    assert got_payload == want_payload


# ---------------------------------------------------------------------- plans


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_plan_matches_rebuilding_oracle(data, cost_models, flan_samples, flan_samples_gpt):
    arch = data.draw(st.sampled_from(["gpt", "t5"]), label="arch")
    stages = data.draw(st.sampled_from([2, 4]), label="stages")
    cost_model = cost_models[(arch, stages)]
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    recompute = data.draw(
        st.sampled_from([None, *RecomputeMode]), label="recompute (None: dynamic)"
    )
    static = max(cost_model.stage_static_bytes(j) for j in range(stages))
    # From generous to barely above the static memory: memory-aware
    # schedules gate, fork geometries and retry heavier recomputation.
    headroom = data.draw(
        st.one_of(
            st.sampled_from([0.2e9, 0.25e9, 0.3e9, 0.45e9, None]),
            st.floats(min_value=0.1e9, max_value=2e9),
        ),
        label="headroom",
    )
    config = PlannerConfig(
        schedule_kind=kind,
        dynamic_recompute=recompute is None,
        recompute=recompute or RecomputeMode.NONE,
        device_memory_bytes=None if headroom is None else static + headroom,
        per_microbatch_memory_fraction=data.draw(
            st.sampled_from([None, 0.5, 1.0]), label="per-microbatch fraction"
        ),
        num_time_clusters=data.draw(st.sampled_from([3, 4, 2]), label="clusters"),
        max_order_permutations=data.draw(st.sampled_from([24, 6, 3]), label="max permutations"),
        tmax_sample_count=8,
    )
    data_parallel = data.draw(st.sampled_from([1, 2]), label="data parallel")
    pool = flan_samples_gpt if arch == "gpt" else flan_samples
    start = data.draw(st.integers(0, len(pool) - 120), label="start")
    samples = pool[start : start + data.draw(st.sampled_from([120, 80, 40, 20]), label="count")]

    outcomes = []
    for planner_class in (RebuildingPlanner, DynaPipePlanner):
        with checked_batch_solves() as checked:
            try:
                planner = planner_class(cost_model, data_parallel_size=data_parallel, config=config)
                outcomes.append(planner.plan(samples, iteration=3))
            except OutOfMemoryError as exc:
                outcomes.append(str(exc))
    expected, actual = outcomes
    if isinstance(expected, str):
        assert actual == expected
    else:
        assert checked  # the planner's own solves went through solve_batch
        assert_same_plan(expected, actual)


# ---------------------------------------------------------------------- replicas


def _replica_case(data, cost_models):
    """A planner plus one replica's shapes, drawn without the DP split, so
    single micro-batches can exceed a stage's budget (deadlock) and
    permutations can exceed device memory."""
    arch = data.draw(st.sampled_from(["gpt", "t5"]), label="arch")
    stages = data.draw(st.sampled_from([2, 4]), label="stages")
    cost_model = cost_models[(arch, stages)]
    mode = data.draw(st.sampled_from(list(RecomputeMode)), label="mode")
    count = data.draw(st.sampled_from([12, 8, 5, 2]), label="micro-batches")
    shapes = [
        MicroBatchShape(
            batch_size=data.draw(st.integers(1, 12)),
            enc_seq_len=data.draw(st.sampled_from(SEQ_LENS)),
            dec_seq_len=data.draw(st.sampled_from(SEQ_LENS)) if arch == "t5" else 0,
        )
        for _ in range(count)
    ]
    activation = max(
        cost_model.stage_costs_many(j, shapes, mode)[i].activation_bytes
        for i in range(count)
        for j in range(stages)
    )
    static = max(cost_model.stage_static_bytes(j) for j in range(stages))
    memory = static + activation * data.draw(st.floats(0.8, 2 * stages), label="memory")
    config = PlannerConfig(
        schedule_kind=data.draw(st.sampled_from(KINDS), label="kind"),
        device_memory_bytes=memory,
        num_time_clusters=data.draw(st.sampled_from([3, 4, 2, 1]), label="clusters"),
    )
    return DynaPipePlanner(cost_model, config=config), shapes, mode


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_replica_timeline_matches_rebuilding_oracle(data, cost_models):
    planner, shapes, mode = _replica_case(data, cost_models)
    transfer_shapes = TransferShapes.from_cost_model(planner.cost_model, shapes)
    timeline = planner._replica_timeline(shapes, mode, transfer_shapes)
    oracle = RebuildingReplica(planner, shapes, mode, transfer_shapes)

    with checked_batch_solves():
        # Verification: the same deadlock message, or the same makespan,
        # peaks and feasibility verdict.
        verdicts = []
        for replica in (oracle, timeline):
            try:
                solved = replica.solve(range(len(shapes)))
                verdicts.append((solved.makespan_ms, solved.peak_activation_bytes, solved.feasible))
            except ScheduleDeadlockError as exc:
                verdicts.append(str(exc))
        assert verdicts[1] == verdicts[0]

        # Search: every candidate's score, then the chosen order.
        times = [float(t) for t in planner.cost_model.microbatch_times_ms(shapes, mode)]
        scored = []

        def recording(replica):
            def score_orders(orders):
                scores = replica.score_batch(orders)
                scored.append(scores)
                return scores

            return score_orders

        results = [
            cluster_and_order(times, recording(replica), num_clusters=planner.config.num_time_clusters)
            for replica in (oracle, timeline)
        ]
    assert scored[1] == scored[0]
    assert results[1] == results[0]
    assert timeline.compiles <= timeline.solves <= results[1].evaluated

    if all(math.isinf(score) for score in scored[1]):
        return
    schedule_a, simulation_a = oracle.finalise(results[0].order)
    schedule_b, simulation_b = timeline.finalise(results[1].order)
    assert schedule_b == schedule_a
    assert_same_simulation(simulation_a, simulation_b)


@pytest.mark.parametrize(
    "kind, headroom, expect",
    [
        (ScheduleKind.MEMORY_AWARE_ADAPTIVE, 0.3e9, "forks"),
        (ScheduleKind.ADAPTIVE, 0.6e9, "exceeds"),
        (ScheduleKind.MEMORY_AWARE_ADAPTIVE, 0.05e9, "deadlocks"),
    ],
)
def test_tight_memory_cases_are_exercised(gpt_cost_model, kind, headroom, expect):
    """Tight memory makes memory-aware geometries fork within one batch,
    some orders exceed device memory, or every order deadlock; the timeline
    and the oracle agree on every score."""
    static = max(gpt_cost_model.stage_static_bytes(j) for j in range(4))
    planner = DynaPipePlanner(
        gpt_cost_model,
        config=PlannerConfig(schedule_kind=kind, device_memory_bytes=static + headroom),
    )
    sizes = (1, 8, 1, 8, 1, 1, 1, 1, 8, 8, 1, 1)
    shapes = [MicroBatchShape(batch_size=size, enc_seq_len=512) for size in sizes]
    rng = np.random.default_rng(0)
    orders = [rng.permutation(len(shapes)).tolist() for _ in range(30)]
    transfer_shapes = TransferShapes.from_cost_model(gpt_cost_model, shapes)
    timeline = planner._replica_timeline(shapes, RecomputeMode.NONE, transfer_shapes)
    oracle = RebuildingReplica(planner, shapes, RecomputeMode.NONE, transfer_shapes)
    with checked_batch_solves():
        scores = timeline.score_batch(orders)
    assert scores == oracle.score_batch(orders)
    infeasible = sum(math.isinf(score) for score in scores)
    if expect == "forks":
        assert infeasible == 0
        assert timeline.compiles > 1
    elif expect == "exceeds":
        assert 0 < infeasible < len(orders)
        assert timeline.solves == len(orders)
    else:
        assert infeasible == len(orders)
        assert timeline.solves == 0
        with pytest.raises(ScheduleDeadlockError):
            timeline.solve(orders[0])
