"""The integer-coded executor against the scalar oracle loop, and the
per-replica ground truth against the per-instruction closures.

``repro.simulator.executor.InstructionExecutor`` lowers each stream into an
integer-coded program before running it; ``tests/oracles/
instruction_executor.py`` keeps the original loop that re-classified every
instruction on every step.  Both must agree exactly (``==``, no tolerance)
on every result field — makespan, per-device finish, busy time and peak
memory, the transfer log in order, the materialised trace — and, for
streams that cannot finish, on the deadlock error's type, message,
``blocked_devices`` and ``blocked_detail``.  The duration and transfer
callbacks draw from a seeded generator, so agreement also pins the order in
which each executor calls them.

Programs: planner-produced streams (GPT and T5, pipeline depth 2 and 4,
NONE/SELECTIVE/FULL recomputation) and the adversarial streams of
``tests/strategies_instructions.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies_instructions
from oracles.ground_truth import closure_backend_options
from oracles.instruction_executor import ScalarInstructionExecutor
from repro.cluster.device import SimulatedGPU
from repro.cluster.network import NetworkModel
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.instructions.ops import (
    BackwardPass,
    ForwardPass,
    RecvActStart,
    SendActStart,
    WaitRecvAct,
)
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.runtime.executor_service import ExecutorService
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.executor import CommunicationDeadlockError, InstructionExecutor
from repro.simulator.ground_truth import GroundTruth
from repro.simulator.memory_tracker import MemoryAccountingError
from repro.training.trainer import TrainerConfig, TrainingSession

SHAPE = MicroBatchShape(batch_size=1, enc_seq_len=64)
MODES = (RecomputeMode.NONE, RecomputeMode.SELECTIVE, RecomputeMode.FULL)


def seeded_options(seed: int) -> dict:
    """Executor arguments with order-sensitive (seeded) duration and transfer
    callbacks and a pure activation callback."""
    compute_rng = np.random.default_rng(seed)
    transfer_rng = np.random.default_rng(seed + 1)
    return dict(
        compute_duration_fn=lambda instr: float(compute_rng.uniform(0.1, 3.0)),
        transfer_time_fn=lambda nbytes, src, dst: float(transfer_rng.uniform(0.0, 0.5))
        + nbytes * 1e-9,
        activation_bytes_fn=lambda instr: float(
            (instr.stage + 1) * 1000 + instr.microbatch * 7
        ),
        static_bytes=[float(100 * d) for d in range(8)],
    )


def outcome(executor, streams):
    """Every observable of one run: the result fields, or the error."""
    try:
        result = executor.run(streams)
    except CommunicationDeadlockError as err:
        return ("deadlock", str(err), err.blocked_devices, err.blocked_detail)
    except (MemoryAccountingError, ValueError) as err:
        return (type(err).__name__, str(err))
    return (
        "ok",
        result.makespan_ms,
        result.device_finish_ms,
        result.device_compute_ms,
        result.peak_memory_bytes,
        result.transfer_log,
        result.trace.events,
    )


def assert_same_as_oracle(streams, seed: int = 0, track_memory: bool = True):
    kwargs = seeded_options(seed)
    if not track_memory:
        kwargs.pop("activation_bytes_fn")
    expected = outcome(ScalarInstructionExecutor(**kwargs), streams)
    kwargs = seeded_options(seed)
    if not track_memory:
        kwargs.pop("activation_bytes_fn")
    actual = outcome(InstructionExecutor(**kwargs), streams)
    assert actual == expected
    return actual


# ------------------------------------------------------------- planned streams


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
def planned_programs(
    gpt_cost_model, pp2_cost_model, t5_cost_model, t5_pp2_cost_model, flan_samples, flan_samples_gpt
):
    """Replica streams of real plans: GPT and T5 x pp 2 and 4 x recompute."""
    programs = {}
    for arch, depth, cost_model, samples in (
        ("gpt", 4, gpt_cost_model, flan_samples_gpt),
        ("gpt", 2, pp2_cost_model, flan_samples_gpt),
        ("t5", 4, t5_cost_model, flan_samples),
        ("t5", 2, t5_pp2_cost_model, flan_samples),
    ):
        for mode in MODES:
            planner = DynaPipePlanner(
                cost_model,
                data_parallel_size=2,
                config=PlannerConfig(
                    order_search=False,
                    tmax_sample_count=8,
                    dynamic_recompute=False,
                    recompute=mode,
                ),
            )
            plan = planner.plan(samples[:48])
            for replica, replica_plan in enumerate(plan.plans):
                programs[(arch, depth, mode.value, replica)] = replica_plan.device_instructions
    return programs


PROGRAM_KEYS = [
    (arch, depth, mode.value, replica)
    for arch in ("gpt", "t5")
    for depth in (4, 2)
    for mode in MODES
    for replica in (0, 1)
]


class TestPlannedStreams:
    @given(
        key=st.sampled_from(PROGRAM_KEYS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_planned_streams_match_oracle(self, planned_programs, key, seed):
        outcome_ = assert_same_as_oracle(planned_programs[key], seed)
        assert outcome_[0] == "ok"

    def test_every_program_without_memory_tracking(self, planned_programs):
        for key in PROGRAM_KEYS:
            assert assert_same_as_oracle(planned_programs[key], track_memory=False)[0] == "ok"


# ---------------------------------------------------------- adversarial streams


class TestAdversarialStreams:
    @given(strategies_instructions.planned_streams(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_generated_planned_streams(self, streams, seed):
        assert assert_same_as_oracle(streams, seed)[0] == "ok"

    @given(strategies_instructions.naive_streams(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_naive_streams_same_verdict(self, streams, seed):
        assert_same_as_oracle(streams, seed)

    @given(strategies_instructions.head_mismatched_streams(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_head_mismatched_streams_same_deadlock(self, corrupted, seed):
        streams, _where = corrupted
        assert assert_same_as_oracle(streams, seed)[0] == "deadlock"

    def test_known_mismatch(self):
        streams, _where = strategies_instructions.known_head_mismatch_streams()
        assert assert_same_as_oracle(streams)[0] == "deadlock"

    def test_missing_peer_post_stalls(self):
        streams = [
            [ForwardPass(0, 0, shape=SHAPE)],
            [
                RecvActStart(microbatch=0, stage=1, peer=0, nbytes=1.0),
                WaitRecvAct(microbatch=0, stage=1, peer=0),
                ForwardPass(0, 1, shape=SHAPE),
            ],
        ]
        verdict = assert_same_as_oracle(streams)
        assert verdict[0] == "deadlock" and "stalled" in verdict[1]

    def test_self_channel_never_matches(self):
        streams = [
            [
                SendActStart(microbatch=0, stage=0, peer=0, nbytes=1.0),
                RecvActStart(microbatch=0, stage=0, peer=0, nbytes=1.0),
                WaitRecvAct(microbatch=0, stage=0, peer=0),
            ]
        ]
        verdict = assert_same_as_oracle(streams)
        assert verdict[0] == "deadlock" and "mismatch" in verdict[1]

    def test_double_allocation_and_unknown_free(self):
        double = [[ForwardPass(0, 0, shape=SHAPE), ForwardPass(0, 0, shape=SHAPE)]]
        assert assert_same_as_oracle(double)[0] == "MemoryAccountingError"
        unknown = [[BackwardPass(3, 0, shape=SHAPE)]]
        assert assert_same_as_oracle(unknown)[0] == "MemoryAccountingError"

    def test_negative_activation_bytes(self):
        streams = [[ForwardPass(0, 0, shape=SHAPE), BackwardPass(0, 0, shape=SHAPE)]]
        errors = []
        for executor_cls in (ScalarInstructionExecutor, InstructionExecutor):
            executor = executor_cls(lambda instr: 1.0, activation_bytes_fn=lambda instr: -1.0)
            with pytest.raises(ValueError) as excinfo:
                executor.run(streams)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_device_off_its_channel_is_rejected(self):
        """A Start whose channel does not touch the posting device is refused
        before the run (the scalar loop failed with a bare ``KeyError``)."""
        streams = [[SendActStart(microbatch=0, stage=1, peer=2, nbytes=1.0)], [], []]
        with pytest.raises(ValueError, match="device 0 .* position 0"):
            InstructionExecutor(lambda instr: 1.0).run(streams)

    def test_trace_is_built_on_first_read(self):
        streams = strategies_instructions.streams_from_schedule(
            one_f_one_b_schedule(2, 3)
        )
        result = InstructionExecutor(lambda instr: 1.0).run(streams)
        assert result.trace is result.trace
        assert len(result.trace.events) == 2 * 2 * 3 + 2 * 3


# ------------------------------------------------------------ ground truth


def oracle_session(session: TrainingSession) -> TrainingSession:
    """``session`` with each replica run on the scalar oracle loop, driven by
    the original per-instruction closures (same noise-seed draw per replica)."""

    def make_backend(plan):
        gpu = SimulatedGPU(
            session.cost_model.device_spec,
            noise_std=session.config.noise_std,
            seed=int(session._noise_rng.integers(0, 2**31 - 1)),
        )
        options = closure_backend_options(
            session.cost_model, gpu, session.network, session.config.stages_same_node
        )
        return ScalarInstructionExecutor(
            compute_duration_fn=options.compute_duration_fn,
            transfer_time_fn=options.transfer_time_fn,
            activation_bytes_fn=options.activation_bytes_fn,
            static_bytes=options.static_bytes,
        )

    session._make_backend = make_backend
    return session


class TestGroundTruth:
    @pytest.mark.parametrize(
        "arch,mode",
        [("gpt", RecomputeMode.NONE), ("t5", RecomputeMode.FULL)],
        ids=["gpt-pp4", "t5-pp2-full"],
    )
    def test_seeded_session_matches_closure_oracle(
        self, arch, mode, gpt_cost_model, t5_pp2_cost_model, flan_samples, flan_samples_gpt
    ):
        cost_model, samples = (
            (gpt_cost_model, flan_samples_gpt) if arch == "gpt" else (t5_pp2_cost_model, flan_samples)
        )

        def session():
            planner = DynaPipePlanner(
                cost_model,
                data_parallel_size=2,
                config=PlannerConfig(
                    order_search=False,
                    tmax_sample_count=8,
                    dynamic_recompute=arch == "gpt",
                    recompute=mode,
                ),
            )
            return TrainingSession(
                planner,
                samples,
                global_batch_tokens=4096,
                config=TrainerConfig(max_iterations=10, noise_std=0.05, seed=3, max_seq_len=1024),
            )

        report = session().run()
        expected = oracle_session(session()).run()
        assert len(report.records) == 10
        if arch == "t5":
            assert {record.recompute for record in report.records} == {"full"}
        assert [r.measured_ms for r in report.records] == [
            r.measured_ms for r in expected.records
        ]
        assert [r.measured_peak_bytes for r in report.records] == [
            r.measured_peak_bytes for r in expected.records
        ]

    def test_executor_service_matches_closure_oracle(self, gpt_cost_model, flan_samples_gpt):
        planner = DynaPipePlanner(
            gpt_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        )
        plan = planner.plan(flan_samples_gpt[:40])
        service = ExecutorService(gpt_cost_model, store=None, seed=5)
        rng = np.random.default_rng(5)
        for replica_plan in plan.plans:
            result = service._execute(replica_plan)
            gpu = SimulatedGPU(
                gpt_cost_model.device_spec, noise_std=0.05, seed=int(rng.integers(0, 2**31 - 1))
            )
            options = closure_backend_options(gpt_cost_model, gpu, NetworkModel())
            expected = ScalarInstructionExecutor(
                options.compute_duration_fn,
                options.transfer_time_fn,
                options.activation_bytes_fn,
                options.static_bytes,
            ).run(replica_plan.device_instructions)
            assert result.makespan_ms == expected.makespan_ms
            assert result.peak_memory_bytes == expected.peak_memory_bytes

    def test_instruction_outside_the_plan_is_evaluated(self, gpt_cost_model):
        truth = GroundTruth(gpt_cost_model)
        streams = [[ForwardPass(0, 0, shape=SHAPE)]]
        options = truth.backend_options(streams, SimulatedGPU(gpt_cost_model.device_spec))
        stranger = ForwardPass(0, 0, shape=SHAPE)
        assert options.compute_duration_fn(stranger) == options.compute_duration_fn(streams[0][0])
        assert options.activation_bytes_fn(stranger) == options.activation_bytes_fn(streams[0][0])
        with pytest.raises(TypeError):
            options.compute_duration_fn(WaitRecvAct(microbatch=0, stage=1, peer=0))
