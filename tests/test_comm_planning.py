"""Tests for the communication planner, shapes and static deadlock checker."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import planner as comm_planner
from repro.comm.deadlock import check_comm_order
from repro.comm.planner import (
    _anchor_for_time,
    _start_bounds,
    build_instruction_streams,
    build_naive_instruction_streams,
)
from repro.comm.shapes import TransferShapes
from repro.instructions.ops import (
    BackwardPass,
    ForwardPass,
    RecvActStart,
    SendActStart,
    WaitRecvAct,
    WaitRecvGrad,
    _CommStart,
)
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.cyclic import cyclic_schedule
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.engine import simulate_schedule
from repro.simulator.executor import InstructionExecutor

SHAPE = MicroBatchShape(batch_size=2, enc_seq_len=128)


def uniform_transfer_shapes(num_microbatches: int, num_stages: int) -> TransferShapes:
    return TransferShapes(
        activation_bytes=[[64.0] * num_stages for _ in range(num_microbatches)],
        gradient_bytes=[[64.0] * num_stages for _ in range(num_microbatches)],
    )


def planned_streams(schedule, shapes=None):
    shapes = shapes or [SHAPE] * schedule.num_microbatches
    transfer_shapes = uniform_transfer_shapes(schedule.num_microbatches, schedule.num_stages)
    sim = simulate_schedule(schedule, lambda op: 1.0)
    return build_instruction_streams(schedule, sim.op_times, shapes, transfer_shapes)


class TestTransferShapes:
    def test_from_cost_model_gpt(self, gpt_cost_model):
        shapes = [MicroBatchShape(2, 256), MicroBatchShape(4, 128)]
        transfer = TransferShapes.from_cost_model(gpt_cost_model, shapes)
        assert transfer.act_bytes(0, 0) > 0
        # Gradient into stage j has the size of the activation out of stage j-1.
        assert transfer.grad_bytes(0, 1) == pytest.approx(transfer.act_bytes(0, 0))
        # The last stage sends no activation forward.
        last = gpt_cost_model.num_stages - 1
        assert transfer.act_bytes(0, last) == 0.0
        # The first stage receives no gradient.
        assert transfer.grad_bytes(0, 0) == 0.0

    def test_larger_microbatch_larger_transfers(self, gpt_cost_model):
        small, large = MicroBatchShape(1, 128), MicroBatchShape(4, 128)
        transfer = TransferShapes.from_cost_model(gpt_cost_model, [small, large])
        assert transfer.act_bytes(1, 0) > transfer.act_bytes(0, 0)


class TestPlannedStreams:
    def test_streams_contain_all_compute_ops(self):
        schedule = one_f_one_b_schedule(3, 4)
        streams = planned_streams(schedule)
        compute = [i for stream in streams for i in stream if i.is_compute]
        assert len(compute) == schedule.total_ops()

    def test_compute_order_preserved(self):
        schedule = cyclic_schedule(3, [[1.0] * 3 for _ in range(5)])
        streams = planned_streams(schedule)
        for device, stream in enumerate(streams):
            compute = [
                (type(i).__name__, i.microbatch) for i in stream if i.is_compute
            ]
            expected = [
                ("ForwardPass" if op.op_type.value == "F" else "BackwardPass", op.microbatch)
                for op in schedule.stage(device).ops
            ]
            assert compute == expected

    def test_every_receive_has_wait_before_consumer(self):
        schedule = one_f_one_b_schedule(3, 4)
        streams = planned_streams(schedule)
        for device in range(1, 3):
            stream = streams[device]
            for position, instr in enumerate(stream):
                if isinstance(instr, ForwardPass):
                    # The immediately preceding instruction is the WaitRecvAct.
                    assert isinstance(stream[position - 1], WaitRecvAct)
                    assert stream[position - 1].microbatch == instr.microbatch

    def test_backward_waits_for_gradient(self):
        schedule = one_f_one_b_schedule(3, 4)
        streams = planned_streams(schedule)
        for device in range(2):  # all but the last stage
            stream = streams[device]
            for position, instr in enumerate(stream):
                if isinstance(instr, BackwardPass):
                    assert isinstance(stream[position - 1], WaitRecvGrad)

    def test_sends_and_receives_balanced(self):
        schedule = cyclic_schedule(4, [[1.0] * 4 for _ in range(6)])
        streams = planned_streams(schedule)
        starts = [i for stream in streams for i in stream if isinstance(i, _CommStart)]
        sends = [i for i in starts if i.is_send]
        recvs = [i for i in starts if not i.is_send]
        # 2 transfers per adjacent pair per micro-batch, each with 1 send + 1 recv.
        assert len(sends) == len(recvs) == 2 * 3 * 6

    def test_comm_order_consistent_for_1f1b(self):
        schedule = one_f_one_b_schedule(4, 8)
        report = check_comm_order(planned_streams(schedule))
        assert report.consistent
        assert report.channels_checked == 3

    def test_comm_order_consistent_for_adaptive(self):
        schedule = cyclic_schedule(4, [[1.0] * 4 for _ in range(9)], memory_limits=[3.0] * 4)
        report = check_comm_order(planned_streams(schedule))
        assert report.consistent

    def test_recompute_mode_propagated(self):
        schedule = one_f_one_b_schedule(2, 2)
        shapes = [SHAPE, SHAPE]
        transfer_shapes = uniform_transfer_shapes(2, 2)
        sim = simulate_schedule(schedule, lambda op: 1.0)
        streams = build_instruction_streams(
            schedule, sim.op_times, shapes, transfer_shapes, recompute=RecomputeMode.FULL
        )
        compute = [i for stream in streams for i in stream if i.is_compute]
        assert all(i.recompute is RecomputeMode.FULL for i in compute)

    def test_per_microbatch_recompute_modes(self):
        schedule = one_f_one_b_schedule(2, 2)
        shapes = [SHAPE, SHAPE]
        transfer_shapes = uniform_transfer_shapes(2, 2)
        sim = simulate_schedule(schedule, lambda op: 1.0)
        streams = build_instruction_streams(
            schedule,
            sim.op_times,
            shapes,
            transfer_shapes,
            recompute=[RecomputeMode.NONE, RecomputeMode.FULL],
        )
        modes = {
            i.microbatch: i.recompute
            for stream in streams
            for i in stream
            if isinstance(i, ForwardPass)
        }
        assert modes[0] is RecomputeMode.NONE
        assert modes[1] is RecomputeMode.FULL

    def test_shape_count_mismatch_rejected(self):
        schedule = one_f_one_b_schedule(2, 3)
        transfer_shapes = uniform_transfer_shapes(3, 2)
        sim = simulate_schedule(schedule, lambda op: 1.0)
        with pytest.raises(ValueError):
            build_instruction_streams(schedule, sim.op_times, [SHAPE], transfer_shapes)

    @given(
        stages=st.integers(2, 5),
        microbatches=st.integers(1, 10),
        limit=st.floats(min_value=1.0, max_value=10.0),
        order_seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_planned_order_always_consistent(self, stages, microbatches, limit, order_seed):
        """Property (paper §6): the ahead-of-time planned communication order
        is consistent on every channel for any adaptive schedule, injection
        order and micro-batch mix."""
        import numpy as np

        rng = np.random.default_rng(order_seed)
        activation = [[float(rng.uniform(0.2, 1.0))] * stages for _ in range(microbatches)]
        order = list(rng.permutation(microbatches))
        schedule = cyclic_schedule(
            stages, activation, memory_limits=[limit] * stages, injection_order=[int(x) for x in order]
        )
        durations = {op: float(rng.uniform(0.5, 3.0)) for op in schedule.all_ops()}
        sim = simulate_schedule(schedule, durations)
        shapes = [MicroBatchShape(1, 32)] * microbatches
        transfer_shapes = uniform_transfer_shapes(microbatches, stages)
        streams = build_instruction_streams(schedule, sim.op_times, shapes, transfer_shapes)
        assert check_comm_order(streams).consistent


def linear_anchor(starts, time):
    """The original anchor lookup: scan for the first op starting at/after ``time``."""
    for position, start in enumerate(starts):
        if start >= time - 1e-9:
            return position
    return len(starts)


#: Offsets around an op start that straddle the 1e-9 tolerance.
TOLERANCE_OFFSETS = (-2e-9, -1e-9, -9.99e-10, -5e-10, 0.0, 5e-10, 1e-9, 1.001e-9, 2e-9)


class TestAnchorLookup:
    """The bisected anchor equals the linear scan it replaced."""

    @given(
        starts=st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-9, 1.0 + 5e-10, 2.0, 3.25, 7.0]),
            max_size=12,
        ),
        queries=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25, 7.0, 9.0]),
                st.sampled_from(TOLERANCE_OFFSETS),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_linear_scan(self, starts, queries):
        """Covers non-monotone starts, equal starts and queries within 1e-9."""
        bounds = [max(starts[: i + 1]) for i in range(len(starts))]
        for base, offset in queries:
            time = base + offset
            assert _anchor_for_time(bounds, time) == linear_anchor(starts, time)

    def test_streams_match_linear_scan_on_jittered_times(self, monkeypatch):
        """Whole streams are unchanged when op start times are perturbed so
        that devices see non-monotone starts and near-ties."""
        schedule = cyclic_schedule(4, [[1.0] * 4 for _ in range(8)])
        shapes = [SHAPE] * 8
        transfer_shapes = uniform_transfer_shapes(8, 4)
        sim = simulate_schedule(schedule, lambda op: 1.0 + 0.1 * (op.microbatch % 3))
        jitter = [0.0, 4e-10, -4e-10, 1e-9, -1e-9, 0.3, -1.5]
        op_times = {
            op: (start + jitter[index % len(jitter)], end)
            for index, (op, (start, end)) in enumerate(sorted(
                sim.op_times.items(), key=lambda item: (item[0].stage, item[1])
            ))
        }
        assert any(
            any(b < a for a, b in zip(ops, ops[1:]))
            for ops in ([op_times[op][0] for op in stage.ops] for stage in schedule.stages)
        )
        bisected = build_instruction_streams(schedule, op_times, shapes, transfer_shapes)
        monkeypatch.setattr(
            comm_planner, "_start_bounds", lambda starts: [list(device) for device in starts]
        )
        monkeypatch.setattr(comm_planner, "_anchor_for_time", linear_anchor)
        scanned = build_instruction_streams(schedule, op_times, shapes, transfer_shapes)
        assert bisected == scanned

    def test_start_bounds_are_running_maxima(self):
        schedule = one_f_one_b_schedule(2, 3)
        starts = iter([0.0, 2.0, 1.0, 3.0, 2.5, 4.0, 5.0, 1.5, 6.0, 6.0, 7.0, 0.5])
        per_device = [[next(starts) for _ in stage.ops] for stage in schedule.stages]
        assert _start_bounds(per_device) == [
            [0.0, 2.0, 2.0, 3.0, 3.0, 4.0],
            [5.0, 5.0, 6.0, 6.0, 7.0, 7.0],
        ]


class TestNaiveStreams:
    def test_naive_streams_have_all_compute_ops(self):
        schedule = cyclic_schedule(3, [[1.0] * 3 for _ in range(4)])
        shapes = [SHAPE] * 4
        streams = build_naive_instruction_streams(
            schedule, shapes, uniform_transfer_shapes(4, 3)
        )
        compute = [i for stream in streams for i in stream if i.is_compute]
        assert len(compute) == schedule.total_ops()

    def test_naive_order_mismatch_detected_statically(self):
        schedule = cyclic_schedule(4, [[1.0] * 4 for _ in range(8)])
        shapes = [SHAPE] * 8
        streams = build_naive_instruction_streams(
            schedule, shapes, uniform_transfer_shapes(8, 4)
        )
        report = check_comm_order(streams)
        assert not report.consistent
        assert report.mismatches


class TestCheckCommOrder:
    def test_start_off_its_channel_raises_the_executor_error(self):
        """A Start op on a channel its device is not an end of is the
        executor's attributed ``ValueError`` (was a bare ``KeyError(0)``)."""
        streams = [[SendActStart(0, 1, peer=2, nbytes=1.0)], [], []]
        with pytest.raises(ValueError) as checked:
            check_comm_order(streams)
        with pytest.raises(ValueError) as executed:
            InstructionExecutor(lambda instr: 1.0).run(streams)
        assert str(checked.value) == str(executed.value) == (
            "device 0 posts send_act_start at position 0 on channel (1, 2), "
            "which it is not an end of"
        )

    def test_consistent_trivial_exchange(self):
        streams = [
            [SendActStart(microbatch=0, stage=0, peer=1, nbytes=1.0)],
            [RecvActStart(microbatch=0, stage=1, peer=0, nbytes=1.0)],
        ]
        report = check_comm_order(streams)
        assert report.consistent
        assert report.channels_checked == 1

    def test_unbalanced_channel_detected(self):
        streams = [
            [SendActStart(microbatch=0, stage=0, peer=1, nbytes=1.0)],
            [],
        ]
        report = check_comm_order(streams)
        assert not report.consistent
        assert report.mismatches[0]["reason"] == "unequal number of posted transfers"

    def test_empty_streams(self):
        report = check_comm_order([[], []])
        assert report.consistent
        assert report.channels_checked == 0
