"""Tests for the 1F1B schedule and the schedule representation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule.events import OpType, PipelineSchedule
from repro.schedule.one_f_one_b import one_f_one_b_schedule, one_f_one_b_stage_sequences
from repro.schedule.validation import validate_schedule


class TestEvents:
    def test_injection_order(self):
        schedule = one_f_one_b_schedule(2, 4)
        assert schedule.injection_order() == [0, 1, 2, 3]

    def test_total_ops(self):
        schedule = one_f_one_b_schedule(3, 5)
        assert schedule.total_ops() == 2 * 3 * 5

    def test_forward_backward_positions(self):
        stage = one_f_one_b_schedule(2, 3).stage(0)
        forwards = stage.forward_positions()
        backwards = stage.backward_positions()
        assert set(forwards) == set(backwards) == {0, 1, 2}
        assert all(forwards[mb] < backwards[mb] for mb in forwards)


class TestOneFOneB:
    @pytest.mark.parametrize("c, m", [(1, 1), (1, 3), (3, 2), (4, 8), (5, 3)])
    def test_encoded_sequences_match_schedule(self, c, m):
        schedule = one_f_one_b_schedule(c, m)
        encoded = [
            [(op.microbatch << 1) | (op.op_type is OpType.FORWARD) for op in stage.ops]
            for stage in schedule.stages
        ]
        assert one_f_one_b_stage_sequences(c, m) == encoded

    def test_single_stage_alternates(self):
        schedule = one_f_one_b_schedule(1, 3)
        ops = [(op.op_type, op.microbatch) for op in schedule.stage(0).ops]
        assert ops == [
            (OpType.FORWARD, 0),
            (OpType.BACKWARD, 0),
            (OpType.FORWARD, 1),
            (OpType.BACKWARD, 1),
            (OpType.FORWARD, 2),
            (OpType.BACKWARD, 2),
        ]

    def test_warmup_forward_counts(self):
        """Stage j starts with (c - j) consecutive forwards: its c-1-j warm-up
        forwards plus the first steady-state forward."""
        c, m = 4, 8
        schedule = one_f_one_b_schedule(c, m)
        for stage_index in range(c):
            ops = schedule.stage(stage_index).ops
            initial_forwards = 0
            for op in ops:
                if op.op_type is OpType.FORWARD:
                    initial_forwards += 1
                else:
                    break
            assert initial_forwards == c - stage_index

    def test_last_stage_strict_alternation(self):
        schedule = one_f_one_b_schedule(4, 6)
        ops = schedule.stage(3).ops
        types = [op.op_type for op in ops]
        assert types == [OpType.FORWARD, OpType.BACKWARD] * 6

    def test_in_flight_bounded_by_stage_distance(self):
        """Stage j never holds more than (c - j) forward activations."""
        c, m = 4, 10
        schedule = one_f_one_b_schedule(c, m)
        for j in range(c):
            in_flight = 0
            max_in_flight = 0
            for op in schedule.stage(j).ops:
                if op.op_type is OpType.FORWARD:
                    in_flight += 1
                else:
                    in_flight -= 1
                max_in_flight = max(max_in_flight, in_flight)
            assert max_in_flight <= c - j

    def test_fewer_microbatches_than_stages(self):
        schedule = one_f_one_b_schedule(4, 2)
        validate_schedule(schedule)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            one_f_one_b_schedule(0, 4)
        with pytest.raises(ValueError):
            one_f_one_b_schedule(4, 0)

    @given(stages=st.integers(1, 8), microbatches=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_always_valid(self, stages, microbatches):
        schedule = one_f_one_b_schedule(stages, microbatches)
        validate_schedule(schedule)
        assert schedule.name == "1f1b"
