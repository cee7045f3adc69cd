"""Packed window-shape dedup and the singleton-feasibility gate.

The planner's window geometry packs each window's ``(size, enc, dec)`` shape
into one int64 key and deduplicates with a 1-D ``np.unique``; these tests
diff it against the row-wise ``np.unique(axis=0)`` formulation kept in
``tests/oracles/window_geometry.py``.  The gate costs the size-1 shapes
before the rest of the table; its error and the planner's choices must
equal those of the ungated table.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import window_geometry as oracle
from repro.core.dp_solver import PartitionError, solve_partition
from repro.core.microbatch import DynamicMicroBatcher
from repro.core.ordering import order_samples
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode

#: Sample lengths up to the longest profiled sequence the paper uses.
_LENGTH = st.integers(min_value=1, max_value=8192)


def _samples(draw_pairs) -> list[Sample]:
    return [Sample(input_tokens=enc, target_tokens=dec) for enc, dec in draw_pairs]


_SAMPLE_LISTS = st.lists(
    st.tuples(_LENGTH, st.integers(min_value=0, max_value=8192)), min_size=1, max_size=48
).map(_samples)


def _assert_matches_oracle(batcher: DynamicMicroBatcher, ordered: list[Sample]) -> None:
    geometry = batcher._window_geometry(ordered)
    enc, dec = oracle.sample_lengths(ordered, batcher.decoder_only)
    unique, inverse, start_index, size_index = oracle.window_geometry(
        enc, dec, batcher.max_microbatch_size
    )
    assert np.array_equal(geometry.unique.T, unique)
    assert np.array_equal(geometry.rows[start_index, size_index], inverse)
    # Every other cell is a window running past the end of the mini-batch.
    past_end = np.ones(geometry.rows.shape, dtype=bool)
    past_end[start_index, size_index] = False
    assert np.all(geometry.rows[past_end] == len(unique))
    assert geometry.num_singletons == int(np.sum(unique[:, 0] == 1))
    assert np.array_equal(
        geometry.unique.T[geometry.rows[:, 0]], np.stack([np.ones_like(enc), enc, dec], 1)
    )


class TestPackedDedup:
    @settings(max_examples=60, deadline=None)
    @given(samples=_SAMPLE_LISTS, max_microbatch_size=st.integers(1, 64))
    def test_encoder_decoder_matches_oracle(self, t5_cost_model, samples, max_microbatch_size):
        """Hypothesis samples arrive unsorted: a non-monotone ordering."""
        batcher = DynamicMicroBatcher(t5_cost_model, max_microbatch_size=max_microbatch_size)
        _assert_matches_oracle(batcher, samples)

    @settings(max_examples=60, deadline=None)
    @given(samples=_SAMPLE_LISTS, max_microbatch_size=st.integers(1, 64))
    def test_decoder_only_matches_oracle(self, gpt_cost_model, samples, max_microbatch_size):
        batcher = DynamicMicroBatcher(gpt_cost_model, max_microbatch_size=max_microbatch_size)
        _assert_matches_oracle(batcher, samples)

    @settings(max_examples=30, deadline=None)
    @given(samples=_SAMPLE_LISTS)
    def test_sorted_ordering_matches_oracle(self, t5_cost_model, samples):
        batcher = DynamicMicroBatcher(t5_cost_model)
        _assert_matches_oracle(
            batcher, order_samples(samples, batcher.ordering, decoder_only=False)
        )

    def test_single_sample(self, t5_cost_model, gpt_cost_model):
        for cost_model in (t5_cost_model, gpt_cost_model):
            batcher = DynamicMicroBatcher(cost_model)
            _assert_matches_oracle(batcher, [Sample(input_tokens=8192, target_tokens=8192)])

    def test_fewer_samples_than_max_microbatch_size(self, t5_cost_model, flan_samples):
        batcher = DynamicMicroBatcher(t5_cost_model, max_microbatch_size=256)
        _assert_matches_oracle(batcher, flan_samples[:37])

    def test_empty_window_bound_rejected(self, gpt_cost_model):
        with pytest.raises(ValueError, match="max_microbatch_size"):
            DynamicMicroBatcher(gpt_cost_model, max_microbatch_size=0)

    def test_radix_overflow_raises(self, t5_cost_model):
        batcher = DynamicMicroBatcher(t5_cost_model)
        huge = [Sample(input_tokens=1 << 31, target_tokens=1 << 31)] * 4
        with pytest.raises(ValueError, match="int64"):
            batcher._window_geometry(huge)
        with pytest.raises(ValueError, match="int64"):
            batcher.split(huge)


# --------------------------------------------------------------------- gate


def _row_spy(monkeypatch, cost_model) -> list[int]:
    """Record the number of shapes of every ``window_costs_arrays`` call."""
    rows: list[int] = []
    query = cost_model.window_costs_arrays

    def spy(batch, enc, dec, recompute=RecomputeMode.NONE):
        rows.append(len(batch))
        return query(batch, enc, dec, recompute)

    monkeypatch.setattr(cost_model, "window_costs_arrays", spy)
    return rows


def _tight_batcher(cost_model, samples) -> DynamicMicroBatcher:
    """A batcher whose limit some sample alone exceeds under NONE, none under FULL."""
    batcher = DynamicMicroBatcher(cost_model, tmax_sample_count=8)
    enc, dec = oracle.sample_lengths(samples, batcher.decoder_only)
    singles = np.ones(len(samples)), enc.astype(float), dec.astype(float)
    _, none_need = cost_model.window_costs_arrays(*singles, RecomputeMode.NONE)
    _, full_need = cost_model.window_costs_arrays(*singles, RecomputeMode.FULL)
    assert full_need.max() < none_need.max()
    batcher.per_microbatch_memory_bytes = float(full_need.max() + none_need.max()) / 2
    return batcher


class TestSingletonGate:
    @pytest.mark.parametrize("model", ["gpt", "t5"])
    def test_infeasible_mode_costs_only_singletons(
        self, monkeypatch, model, gpt_cost_model, t5_cost_model, flan_samples, flan_samples_gpt
    ):
        cost_model, samples = {
            "gpt": (gpt_cost_model, flan_samples_gpt[:64]),
            "t5": (t5_cost_model, flan_samples[:64]),
        }[model]
        batcher = _tight_batcher(cost_model, samples)
        rows = _row_spy(monkeypatch, cost_model)
        with pytest.raises(PartitionError) as gated:
            batcher.split(samples, RecomputeMode.NONE)
        assert sum(rows) <= len(samples)

        # The ungated table carries the same infeasible singleton to the solver.
        ordered = order_samples(samples, batcher.ordering, decoder_only=batcher.decoder_only)
        table = oracle.window_cost_table(batcher, ordered, RecomputeMode.NONE)
        with pytest.raises(PartitionError) as full:
            solve_partition(
                num_samples=len(ordered),
                num_stages=cost_model.num_stages,
                cost_table=table,
                max_microbatch_size=batcher.max_microbatch_size,
                tmax_sample_count=batcher.tmax_sample_count,
            )
        assert str(gated.value) == str(full.value)

        # A feasible mode costs every unique shape exactly once.
        rows.clear()
        batcher.split(samples, RecomputeMode.FULL)
        assert len(rows) == 2
        assert sum(rows) == table.unique_shape_evaluations

    def test_feasible_table_equals_ungated_table(self, t5_cost_model, flan_samples):
        batcher = DynamicMicroBatcher(t5_cost_model)
        ordered = order_samples(flan_samples[:90], batcher.ordering, decoder_only=False)
        for mode in RecomputeMode:
            gated = batcher.build_window_cost_table(ordered, mode)
            reference = oracle.window_cost_table(batcher, ordered, mode)
            assert np.array_equal(gated.times, reference.times)
            assert np.array_equal(gated.feasible, reference.feasible)
            assert gated.unique_shape_evaluations == reference.unique_shape_evaluations

    @pytest.mark.parametrize(
        "headroom, mode",
        [
            (1.01, RecomputeMode.FULL),
            (1.05, RecomputeMode.SELECTIVE),
            (1.2, RecomputeMode.NONE),
        ],
    )
    def test_planner_choices_unchanged(self, t5_cost_model, flan_samples, headroom, mode):
        """Seeded T5 mini-batches under dynamic recompute: same mode, same DP.

        The device memory sits just above the static footprint, so the
        planner walks NONE → SELECTIVE → FULL until a mode fits.
        """
        static = max(t5_cost_model.stage_static_bytes(j) for j in range(t5_cost_model.num_stages))
        config = PlannerConfig(order_search=False, device_memory_bytes=static * headroom)
        gated = DynaPipePlanner(t5_cost_model, data_parallel_size=2, config=config)
        ungated = DynaPipePlanner(t5_cost_model, data_parallel_size=2, config=config)
        batcher = ungated._batcher
        batcher.build_window_cost_table = lambda ordered, recompute=None: (
            oracle.window_cost_table(batcher, ordered, recompute)
        )
        rng = np.random.default_rng(int(headroom * 100))
        for iteration in range(3):
            picks = rng.choice(len(flan_samples), size=48, replace=False)
            samples = [flan_samples[i] for i in picks]
            plans = [planner.plan(samples, iteration=iteration) for planner in (gated, ungated)]
            assert plans[0].recompute == plans[1].recompute == mode
            assert plans[0].dp_solution.boundaries == plans[1].dp_solution.boundaries
            assert plans[0].predicted_iteration_ms == plans[1].predicted_iteration_ms
