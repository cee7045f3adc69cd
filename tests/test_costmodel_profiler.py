"""Tests for repro.costmodel.profiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.costmodel.profiler import LayerProfiler, default_profile_grid
from repro.model.memory import RecomputeMode


class TestDefaultGrid:
    def test_powers_of_two(self):
        batches, seqs = default_profile_grid(max_batch_size=16, max_seq_len=1024)
        assert batches == [1, 2, 4, 8, 16]
        assert seqs == [32, 64, 128, 256, 512, 1024]

    def test_non_power_of_two_max_included(self):
        batches, seqs = default_profile_grid(max_batch_size=12, max_seq_len=100)
        assert batches[-1] == 12
        assert seqs[-1] == 100

    def test_invalid_limits(self):
        with pytest.raises(ValueError):
            default_profile_grid(max_batch_size=0)
        with pytest.raises(ValueError):
            default_profile_grid(max_seq_len=16)


class TestEncoderProfile:
    def test_profile_contains_all_modes(self, tiny_gpt_config, small_device):
        profiler = LayerProfiler(tiny_gpt_config, device_spec=small_device)
        profile = profiler.profile_encoder_layer([1, 2, 4], [32, 64, 128])
        for mode in RecomputeMode:
            assert profile.query_backward(mode, 2, 64) > 0
            assert profile.query_activation(mode, 2, 64) > 0

    def test_grid_points_match_direct_evaluation(self, tiny_gpt_config, small_device):
        """At profiled grid points the interpolator returns the exact value."""
        from repro.cluster.device import SimulatedGPU
        from repro.model.transformer import LayerAssignment, MicroBatchShape, StageModel

        profiler = LayerProfiler(tiny_gpt_config, device_spec=small_device)
        profile = profiler.profile_encoder_layer([1, 2, 4], [32, 64, 128])
        stage = StageModel(
            tiny_gpt_config,
            LayerAssignment(stage=0, encoder_layers=1, decoder_layers=0, has_output_projection=False),
        )
        gpu = SimulatedGPU(small_device)
        direct = stage.forward_time_ms(gpu, MicroBatchShape(2, 64))
        assert profile.query_forward(2, 64) == pytest.approx(direct, rel=1e-9)

    def test_interpolated_point_between_neighbours(self, tiny_gpt_config, small_device):
        profiler = LayerProfiler(tiny_gpt_config, device_spec=small_device)
        profile = profiler.profile_encoder_layer([1, 2, 4], [32, 64, 128])
        mid = profile.query_forward(2, 96)
        low = profile.query_forward(2, 64)
        high = profile.query_forward(2, 128)
        assert low < mid < high

    def test_backward_exceeds_forward(self, tiny_gpt_config, small_device):
        profiler = LayerProfiler(tiny_gpt_config, device_spec=small_device)
        profile = profiler.profile_encoder_layer([1, 2], [32, 64])
        assert profile.query_backward(RecomputeMode.NONE, 2, 64) > profile.query_forward(2, 64)


class TestDecoderProfile:
    def test_3d_profile(self, tiny_t5_config, small_device):
        profiler = LayerProfiler(tiny_t5_config, device_spec=small_device)
        profile = profiler.profile_decoder_layer([1, 2], [32, 64], [32, 64, 128])
        assert profile.dims == 3
        assert profile.query_forward(1, 32, 64) > 0

    def test_source_length_increases_cost(self, tiny_t5_config, small_device):
        profiler = LayerProfiler(tiny_t5_config, device_spec=small_device)
        profile = profiler.profile_decoder_layer([1, 2], [32, 64], [32, 64, 128])
        assert profile.query_forward(2, 64, 128) > profile.query_forward(2, 64, 32)


class TestBuildDatabase:
    def test_gpt_database_has_only_encoder(self, tiny_gpt_config, small_device):
        profiler = LayerProfiler(tiny_gpt_config, device_spec=small_device)
        database = profiler.build_database(max_batch_size=4, max_seq_len=256)
        assert "encoder" in database.profiles
        assert "decoder" not in database.profiles

    def test_t5_database_has_both(self, tiny_t5_config, small_device):
        profiler = LayerProfiler(tiny_t5_config, device_spec=small_device)
        database = profiler.build_database(max_batch_size=4, max_seq_len=256)
        assert set(database.profiles) == {"encoder", "decoder"}

    def test_missing_kind_raises(self, tiny_gpt_config, small_device):
        profiler = LayerProfiler(tiny_gpt_config, device_spec=small_device)
        database = profiler.build_database(max_batch_size=2, max_seq_len=128)
        with pytest.raises(KeyError):
            database.get("decoder")

    def test_database_metadata(self, tiny_gpt_config, small_device):
        profiler = LayerProfiler(tiny_gpt_config, device_spec=small_device)
        database = profiler.build_database(max_batch_size=2, max_seq_len=128)
        assert database.model_name == tiny_gpt_config.name
        assert database.device_name == small_device.name


class TestBatchedQuery:
    """``LayerProfile.query_many`` equals the three scalar queries exactly."""

    @pytest.mark.parametrize("kind", ["encoder", "decoder"])
    def test_matches_scalar_queries(self, tiny_t5_config, small_device, kind):
        database = LayerProfiler(tiny_t5_config, device_spec=small_device).build_database(
            max_batch_size=16, max_seq_len=512
        )
        profile = database.get(kind)
        rng = np.random.default_rng(0)
        # Inside the grid, on it, and extrapolated beyond either end.
        coords = rng.uniform(0.5, 1024.0, size=(40, profile.dims))
        coords[:5] = np.round(coords[:5])
        for mode in RecomputeMode:
            forward, backward, activation = profile.query_many(mode, coords)
            assert np.array_equal(forward, [profile.query_forward(*c) for c in coords])
            assert np.array_equal(backward, [profile.query_backward(mode, *c) for c in coords])
            assert np.array_equal(
                activation, [profile.query_activation(mode, *c) for c in coords]
            )
