"""Tests for repro.cluster.network."""

from __future__ import annotations

import pytest

from repro.cluster.network import EFA_400GBPS, NVSWITCH, LinkSpec, NetworkModel


class TestLinkSpec:
    def test_transfer_time_includes_latency(self):
        link = LinkSpec("test", bandwidth=1e9, latency_ms=1.0)
        assert link.transfer_time_ms(0) == pytest.approx(1.0)

    def test_transfer_time_scales_with_bytes(self):
        link = LinkSpec("test", bandwidth=1e9, latency_ms=0.0)
        assert link.transfer_time_ms(1e9) == pytest.approx(1000.0)
        assert link.transfer_time_ms(2e9) == pytest.approx(2000.0)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", bandwidth=0, latency_ms=0)
        with pytest.raises(ValueError):
            LinkSpec("bad", bandwidth=1, latency_ms=-1)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NVSWITCH.transfer_time_ms(-1)

    def test_array_transfer_times_equal_scalar_calls(self):
        nbytes = [[0.0, 1.0, 3 * 1024**2], [12_582_912.0, 7e9, 123.456]]
        for link in (NVSWITCH, EFA_400GBPS):
            times = link.transfer_times_ms(nbytes)
            assert times.tolist() == [[link.transfer_time_ms(b) for b in row] for row in nbytes]

    def test_array_negative_bytes_rejected_like_scalar(self):
        with pytest.raises(ValueError, match=r"nbytes must be >= 0, got -2\.0"):
            NVSWITCH.transfer_times_ms([[1.0, -2.0], [-3.0, 0.0]])

    def test_nvswitch_faster_than_efa(self):
        nbytes = 100 * 1024**2
        assert NVSWITCH.transfer_time_ms(nbytes) < EFA_400GBPS.transfer_time_ms(nbytes)


class TestNetworkModel:
    def test_link_selection(self):
        net = NetworkModel()
        assert net.link_for(same_node=True) is net.intra_node
        assert net.link_for(same_node=False) is net.inter_node

    def test_p2p_intra_node_faster(self):
        net = NetworkModel()
        nbytes = 64 * 1024**2
        assert net.p2p_time_ms(nbytes, same_node=True) < net.p2p_time_ms(nbytes, same_node=False)

    def test_allreduce_single_participant_free(self):
        net = NetworkModel()
        assert net.allreduce_time_ms(1e9, participants=1, same_node=True) == 0.0

    def test_allreduce_grows_with_volume(self):
        net = NetworkModel()
        small = net.allreduce_time_ms(1e6, participants=4, same_node=True)
        large = net.allreduce_time_ms(1e9, participants=4, same_node=True)
        assert large > small

    def test_allreduce_volume_factor(self):
        # The ring all-reduce volume factor 2(p-1)/p approaches 2 for large p.
        net = NetworkModel(intra_node=LinkSpec("zero-lat", bandwidth=1e9, latency_ms=0.0))
        two = net.allreduce_time_ms(1e9, participants=2, same_node=True)
        many = net.allreduce_time_ms(1e9, participants=64, same_node=True)
        assert two == pytest.approx(1000.0)  # factor 1.0
        assert many == pytest.approx(2000.0, rel=0.05)  # factor ~2

    def test_allreduce_invalid_participants(self):
        with pytest.raises(ValueError):
            NetworkModel().allreduce_time_ms(1e6, participants=0, same_node=True)
