"""The timed network: its spec, its latency draws and partial synchrony."""

import math

import pytest

from repro.eventsim.network import NetworkSpec


def test_fixed_latency():
    net = NetworkSpec(kind="fixed", low=2.5, delta=3.0).build(0)
    assert net.transit_time(0.0, 0, 1) == 2.5


class TestNetworkSpecValidation:
    def test_fixed_kind_rejects_non_positive_latency(self):
        with pytest.raises(ValueError, match="positive"):
            NetworkSpec(kind="fixed", low=0.0)
        with pytest.raises(ValueError, match="positive"):
            NetworkSpec(kind="fixed", low=-2.0)

    def test_uniform_kind_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="low"):
            NetworkSpec(kind="uniform", low=0.0, high=1.0)
        with pytest.raises(ValueError, match="low"):
            NetworkSpec(kind="uniform", low=3.0, high=1.0)

    def test_valid_specs_still_build(self):
        assert NetworkSpec(kind="fixed", low=1.5).build(0) is not None
        assert NetworkSpec(kind="uniform", low=0.5, high=2.0).build(0) is not None


def test_latency_facts():
    """The one deadline rule: every message sent at ``now`` meets ``now +
    Δ`` (True), none does (False), or only the draws can tell (None)."""
    # A post-GST draw is clamped to δ only where it can exceed it: a uniform
    # model's ``high``, a fixed one's ``low``.
    assert not NetworkSpec(low=0.5, high=2.0, delta=2.0).clamps
    assert NetworkSpec(low=0.5, high=2.5, delta=2.0).clamps
    assert not NetworkSpec(kind="fixed", low=1.5, high=9.0, delta=2.0).clamps
    assert NetworkSpec(kind="fixed", low=2.5, high=1.0, delta=2.0).clamps
    ulp_above = math.nextafter(2.5, 3.0)
    for spec, now, verdict in [
        (NetworkSpec(gst=10.0), 7.5, None),  # pre-GST
        (NetworkSpec(gst=10.0), 10.0, True),
        (NetworkSpec(high=2.5, delta=2.5), 0.0, True),  # high == Δ is on time
        (NetworkSpec(high=ulp_above, delta=3.0), 0.0, None),
        # Rounding hides the ulp this late, but the rule is one for all rounds.
        (NetworkSpec(high=ulp_above, delta=3.0), 1e6, None),
        (NetworkSpec(high=3.2), 0.0, True),  # clamped to δ = 2 ≤ Δ
        (NetworkSpec(high=3.2, delta=3.0), 0.0, None),
        (NetworkSpec(kind="fixed", low=3.0, delta=2.0), 0.0, True),
        (NetworkSpec(kind="fixed", low=3.0, delta=3.0), 0.0, False),  # all miss
        (NetworkSpec(kind="fixed", gst=5.0), 2.5, None),
    ]:
        assert spec.arrives(now) is verdict, (spec, now)


def test_uniform_latency_bounds():
    net = NetworkSpec(low=0.5, high=2.0, delta=5.0).build(0)
    samples = [net.transit_time(0.0, 0, 1) for _ in range(100)]
    assert all(0.5 <= s <= 2.0 for s in samples)


class TestPartialSynchrony:
    def test_post_gst_clamped_to_delta(self):
        net = NetworkSpec(low=1.0, high=50.0, gst=10.0, delta=2.0).build(1)
        for _ in range(50):
            assert net.transit_time(10.0, 0, 1) <= 2.0
            assert net.transit_time(99.0, 0, 1) <= 2.0

    def test_pre_gst_can_exceed_delta(self):
        net = NetworkSpec(
            kind="fixed",
            low=1.0,
            gst=100.0,
            delta=2.0,
            pre_gst_delay_prob=1.0,
            chaos_factor=50.0,
        ).build(1)
        assert net.transit_time(0.0, 0, 1) == 50.0

    def test_pre_gst_without_delay_uses_base(self):
        net = NetworkSpec(
            kind="fixed", low=1.0, gst=100.0, delta=2.0, pre_gst_delay_prob=0.0
        ).build(0)
        assert net.transit_time(0.0, 0, 1) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(kind="fixed", low=1.0, delta=0.0)
        with pytest.raises(ValueError):
            NetworkSpec(kind="fixed", low=1.0, pre_gst_delay_prob=2.0)
