"""Unit tests for the geography and latency model."""

import math
import random

from hypothesis import given, strategies as st

from repro.topology.geo import (
    KM_PER_MS,
    REGIONS,
    Location,
    distance_km,
    link_latency_s,
    place_in,
)


class TestRegions:
    def test_paper_site_regions_exist(self):
        """Every region a default site lives in must be defined."""
        for region in ("us-west", "us-mountain", "us-central", "us-east",
                       "eu-west", "eu-south", "sa-east"):
            assert region in REGIONS

    def test_transatlantic_scale(self):
        """us-east <-> eu-west should be far beyond the 50 ms RTT bound."""
        a = REGIONS["us-east"]
        b = REGIONS["eu-west"]
        d = math.hypot(a.x - b.x, a.y - b.y)
        rtt = 2 * d / KM_PER_MS
        assert rtt > 50.0

    def test_intra_us_east_west_within_reach(self):
        """Coast-to-coast stays around the 50 ms boundary, so proximity
        filters discriminate within the US."""
        a = REGIONS["us-west"]
        b = REGIONS["us-east"]
        rtt = 2 * math.hypot(a.x - b.x, a.y - b.y) / KM_PER_MS
        assert 20.0 < rtt < 60.0


class TestPlacement:
    def test_place_in_within_spread(self):
        rng = random.Random(0)
        for _ in range(50):
            loc = place_in("eu-west", rng)
            region = REGIONS["eu-west"]
            assert distance_km(loc, Location("eu-west", region.x, region.y)) <= region.spread + 1e-9
            assert loc.region == "eu-west"

    def test_placement_deterministic_per_rng(self):
        assert place_in("us-west", random.Random(1)) == place_in("us-west", random.Random(1))


class TestLatency:
    def test_zero_distance_has_overhead_only(self):
        loc = Location("x", 0.0, 0.0)
        assert link_latency_s(loc, loc, overhead_ms=1.0) == 0.001

    def test_latency_scales_with_distance(self):
        a = Location("x", 0.0, 0.0)
        b = Location("x", 2000.0, 0.0)
        # 2000 km at 200 km/ms = 10 ms + 1 ms overhead
        assert abs(link_latency_s(a, b) - 0.011) < 1e-9

    @given(
        st.floats(min_value=-1e4, max_value=1e4),
        st.floats(min_value=-1e4, max_value=1e4),
        st.floats(min_value=-1e4, max_value=1e4),
        st.floats(min_value=-1e4, max_value=1e4),
    )
    def test_distance_symmetric(self, x1, y1, x2, y2):
        a = Location("r", x1, y1)
        b = Location("r", x2, y2)
        assert distance_km(a, b) == distance_km(b, a)
