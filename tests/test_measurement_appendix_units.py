"""Unit-level tests for the appendix harness helpers."""

import pytest

from repro.measurement.appendix import (
    AppendixSamples,
    _collector_over_core,
    _hypergiant_prefixes,
    announced_prefix_snapshot,
    covered_prefix_fraction,
)
from repro.net.addr import IPv4Prefix
from repro.topology.generator import generate_topology

from tests.conftest import FAST_TIMING


@pytest.fixture(scope="module")
def topo():
    return generate_topology()


class TestAppendixSamples:
    def test_combined_concatenates(self):
        samples = AppendixSamples(hypergiant=[1.0, 2.0], testbed=[3.0])
        assert sorted(samples.combined()) == [1.0, 2.0, 3.0]

    def test_empty(self):
        assert AppendixSamples().combined() == []


class TestHypergiantPrefixes:
    def test_per_giant_count(self, topo):
        prefixes = _hypergiant_prefixes(topo, per_giant=2)
        assert len(prefixes) == topo.params.n_hypergiant
        for giant, blocks in prefixes.items():
            assert len(blocks) == 2
            parent = topo.ases[giant].prefix
            for block in blocks:
                assert block.length == 24
                assert parent.covers(block)

    def test_prefixes_disjoint_across_giants(self, topo):
        prefixes = _hypergiant_prefixes(topo, per_giant=3)
        seen = set()
        for blocks in prefixes.values():
            for block in blocks:
                assert block not in seen
                seen.add(block)


class TestCollectorOverCore:
    def test_attaches_core_routers_only(self, topo):
        network = topo.build_network(timing=FAST_TIMING)
        collector = _collector_over_core(network)
        assert collector.peers
        for peer in collector.peers:
            assert peer.startswith(("t1-", "tr-", "rg-"))
        # Edge networks never feed the collector.
        assert not any(p.startswith(("eye-", "uni-", "stub-")) for p in collector.peers)


class TestSnapshotCalibration:
    def test_one_in_three_giants_announce_covering(self, topo):
        snapshot = announced_prefix_snapshot(topo)
        covering = [
            giant
            for giant, prefixes in snapshot.items()
            if any(p.length < 24 for p in prefixes)
        ]
        expected = (topo.params.n_hypergiant + 2) // 3
        assert len(covering) == expected


class TestCoveredPrefixFraction:
    def P(self, text):
        return IPv4Prefix.parse(text)

    def test_no_covering(self):
        announced = {"hg": [self.P("10.0.0.0/24"), self.P("10.1.0.0/24")]}
        assert covered_prefix_fraction(announced) == 0.0

    def test_all_covered(self):
        announced = {"hg": [self.P("10.0.0.0/16"), self.P("10.0.1.0/24")]}
        # /24 is the only most-specific; it is covered by the /16.
        assert covered_prefix_fraction(announced) == 1.0

    def test_mixed(self):
        announced = {
            "hg": [
                self.P("10.0.0.0/16"),
                self.P("10.0.1.0/24"),   # covered most-specific
                self.P("192.168.0.0/24"),  # uncovered most-specific
            ]
        }
        assert covered_prefix_fraction(announced) == pytest.approx(0.5)

    def test_per_network_isolation(self):
        """A covering prefix announced by a *different* network does not
        count (the paper requires same-hypergiant covering)."""
        announced = {
            "hg-a": [self.P("10.0.0.0/16")],
            "hg-b": [self.P("10.0.1.0/24")],
        }
        assert covered_prefix_fraction(announced) == 0.0

    def test_empty(self):
        assert covered_prefix_fraction({}) == 0.0
