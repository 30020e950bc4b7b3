"""Tests for hitlist generation and §5.1 target selection."""

import pytest

from repro.measurement.catchment import anycast_catchment
from repro.measurement.hitlist import Hitlist, select_targets


@pytest.fixture(scope="module")
def catchment(deployment):
    return anycast_catchment(deployment.topology, deployment)


class TestHitlist:
    def test_one_entry_per_client_prefix(self, topology):
        hitlist = Hitlist(topology, responsive_prob=1.0)
        with_prefix = [a for a in topology.ases.values() if a.prefix is not None]
        assert len(hitlist) == len(with_prefix)

    def test_addresses_inside_owner_prefix(self, topology):
        for entry in Hitlist(topology).entries:
            assert topology.ases[entry.node].prefix.contains(entry.address)

    def test_responsiveness_filter(self, topology):
        hitlist = Hitlist(topology, responsive_prob=0.5, seed=1)
        responsive = [e for e in hitlist.entries if e.responsive]
        assert 0 < len(responsive) < len(hitlist)

    def test_web_client_flag_matches_topology(self, topology):
        hitlist = Hitlist(topology, responsive_prob=1.0)
        population = hitlist.responsive_web_clients()
        nodes = {e.node for e in population}
        expected = {a.node_id for a in topology.web_client_ases()}
        assert nodes == expected

    def test_deterministic_per_seed(self, topology):
        h1 = Hitlist(topology, responsive_prob=0.7, seed=5)
        h2 = Hitlist(topology, responsive_prob=0.7, seed=5)
        assert [e.responsive for e in h1.entries] == [e.responsive for e in h2.entries]

    def test_prob_validation(self, topology):
        with pytest.raises(ValueError):
            Hitlist(topology, responsive_prob=1.5)


class TestTargetSelection:
    def test_proximity_filter(self, deployment, topology, catchment):
        """No selected target's RTT to the site exceeds the bound."""
        from repro.topology.static_routes import StaticRoutes

        hitlist = Hitlist(topology)
        selection = select_targets(
            topology, deployment, "sea1", catchment, hitlist, rtt_limit_ms=50.0
        )
        site_node = deployment.site_node("sea1")
        for node in selection.targets.values():
            rtt = StaticRoutes(topology, node).rtt_s(site_node)
            assert rtt is not None and rtt * 1000 <= 50.0

    def test_anycast_routed_targets_excluded(self, deployment, topology, catchment):
        hitlist = Hitlist(topology)
        selection = select_targets(
            topology, deployment, "sea1", catchment, hitlist
        )
        for node in selection.targets.values():
            assert catchment.get(node) != "sea1"

    def test_include_anycast_routed_mode(self, deployment, topology, catchment):
        hitlist = Hitlist(topology)
        selection = select_targets(
            topology, deployment, "sea1", catchment, hitlist,
            exclude_anycast_routed=False,
        )
        kept = [n for n in selection.targets.values() if catchment.get(n) == "sea1"]
        assert kept  # the anycast catchment members are present now

    def test_max_targets_cap(self, deployment, topology, catchment):
        hitlist = Hitlist(topology)
        selection = select_targets(
            topology, deployment, "msn", catchment, hitlist, max_targets=5
        )
        assert len(selection.targets) <= 5

    def test_not_routed_fraction_bookkeeping(self, deployment, topology, catchment):
        hitlist = Hitlist(topology)
        selection = select_targets(
            topology, deployment, "sea1", catchment, hitlist
        )
        assert selection.nearby > 0
        assert 0.0 <= selection.not_routed_by_anycast_frac <= 1.0
        expected = 1.0 - selection.anycast_routed_here / selection.nearby
        assert selection.not_routed_by_anycast_frac == pytest.approx(expected)

    def test_far_site_has_no_eu_targets(self, deployment, topology, catchment):
        """Nothing in Europe is within 50 ms of a US-west site."""
        hitlist = Hitlist(topology)
        selection = select_targets(
            topology, deployment, "sea1", catchment, hitlist, max_targets=10**9
        )
        for node in selection.targets.values():
            region = topology.ases[node].location.region
            assert not region.startswith("eu-")
