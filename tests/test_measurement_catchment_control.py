"""Tests for catchment and Table-1 control measurement on the default
deployment. These assert the *paper-facing shapes*: sea1's pathology,
ath's high prepending control, customer-preference mechanisms."""

import pytest

from repro.measurement.catchment import anycast_catchment, catchment_from_network
from repro.measurement.control import (
    measure_control,
    measure_control_all_sites,
    prepending_catchment,
)
from repro.topology.testbed import SPECIFIC_PREFIX

from tests.conftest import FAST_TIMING


@pytest.fixture(scope="module")
def catchment(deployment):
    return anycast_catchment(deployment.topology, deployment)


@pytest.fixture(scope="module")
def control(deployment, catchment):
    return measure_control_all_sites(deployment.topology, deployment, catchment)


class TestAnycastCatchment:
    def test_every_web_client_has_a_site(self, deployment, catchment):
        assert catchment
        assert all(site is not None for site in catchment.values())

    def test_multiple_sites_attract_traffic(self, deployment, catchment):
        assert len(set(catchment.values())) >= 4

    def test_ams_dominates_europe(self, deployment, topology, catchment):
        """The IXP-rich site wins most nearby clients under anycast
        (Table 1: only 15% of ams-nearby targets go elsewhere)."""
        eu = [
            node for node, site in catchment.items()
            if topology.ases[node].location.region.startswith("eu-")
        ]
        to_ams = sum(1 for node in eu if catchment[node] == "ams")
        assert to_ams / len(eu) > 0.5

    def test_catchment_from_network_reads_origin(self, deployment, topology):
        net = topology.build_network(seed=8, timing=FAST_TIMING)
        net.announce(deployment.site_node("msn"), SPECIFIC_PREFIX)
        net.converge()
        nodes = [a.node_id for a in topology.web_client_ases()][:5]
        catch = catchment_from_network(net, deployment, SPECIFIC_PREFIX, nodes)
        assert all(site == "msn" for site in catch.values())

    def test_no_announcement_gives_none(self, deployment, topology):
        net = topology.build_network(seed=8, timing=FAST_TIMING)
        nodes = [topology.web_client_ases()[0].node_id]
        catch = catchment_from_network(net, deployment, SPECIFIC_PREFIX, nodes)
        assert list(catch.values()) == [None]


class TestPrependingCatchment:
    def test_intended_site_attracts_more_than_anycast(self, deployment, topology, catchment):
        """Prepending at other sites strictly grows the intended site's
        catchment relative to anycast."""
        nodes = [a.node_id for a in topology.web_client_ases()]
        prep = prepending_catchment(topology, deployment, "ath", prepend=3, nodes=nodes)
        anycast_count = sum(1 for n in nodes if catchment.get(n) == "ath")
        prep_count = sum(1 for n in nodes if prep.get(n) == "ath")
        assert prep_count > anycast_count


class TestTable1Shapes:
    def test_sea1_pathological(self, control):
        """Table 1's headline: the commercially-hosted sea1 attracts
        almost none of its anycast-lost targets even with prepending."""
        assert control["sea1"].controllable[3] < 0.2

    def test_ath_near_total_control(self, control):
        assert control["ath"].controllable[3] > 0.85

    def test_most_sites_have_majority_control(self, control):
        majority = [
            site for site, r in control.items()
            if site not in ("sea1", "ams") and r.controllable[3] >= 0.5
        ]
        assert len(majority) >= 5

    def test_ams_few_targets_lost_to_anycast(self, control):
        assert control["ams"].not_routed_by_anycast < 0.4

    def test_prepend5_never_worse(self, control):
        for site, result in control.items():
            assert result.controllable[5] >= result.controllable[3] - 0.05, site

    def test_nearby_counts_positive(self, control):
        for site, result in control.items():
            assert result.nearby > 0, site


class TestControlSingleSite:
    def test_explicit_prepend_list(self, deployment, catchment):
        result = measure_control(
            deployment.topology, deployment, "msn", catchment,
            prepends=(1,),
        )
        assert set(result.controllable) == {1}

    def test_restricted_announcement_reduces_nothing_for_full_peers(
        self, deployment, catchment
    ):
        """With restrict_to_shared_neighbors, control can only shrink
        (backup routes reach fewer networks)."""
        open_result = measure_control(
            deployment.topology, deployment, "msn", catchment,
            prepends=(3,),
        )
        restricted = measure_control(
            deployment.topology, deployment, "msn", catchment,
            prepends=(3,),
            restrict_to_shared_neighbors=True,
        )
        assert restricted.controllable[3] >= open_result.controllable[3] - 1e-9
