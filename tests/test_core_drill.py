"""Tests for the §4 rotation drill."""

import pytest

from repro.core import drill as drill_module
from repro.core.drill import RotationDrill
from repro.core.rig import RunRig
from repro.core.techniques import TECHNIQUES, ReactiveAnycast, Unicast, technique_by_name
from repro.dataplane.forwarding import delivery_verdict
from repro.topology.testbed import SECOND_PREFIX

from tests.conftest import FAST_TIMING


@pytest.fixture(scope="module")
def clients(topology):
    return [info.node_id for info in topology.web_client_ases()][:12]


class TestRotationDrill:
    def test_reactive_anycast_passes_drill(self, deployment, topology, clients):
        drill = RotationDrill(
            topology, deployment, ReactiveAnycast(),
            deadline_s=60.0, timing=FAST_TIMING,
        )
        outcome = drill.run_site("sea1", clients)
        assert outcome.passed
        assert outcome.recovered == len(clients)
        assert outcome.stranded_clients == ()

    def test_unicast_strands_everyone(self, deployment, topology, clients):
        """Unicast has no BGP-side failover: after the drill withdrawal
        the test prefix is simply gone."""
        drill = RotationDrill(
            topology, deployment, Unicast(),
            deadline_s=60.0, timing=FAST_TIMING,
        )
        outcome = drill.run_site("sea1", clients)
        assert not outcome.passed
        assert outcome.stranded == len(clients)

    @pytest.mark.parametrize("name", sorted(TECHNIQUES))
    def test_recovered_counts_what_the_data_plane_delivers(
        self, monkeypatch, deployment, topology, clients, name
    ):
        """The audit is the FIB walk: ``recovered`` is the number of
        monitored clients whose packets, sent at the deadline, reach a
        live site over whichever prefix covers the test address.
        proactive-superprefix fails over onto the covering /23, which a
        Loc-RIB read of the test /24 alone scored as 0 recovered."""
        forwards, dead_sites = [], set()

        class AuditedRig(RunRig):
            def close(self):
                # The network dies with the run: send the audit packets
                # into the deadline state, just before it is released.
                for client in clients:
                    self.plane.forward(client, self.dst, forwards.append)
                self.network.run_for(5.0)
                dead_sites.update(self.controller.down_sites)
                super().close()

        monkeypatch.setattr(drill_module, "RunRig", AuditedRig)
        drill = RotationDrill(
            topology, deployment, technique_by_name(name),
            deadline_s=60.0, timing=FAST_TIMING,
        )
        outcome = drill.run_site("sea1", clients)
        delivered = sum(
            delivery_verdict(
                result.delivered_to, result.drop_reason, deployment, dead_sites
            )[1] is None
            for result in forwards
        )
        assert len(forwards) == len(clients)
        assert outcome.recovered == delivered
        assert outcome.stranded == len(clients) - delivered
        if name == "proactive-superprefix":
            assert outcome.passed and delivered == len(clients)

    def test_rotation_covers_all_sites(self, deployment, topology, clients):
        drill = RotationDrill(
            topology, deployment, ReactiveAnycast(),
            deadline_s=60.0, timing=FAST_TIMING,
        )
        outcomes = drill.run_rotation(clients)
        assert [o.site for o in outcomes] == deployment.site_names
        assert drill.all_passed()

    def test_drills_the_spare_prefix(self, monkeypatch, deployment, topology, clients):
        seen = []

        class SpyRig(RunRig):
            def __init__(self, *args, **kwargs):
                seen.append((kwargs["prefix"], kwargs["dst"]))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(drill_module, "RunRig", SpyRig)
        drill = RotationDrill(
            topology, deployment, ReactiveAnycast(), deadline_s=20.0, timing=FAST_TIMING
        )
        drill.run_site("msn", clients[:3])
        assert seen == [(SECOND_PREFIX, SECOND_PREFIX.address(1))]

    def test_all_passed_false_before_running(self, deployment, topology):
        drill = RotationDrill(topology, deployment, ReactiveAnycast())
        assert not drill.all_passed()
