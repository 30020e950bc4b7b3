"""Tests for BIRD configuration rendering."""

import pytest

from repro.configgen.bird import generate_bird_config
from repro.core.techniques import (
    Anycast,
    Combined,
    ProactiveMed,
    ProactivePrepending,
    ProactiveSuperprefix,
    ReactiveAnycast,
    ShedDns,
    ShedPrepend,
    ShedWithdraw,
    Unicast,
)
from repro.topology.testbed import CDN_ASN, SPECIFIC_PREFIX, SUPERPREFIX


class TestOriginations:
    def test_unicast_only_specific_site_announces(self, deployment):
        specific = generate_bird_config(deployment, Unicast(), "sea1", "sea1")
        other = generate_bird_config(deployment, Unicast(), "ams", "sea1")
        assert str(SPECIFIC_PREFIX) in specific.normal
        assert str(SPECIFIC_PREFIX) not in other.normal

    def test_anycast_everyone_announces(self, deployment):
        for site in ("sea1", "ams"):
            config = generate_bird_config(deployment, Anycast(), site, "sea1")
            assert str(SPECIFIC_PREFIX) in config.normal

    def test_superprefix_roles(self, deployment):
        specific = generate_bird_config(deployment, ProactiveSuperprefix(), "sea1", "sea1")
        other = generate_bird_config(deployment, ProactiveSuperprefix(), "ams", "sea1")
        assert str(SPECIFIC_PREFIX) in specific.normal
        assert str(SUPERPREFIX) in specific.normal
        assert str(SPECIFIC_PREFIX) not in other.normal
        assert str(SUPERPREFIX) in other.normal

    def test_prepending_count(self, deployment):
        config = generate_bird_config(
            deployment, ProactivePrepending(3), "ams", "sea1"
        )
        assert config.normal.count(f"bgp_path.prepend({CDN_ASN});") == 3
        specific = generate_bird_config(
            deployment, ProactivePrepending(3), "sea1", "sea1"
        )
        assert "bgp_path.prepend" not in specific.normal

    def test_med_values(self, deployment):
        backup = generate_bird_config(deployment, ProactiveMed(100), "ams", "sea1")
        assert "bgp_med = 100;" in backup.normal
        intended = generate_bird_config(deployment, ProactiveMed(100), "sea1", "sea1")
        assert "bgp_med = 0;" in intended.normal


class TestShedFamily:
    """Rendered from the plan like every other technique (used to be a
    TypeError: the renderer had no branch for them)."""

    @pytest.mark.parametrize("technique", [ShedPrepend(), ShedDns()], ids=lambda t: t.name)
    def test_prepend_and_dns_shedders_render_as_anycast(self, deployment, technique):
        for site in ("sea1", "ams"):
            config = generate_bird_config(deployment, technique, site, "sea1")
            anycast = generate_bird_config(deployment, Anycast(), site, "sea1")
            assert config.normal == anycast.normal.replace("anycast", technique.name)
            assert config.emergency is None

    def test_shed_withdraw_announces_both_prefixes_everywhere(self, deployment):
        for site in ("sea1", "ams"):
            config = generate_bird_config(deployment, ShedWithdraw(), site, "sea1")
            assert f"route {SPECIFIC_PREFIX} blackhole" in config.normal
            assert f"route {SUPERPREFIX} blackhole" in config.normal
            assert "bgp_med" not in config.normal
            assert config.emergency is None


class TestEmergencyVariants:
    def test_reactive_other_sites_get_emergency_config(self, deployment):
        config = generate_bird_config(deployment, ReactiveAnycast(), "ams", "sea1")
        assert str(SPECIFIC_PREFIX) not in config.normal
        assert config.emergency is not None
        assert str(SPECIFIC_PREFIX) in config.emergency
        assert "emergency: sea1 failed" in config.emergency

    def test_reactive_specific_site_has_no_emergency(self, deployment):
        config = generate_bird_config(deployment, ReactiveAnycast(), "sea1", "sea1")
        assert config.emergency is None

    def test_combined_emergency_adds_specific(self, deployment):
        config = generate_bird_config(deployment, Combined(), "ams", "sea1")
        assert str(SUPERPREFIX) in config.normal
        assert str(SPECIFIC_PREFIX) not in config.normal
        assert str(SPECIFIC_PREFIX) in config.emergency

    def test_passive_techniques_have_no_emergency(self, deployment):
        for technique in (Unicast(), Anycast(), ProactivePrepending(3)):
            config = generate_bird_config(deployment, technique, "ams", "sea1")
            assert config.emergency is None


class TestStructure:
    def test_one_bgp_protocol_per_neighbor(self, deployment):
        config = generate_bird_config(deployment, Anycast(), "ams", "sea1")
        spec = deployment.sites["ams"]
        assert config.normal.count("protocol bgp ") == len(spec.providers) + len(spec.peers)

    def test_neighbor_asns_match_topology(self, deployment):
        config = generate_bird_config(deployment, Anycast(), "sea1", "sea1")
        provider = deployment.sites["sea1"].providers[0]
        asn = deployment.topology.ases[provider].asn
        assert f"as {asn};" in config.normal

    def test_local_asn_everywhere(self, deployment):
        config = generate_bird_config(deployment, Anycast(), "msn", "sea1")
        assert f"local as {CDN_ASN};" in config.normal

    def test_export_filter_rejects_by_default(self, deployment):
        config = generate_bird_config(deployment, Unicast(), "ams", "sea1")
        assert "filter cdn_export" in config.normal
        assert "reject;" in config.normal

    def test_unknown_site_rejected(self, deployment):
        with pytest.raises(KeyError):
            generate_bird_config(deployment, Anycast(), "lhr", "sea1")
        with pytest.raises(KeyError):
            generate_bird_config(deployment, Anycast(), "ams", "lhr")

    def test_all_sites_render_for_all_techniques(self, deployment):
        techniques = [
            Unicast(), Anycast(), ProactiveSuperprefix(), ReactiveAnycast(),
            ProactivePrepending(5), ProactiveMed(50), Combined(),
        ]
        for technique in techniques:
            for site in deployment.site_names:
                config = generate_bird_config(deployment, technique, site, "sea1")
                assert config.normal.startswith("# BIRD 2.x configuration")
