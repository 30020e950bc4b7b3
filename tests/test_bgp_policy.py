"""Unit tests for Gao-Rexford policy functions."""

from repro.bgp.policy import (
    LOCAL_ORIGIN_PREF,
    LOCAL_PREF,
    Relationship,
    imported,
    should_export,
)
from repro.bgp.route import Route
from repro.net.addr import IPv4Prefix

C, P, PR, COL = (
    Relationship.CUSTOMER,
    Relationship.PEER,
    Relationship.PROVIDER,
    Relationship.COLLECTOR,
)


class TestRelationship:
    def test_inverse_customer_provider(self):
        assert C.inverse() is PR
        assert PR.inverse() is C

    def test_inverse_symmetric_relations(self):
        assert P.inverse() is P
        assert COL.inverse() is COL


class TestLocalPref:
    def test_preference_ordering(self):
        """Customer > peer > provider, with local origination on top."""
        assert LOCAL_ORIGIN_PREF > LOCAL_PREF[C] > LOCAL_PREF[P] > LOCAL_PREF[PR]

    HEARD = Route(IPv4Prefix.parse("184.164.244.0/24"), (1, 2), "n", 0, "o")

    def test_import_local_pref(self):
        assert imported(self.HEARD, 9, C).local_pref == 300
        assert imported(self.HEARD, 9, P).local_pref == 200
        assert imported(self.HEARD, 9, PR).local_pref == 100
        assert imported(self.HEARD, 9, PR, 250).local_pref == 250  # a world's override

    def test_collector_sessions_never_import(self):
        assert imported(self.HEARD, 9, COL) is None


class TestValleyFreeExport:
    def test_local_routes_exported_everywhere(self):
        for rel in (C, P, PR, COL):
            assert should_export(None, rel)

    def test_customer_routes_exported_everywhere(self):
        for rel in (C, P, PR, COL):
            assert should_export(C, rel)

    def test_peer_routes_only_to_customers(self):
        assert should_export(P, C)
        assert not should_export(P, P)
        assert not should_export(P, PR)

    def test_provider_routes_only_to_customers(self):
        assert should_export(PR, C)
        assert not should_export(PR, P)
        assert not should_export(PR, PR)

    def test_collectors_get_everything(self):
        for learned in (None, C, P, PR):
            assert should_export(learned, COL)
