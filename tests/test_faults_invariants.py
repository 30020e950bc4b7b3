"""Tests for the post-convergence invariant checker."""

from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.faults import check_invariants, known_prefixes
from repro.faults.invariants import (
    ADVERTISED_SYNC,
    FORWARDING_LOOP,
    RIB_FIB_COHERENCE,
)
from repro.net.addr import IPv4Prefix

from tests.conftest import FAST_TIMING, build_line_network

PFX = IPv4Prefix.parse("184.164.244.0/24")


def converged_line(n: int = 4) -> BgpNetwork:
    net = build_line_network(n)
    net.announce("r0", PFX)
    net.converge()
    return net


def invariants_of(report) -> set[str]:
    return {v.invariant for v in report.violations}


class TestCleanNetwork:
    def test_converged_network_holds_all_invariants(self):
        net = converged_line()
        report = check_invariants(net)
        assert report.violations == []
        assert report.prefixes_checked == 1
        assert report.sessions_checked > 0

    def test_known_prefixes_covers_origins_and_loc_ribs(self):
        net = converged_line()
        assert known_prefixes(net) == [PFX]

    def test_mid_flap_network_settles_clean(self):
        """A network that flapped but re-converged must audit clean --
        this is the drill's post-settle check."""
        net = converged_line()
        net.fail_link("r1", "r2")
        net.converge()
        net.restore_link("r1", "r2")
        net.converge()
        assert check_invariants(net).violations == []

    def test_reset_session_settles_clean(self):
        net = converged_line()
        net.reset_session("r1", "r2")
        net.converge()
        assert check_invariants(net).violations == []


class TestForwardingLoop:
    def test_stable_loop_detected(self):
        net = converged_line(3)
        # Manufacture a stable two-node loop by hand-editing FIBs.
        net.router("r1").fib.insert(PFX, "r2")
        net.router("r2").fib.insert(PFX, "r1")
        report = check_invariants(net)
        assert FORWARDING_LOOP in invariants_of(report)
        loops = [v for v in report.violations if v.invariant == FORWARDING_LOOP]
        assert len(loops) == 1  # the cycle is reported once, not per entry

    def test_loop_detail_names_cycle(self):
        net = converged_line(2)
        net.router("r0").fib.insert(PFX, "r1")
        net.router("r1").fib.insert(PFX, "r0")
        report = check_invariants(net)
        loop = next(v for v in report.violations if v.invariant == FORWARDING_LOOP)
        assert "r0" in loop.detail and "r1" in loop.detail


class TestAdvertisedSync:
    def test_phantom_advertisement_detected(self):
        net = converged_line(3)
        extra = IPv4Prefix.parse("184.164.245.0/24")
        net.routers["r0"].sessions["r1"].advertised.add(extra)
        report = check_invariants(net)
        sync = [v for v in report.violations if v.invariant == ADVERTISED_SYNC]
        assert len(sync) == 1
        assert sync[0].node == "r0"
        assert str(extra) in sync[0].detail

    def test_unadvertised_peer_route_detected(self):
        net = converged_line(3)
        net.routers["r1"].sessions["r2"].advertised.discard(PFX)
        report = check_invariants(net)
        sync = [v for v in report.violations if v.invariant == ADVERTISED_SYNC]
        assert len(sync) == 1
        assert sync[0].node == "r1"

    def test_as_path_loop_rejection_is_allowed(self):
        """Two routers sharing an ASN (CDN sites): the peer rejects the
        announcement as an AS-path loop, so 'advertised but absent from
        the peer's Adj-RIB-In' is legitimate there."""
        net = BgpNetwork(seed=0, default_timing=FAST_TIMING)
        net.add_router("s1", 47065)
        net.add_router("s2", 47065)
        net.connect("s1", "s2", Relationship.PEER)
        net.announce("s1", PFX)
        net.converge()
        session = net.routers["s1"].sessions["s2"]
        assert PFX in session.advertised
        assert PFX not in net.routers["s2"].adj_rib_in
        assert check_invariants(net).violations == []

    def test_lossy_link_leaves_detectable_divergence(self):
        """Losing an update genuinely desynchronises the two ends -- the
        invariant must flag it until a session reset restores coherence."""
        net = build_line_network(3)
        net.set_message_loss("r1", "r2", loss_prob=1.0)
        net.announce("r0", PFX)
        net.converge()
        report = check_invariants(net)
        assert ADVERTISED_SYNC in invariants_of(report)
        # The modelled repair: clear the loss, bounce the session.
        net.set_message_loss("r1", "r2")
        net.reset_session("r1", "r2")
        net.converge()
        assert check_invariants(net).violations == []


class TestRibFibCoherence:
    def test_missing_fib_entry_detected(self):
        net = converged_line(3)
        net.router("r2").fib.remove(PFX)
        report = check_invariants(net)
        coherence = [v for v in report.violations
                     if v.invariant == RIB_FIB_COHERENCE]
        assert len(coherence) == 1
        assert coherence[0].node == "r2"

    def test_stale_fib_entry_detected(self):
        net = converged_line(3)
        ghost = IPv4Prefix.parse("184.164.245.0/24")
        net.router("r2").fib.insert(ghost, "r1")
        report = check_invariants(net)
        coherence = [v for v in report.violations
                     if v.invariant == RIB_FIB_COHERENCE]
        assert len(coherence) == 1
        assert "no Loc-RIB route" in coherence[0].detail

    def test_wrong_next_hop_detected(self):
        net = converged_line(3)
        net.router("r2").fib.insert(PFX, "r0")
        report = check_invariants(net)
        assert RIB_FIB_COHERENCE in invariants_of(report)
