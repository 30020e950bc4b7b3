"""Route provenance: causal-chain reconstruction (``repro explain``).

Unit tests exercise :func:`build_chains`/:func:`explain` on synthetic
event lists; the integration tests record a real network mutating under
a fault plan and assert the chains keep their integrity across a BGP
session reset -- the reopened session's full-table resync must carry the
reset's cause id, not lose it to the new delivery epoch.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultInjector, FaultPlan, LinkFlap, SessionReset
from repro.net.addr import IPv4Prefix
from repro.obs import build_chains, explain, render_explanation
from repro.telemetry import (
    BgpUpdateSent,
    DnsRecordChanged,
    FaultInjected,
    FibInstalled,
    RootCause,
    RouteSelected,
    SiteFailed,
    SiteSwitched,
    Telemetry,
    TraceRecorder,
    using,
)

from tests.conftest import build_line_network

PREFIX = "184.164.254.0/24"


def failover_events() -> list:
    """A hand-written failover chain plus cause-0 background noise."""
    return [
        RootCause(t=10.0, cause=1, action="site-fail", target="sea1"),
        SiteFailed(t=10.0, site="sea1", cause=1),
        BgpUpdateSent(
            t=11.0, sender="site:sea1", receiver="tr-0", prefix=PREFIX,
            update="withdraw", cause=1,
        ),
        RouteSelected(t=12.0, node="tr-0", prefix=PREFIX, via=None, cause=1),
        FibInstalled(t=13.0, node="tr-0", prefix=PREFIX, next_hop=None, cause=1),
        DnsRecordChanged(t=14.0, site="sea1", action="remove", cause=1),
        # cause 0 = uncaused background (e.g. a damping release): no chain
        RouteSelected(t=15.0, node="tr-1", prefix=PREFIX, via="tr-0", cause=0),
        # a shift after cause 1's FIB change is attributed to cause 1
        SiteSwitched(t=16.0, target="10.0.0.1", from_site="sea1", to_site="msn"),
    ]


class TestBuildChains:
    def test_groups_by_cause_and_attaches_root(self):
        chains = build_chains(failover_events())
        assert set(chains) == {(0, 1)}
        chain = chains[0, 1]
        assert chain.root is not None
        assert chain.root.action == "site-fail"
        assert chain.t == 10.0
        assert len(chain.events) == 5

    def test_cause_zero_events_form_no_chain(self):
        chains = build_chains(failover_events())
        assert all(e.cause != 0 for e in chains[0, 1].events)

    def test_steps_in_canonical_order(self):
        chain = build_chains(failover_events())[0, 1]
        assert chain.steps() == [
            "root", "site-failed", "withdrawal", "reselect",
            "fib-install", "dns-update", "catchment-shift",
        ]

    def test_shift_attributed_to_last_fib_cause(self):
        chain = build_chains(failover_events())[0, 1]
        assert len(chain.shifts) == 1
        assert chain.shifts[0].to_site == "msn"

    def test_shift_before_any_fib_change_unattributed(self):
        events = [SiteSwitched(t=1.0, target="10.0.0.1", from_site="a", to_site="b")]
        assert build_chains(events) == {}

    def test_rootless_chain_still_collects_events(self):
        events = [
            FibInstalled(t=1.0, node="n", prefix=PREFIX, next_hop="m", cause=7),
        ]
        chain = build_chains(events)[0, 7]
        assert chain.root is None
        assert chain.t == 1.0
        assert chain.steps() == ["fib-install"]

    def test_fault_step_recognised(self):
        events = [
            RootCause(t=1.0, cause=2, action="fault:link-down", target="a<->b"),
            FaultInjected(t=1.0, fault="link-down", target="a<->b", cause=2),
        ]
        assert build_chains(events)[0, 2].steps() == ["root", "fault"]


class TestExplainFilters:
    def make_two_chains(self):
        return [
            RootCause(t=0.0, cause=1, action="deploy", target="sea1"),
            FibInstalled(t=1.0, node="n", prefix=PREFIX, next_hop="m", cause=1),
            RootCause(t=5.0, cause=2, action="site-fail", target="ams"),
            FibInstalled(t=6.0, node="n", prefix="10.0.0.0/8", next_hop=None, cause=2),
        ]

    def test_unfiltered_returns_all_in_cause_order(self):
        chains = explain(self.make_two_chains())
        assert [c.cause for c in chains] == [1, 2]

    def test_prefix_filter(self):
        chains = explain(self.make_two_chains(), prefix=PREFIX)
        assert [c.cause for c in chains] == [1]

    def test_site_filter_matches_root_target(self):
        chains = explain(self.make_two_chains(), site="ams")
        assert [c.cause for c in chains] == [2]

    def test_site_filter_matches_link_target_endpoints(self):
        events = [
            RootCause(
                t=1.0, cause=3, action="fault:session-reset",
                target="site:sea1<->tr-us-west-0",
            ),
            FaultInjected(
                t=1.0, fault="session-reset",
                target="site:sea1<->tr-us-west-0", cause=3,
            ),
        ]
        # both the bare site name and either link endpoint match
        assert [c.cause for c in explain(events, site="sea1")] == [3]
        assert [c.cause for c in explain(events, site="tr-us-west-0")] == [3]
        assert explain(events, site="ams") == []

    def test_site_filter_matches_shift_endpoints(self):
        events = self.make_two_chains() + [
            SiteSwitched(t=7.0, target="10.0.0.1", from_site="ams", to_site="msn"),
        ]
        chains = explain(events, site="msn")
        assert [c.cause for c in chains] == [2]

    def test_filters_and_together(self):
        assert explain(self.make_two_chains(), prefix=PREFIX, site="ams") == []


class TestRenderExplanation:
    def test_report_names_root_and_steps(self):
        text = render_explanation(explain(failover_events()), site="sea1")
        assert "1 causal chain(s) for site sea1" in text
        assert "cause 1: site-fail sea1 @ t=10.00s" in text
        assert "root -> site-failed -> withdrawal" in text
        assert "catchment shift(s)" in text

    def test_rootless_chain_rendered_explicitly(self):
        events = [FibInstalled(t=1.0, node="n", prefix=PREFIX, next_hop="m", cause=3)]
        text = render_explanation(explain(events))
        assert "(root event not in trace)" in text

    def test_empty_report(self):
        assert render_explanation([]) == "0 causal chain(s)"


class TestChainIntegrityAcrossSessionReset:
    """Satellite (d): a fault plan bounces a session mid-run; the chain
    rooted at the reset must carry through the reopened session's
    resync -- updates, re-selections, and FIB installs on the *new*
    delivery epoch all descend from the reset's cause id."""

    PREFIX = IPv4Prefix.parse("184.164.254.0/24")

    @pytest.fixture()
    def recorded(self):
        tracer = TraceRecorder()
        with using(Telemetry(tracer=tracer)):
            net = build_line_network(3)
            net.announce("r0", self.PREFIX)
            net.converge()
            plan = FaultPlan(faults=(
                SessionReset(at=5.0, a="r0", b="r1"),
                LinkFlap(at=20.0, a="r1", b="r2", down_for=5.0),
            ))
            injector = FaultInjector(net, plan)
            injector.arm()
            net.run_for(40.0)
            net.converge()
            assert injector.injected >= 2
        return tracer.events

    def find_root(self, events, action):
        roots = [
            e for e in events if isinstance(e, RootCause) and e.action == action
        ]
        assert len(roots) == 1, f"expected exactly one {action} root"
        return roots[0]

    def test_resync_updates_carry_the_reset_cause(self, recorded):
        root = self.find_root(recorded, "fault:session-reset")
        resent = [
            e for e in recorded
            if isinstance(e, BgpUpdateSent) and e.cause == root.cause
        ]
        assert resent, "reopened session re-advertised nothing with the reset cause"
        assert all(e.t >= root.t for e in resent)
        assert any(e.update == "announce" and e.sender == "r0" for e in resent)

    def test_downstream_selection_and_fib_carry_the_reset_cause(self, recorded):
        root = self.find_root(recorded, "fault:session-reset")
        selected = [
            e for e in recorded
            if isinstance(e, RouteSelected) and e.cause == root.cause
        ]
        installed = [
            e for e in recorded
            if isinstance(e, FibInstalled) and e.cause == root.cause
        ]
        assert selected and installed
        assert all(e.t >= root.t for e in selected + installed)

    def test_each_fault_forms_its_own_chain(self, recorded):
        reset = self.find_root(recorded, "fault:session-reset")
        down = self.find_root(recorded, "fault:link-down")
        chains = build_chains(recorded)
        assert reset.cause != down.cause
        assert chains[0, reset.cause].events
        assert chains[0, down.cause].events
        # no event leaks between the chains
        reset_ts = {e.t for e in chains[0, reset.cause].events}
        assert all(t < down.t for t in reset_ts)

    def test_explain_resolves_the_reset_chain(self, recorded):
        root = self.find_root(recorded, "fault:session-reset")
        chains = [c for c in explain(recorded) if c.cause == root.cause]
        assert len(chains) == 1
        steps = chains[0].steps()
        assert "fault" in steps
        assert "announcement" in steps
        assert "fib-install" in steps


class TestChainsStayInsideTheirRun:
    """Cause ids restart with every network, so a trace that holds
    several runs (a sweep's baselines and cells, a drill's sites) must
    key chains by <run, cause>: the parent keyed by id alone and printed
    3 chains for this sweep's 10 roots, one of them "site-fail ams" with
    four site failures under it."""

    SWEEP = ("sweep", "-t", "anycast", "reactive-anycast", "--sites", "sea1", "ams",
             "--targets", "5", "--duration", "60", "--no-progress")

    @pytest.fixture(scope="class")
    def sweep_traces(self, tmp_path_factory):
        """The sweep's trace, serial and over two workers."""
        from repro.cli import main
        from repro.telemetry import read_jsonl

        out = tmp_path_factory.mktemp("sweep")
        traces = []
        for extra in ((), ("--workers", "2")):
            path = str(out / f"t{len(traces)}.jsonl")
            assert main([*self.SWEEP, *extra, "--trace", path, "-o", str(out / "s.json")]) == 0
            traces.append(read_jsonl(path))
        return traces

    def test_one_chain_per_root_cause_event(self, sweep_traces):
        for trace in sweep_traces:
            roots = [e for e in trace if isinstance(e, RootCause)]
            chains = explain(trace)
            assert len(roots) == 10
            assert [chain.root for chain in chains] == roots  # each once, in trace order
            assert len({(chain.run.index, chain.cause) for chain in chains}) == 10

    def test_every_site_fail_chain_names_exactly_one_failed_site(self, sweep_traces):
        for trace in sweep_traces:
            fails = [c for c in explain(trace) if c.root.action == "site-fail"]
            for chain in fails:
                failed = [e.site for e in chain.events if isinstance(e, SiteFailed)]
                assert failed == [chain.root.target]
                assert chain.run.label.endswith("/" + chain.root.target)
            assert sorted(c.run.label for c in fails) == [
                "anycast/ams", "anycast/sea1", "reactive-anycast/ams", "reactive-anycast/sea1",
            ]

    def test_serial_and_parallel_traces_explain_alike(self, sweep_traces):
        """The brackets of a merged --workers trace change no chain."""
        serial, parallel = (render_explanation(explain(trace)) for trace in sweep_traces)
        assert serial == parallel
        assert "cause 3 of reactive-anycast/ams: site-fail ams" in serial

    def test_shift_is_not_attributed_across_runs(self):
        events = [
            RootCause(t=0.0, cause=1, action="deploy", target="sea1"),
            FibInstalled(t=1.0, node="n", prefix=PREFIX, next_hop="m", cause=1),
            RootCause(t=0.0, cause=1, action="deploy", target="ams"),  # id restarts: a new run
            SiteSwitched(t=0.5, target="10.0.0.1", from_site="a", to_site="b"),
        ]
        chains = build_chains(events)
        assert set(chains) == {(0, 1), (1, 1)}
        assert not chains[0, 1].shifts and not chains[1, 1].shifts

    def test_single_run_trace_prints_what_it_printed(self):
        """One run: no run label in the header, byte for byte the old text."""
        text = render_explanation(explain(failover_events()))
        assert text.splitlines()[2] == "cause 1: site-fail sea1 @ t=10.00s"
        assert " of " not in text
