"""The BGP update path against its reference (``tests/bgp_oracle.py``).

An MRAI timer is a deadline that queues an expiry only when an update
waits on it, and a received update moves the best path without a scan
unless it could lower it. Both are exact: against eager timers and full
scans, every run here must deliver the same updates -- ⟨t, sender,
receiver, prefix, route⟩ -- in the same order, leave every ``converge()``
at the same clock, and measure the same result. Only the engine's event
count may differ.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import telemetry
from repro.bgp.damping import DampingConfig, RouteDamping
from repro.bgp.engine import EventEngine
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.route import Route, Update
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionTiming
from repro.checkpoint import NotQuiescentError, restore_network, snapshot_network
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import technique_by_name
from repro.measurement.appendix import run_withdrawal_study
from repro.measurement.export import failover_result_to_dict
from repro.net.addr import IPv4Prefix
from repro.obs.profiler import EventProfiler
from repro.topology.testbed import build_deployment

from tests.bgp_oracle import FullScanRouter, use_reference
from tests.conftest import build_line_network
from tests.test_bgp_pathhunting import rich_core
from tests.test_bgp_session import PFX2, ScriptedRng, ann
from tests.test_update_traffic import WIDE_PARAMS

PFX = IPv4Prefix.parse("184.164.244.0/24")
SUPER = IPv4Prefix.parse("184.164.244.0/23")

#: the benchmark's wide-matrix techniques
WIDE_TECHNIQUES = ("anycast", "proactive-med", "proactive-prepending", "proactive-superprefix")


def record(body):
    """Run ``body`` and return what it did: every delivery in order, the
    clock each ``converge()`` left, and ``body``'s own result."""
    deliveries, quiet = [], []
    make_delivery, converge = Session._make_delivery, BgpNetwork.converge

    def logged_delivery(session, update):
        deliver = make_delivery(session, update)

        def logged() -> None:
            deliveries.append(
                (session.engine.now, session.local, session.remote, update.prefix, update.route)
            )
            deliver()

        return logged

    def logged_converge(network, *args, **kwargs):
        quiet.append(converge(network, *args, **kwargs))
        return quiet[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Session, "_make_delivery", logged_delivery)
        patch.setattr(BgpNetwork, "converge", logged_converge)
        result = body()
    return deliveries, quiet, result


def assert_matches_reference(body):
    product = record(body)
    with pytest.MonkeyPatch.context() as patch:
        use_reference(patch)
        reference = record(body)
    deliveries, quiet, result = product
    assert deliveries, "the run delivered nothing"
    assert deliveries == reference[0]
    assert quiet == reference[1]
    assert result == reference[2]


def cold_cell(deployment, technique: str, **config):
    def body():
        experiment = FailoverExperiment(
            deployment.topology, deployment, FailoverConfig(**config), use_checkpoint=False,
        )
        result = experiment.run_site(technique_by_name(technique), "sea1")
        return failover_result_to_dict(result)

    return body


@pytest.fixture(scope="module")
def wide_deployment():
    return build_deployment(params=WIDE_PARAMS)


class TestAgainstTheReference:
    def test_a_cold_testbed_cell(self, deployment):
        assert_matches_reference(cold_cell(
            deployment, "proactive-superprefix", probe_duration=120.0, targets_per_site=4,
        ))

    @pytest.mark.parametrize("technique", WIDE_TECHNIQUES)
    def test_a_cold_wide_cell(self, wide_deployment, technique):
        assert_matches_reference(cold_cell(
            wide_deployment, technique, probe_duration=20.0, targets_per_site=3,
        ))

    def test_a_forked_cell_with_meds(self, deployment):
        """A restore reads the MED switch off the snapshot's Adj-RIB-Ins."""
        def body():
            experiment = FailoverExperiment(
                deployment.topology, deployment,
                FailoverConfig(probe_duration=60.0, targets_per_site=4), use_checkpoint=True,
            )
            result = experiment.run_site(technique_by_name("proactive-med"), "sea1")
            return failover_result_to_dict(result)

        assert_matches_reference(body)

    def test_busy_timers_resets_and_link_failures(self):
        """``busy_prob`` and ``mrai_sigma`` reach the sessions of a
        hand-built network (a topology's sessions never see them), and a
        session reset strands whatever expiry was queued before it."""
        timing = SessionTiming(latency=0.05, jitter=1.0, mrai=5.0, busy_prob=0.45, mrai_sigma=1.0)

        def body():
            net = rich_core(seed=3, timing=timing)
            net.announce("origin", PFX)
            net.converge()
            net.announce("c-3-0", PFX)
            net.run_for(2.0)
            net.reset_session("t1-0", "t1-1")
            net.converge()
            net.withdraw("origin", PFX)
            net.run_for(3.0)
            net.fail_link("c-0-0", "t1-0")
            net.converge()
            return {node: net.router(node).best_route(PFX) for node in net.nodes()}

        assert_matches_reference(body)

    def test_the_withdrawal_study(self, deployment):
        """Appendix A reads its ground-truth withdrawal instant off the
        clock ``converge()`` leaves."""
        assert_matches_reference(lambda: run_withdrawal_study(
            deployment.topology, deployment, sites=["sea1", "ams"],
        ))


class TestQuiescence:
    def test_a_running_timer_refuses_a_snapshot(self):
        net = build_line_network(2, timing=SessionTiming(latency=0.01, jitter=0.0, mrai=10.0))
        net.announce("r0", PFX)
        net.engine.run_until(1.0)  # every delivery has landed; r0's timer still runs
        assert net.engine.pending == 0
        assert net.router("r0").sessions["r1"]._mrai_running
        with pytest.raises(NotQuiescentError, match="MRAI timer runs until"):
            snapshot_network(net)
        assert net.converge() == net.engine.horizon >= 7.5
        assert not net.router("r0").sessions["r1"]._mrai_running
        snapshot_network(net)

    def test_a_restore_reads_the_med_switch_off_the_adj_rib_ins(self):
        net = build_line_network(3)
        net.announce("r0", PFX, med=5)  # r1 hears the MED; r2 hears it reset
        net.converge()
        fork = restore_network(snapshot_network(net))
        assert [fork.router(f"r{i}").med_heard for i in range(3)] == [False, True, False]

    def test_an_idle_timer_queues_no_event(self):
        net = build_line_network(2, timing=SessionTiming(latency=0.01, jitter=0.0, mrai=10.0))
        net.announce("r0", PFX)
        net.engine.run_until(1.0)
        session = net.router("r0").sessions["r1"]
        assert session._mrai_running and net.engine.pending == 0
        net.announce("r0", SUPER)  # waits behind the timer: now its expiry is queued
        assert session._pending and net.engine.pending == 1
        assert net.engine.peek() == net.engine.horizon

    def test_a_flush_at_a_deadline_keeps_the_next_update_waiting(self):
        """An update sent at the very instant a timer runs out leaves at
        once and starts the next timer; the expiry queued for the old
        timer must then not flush what waits on the new one."""
        engine, arrivals = EventEngine(), []
        session = Session(
            # draws: jitter per update flushed, then the timer's duration,
            # 7.5 + 5 * draw at mrai=10 (so -0.5 scripts a 5 s timer)
            engine, ScriptedRng([0.0, -0.5, 0.0, 0.0, -0.5, 0.0, -0.5]), "a", "b",
            Relationship.PEER,
            lambda update: arrivals.append((round(engine.now, 3), update.route.as_path)),
            SessionTiming(latency=1.0, jitter=0.0, mrai=10.0),
        )

        def at_the_deadline() -> None:
            session.send(*ann(path=(3,)))  # the timer has run out: leaves with (2,)
            session.send(*ann(path=(4,)))  # waits on the timer that flush started

        engine.schedule_at(5.0, at_the_deadline)  # queued ahead of the expiry
        session.send(*ann(path=(1,)))  # leaves at 0, timer until 5
        engine.run_until(1.0)
        session.send(*ann(PFX2, path=(2,)))  # waits: the expiry is queued for 5
        engine.run_until_idle()
        assert arrivals == [(1.0, (1,)), (6.0, (2,)), (6.0, (3,)), (11.0, (4,))]


# ----------------------------------------------------------------------
# receive() against the full scan, one router, generated updates

#: three of a relationship: a MED preference cycle needs three routes
#: under one LOCAL_PREF
NEIGHBORS = (
    ("c1", Relationship.CUSTOMER), ("c2", Relationship.CUSTOMER), ("c3", Relationship.CUSTOMER),
    ("p1", Relationship.PEER), ("u1", Relationship.PROVIDER), ("u2", Relationship.PROVIDER),
)
ASN = 65000
DAMPING = DampingConfig(
    penalty_per_flap=1000.0, suppress_threshold=1500.0, reuse_threshold=750.0,
    half_life=30.0, max_penalty=4000.0,
)


def steps(meds, hops=(1, 2, 3, ASN), longest=4):
    return st.lists(
        st.tuples(
            st.sampled_from(("announce", "announce", "announce", "withdraw", "originate", "stop")),
            st.sampled_from([name for name, _ in NEIGHBORS]),
            st.sampled_from((PFX, SUPER)),
            # first ASes collide often (MED compares only then); ASN is
            # the loop check's implicit withdrawal
            st.lists(st.sampled_from(hops), min_size=1, max_size=longest),
            meds,
            st.sampled_from((0.0, 0.5, 20.0, 200.0)),
        ),
        min_size=1, max_size=40,
    )


def speaker(cls, damping: bool):
    engine, exports = EventEngine(), []
    router = cls("r", ASN)
    rng = random.Random(7)
    timing = SessionTiming(latency=0.01, jitter=0.5, mrai=5.0)
    for name, relationship in NEIGHBORS:
        router.sessions[name] = Session(engine, rng, "r", name, relationship, exports.append, timing)
    if damping:
        router.damping = RouteDamping(engine, DAMPING, router.reselect_uncaused, owner="r")
    return engine, router, exports


def play(script, damping: bool) -> None:
    engine, router, exports = speaker(BgpRouter, damping)
    ref_engine, reference, ref_exports = speaker(FullScanRouter, damping)
    for kind, neighbor, prefix, path, med, dt in script:
        for target in (router, reference):
            if kind == "announce":
                route = Route(prefix, tuple(path), neighbor, 0, "o", med)
                target.receive(Update(neighbor, prefix, route, 0))
            elif kind == "withdraw":
                target.receive(Update(neighbor, prefix, None, 0))
            elif kind == "originate":
                target.originate(prefix)
            else:
                target.withdraw_origin(prefix)
        engine.run_until(engine.now + dt)
        ref_engine.run_until(ref_engine.now + dt)
        assert router.loc_rib == reference.loc_rib
        assert router.adj_rib_in == reference.adj_rib_in
        assert sorted(router.fib.items()) == sorted(reference.fib.items())
        assert exports == ref_exports


class TestReceiveAgainstTheFullScan:
    @settings(max_examples=200, deadline=None)
    @given(steps(st.just(0)))
    def test_without_meds(self, script):
        play(script, damping=False)

    @settings(max_examples=300, deadline=None)
    @given(steps(st.sampled_from((0, 10, 20)), hops=(1, 2), longest=2))
    @example([  # a preference cycle: c1 > c2 (tie-break), c2 > c3, c3 > c1 (MED) ...
        ("announce", "c1", PFX, [1], 10, 0.0),
        ("announce", "c2", PFX, [2], 0, 0.0),
        ("announce", "c3", PFX, [1], 0, 0.0),
        # ... where c2 beats the best, c3, yet the scan still answers c3
        ("announce", "c2", PFX, [2], 0, 0.0),
    ])
    def test_with_meds(self, script):
        """Short paths over two ASes make the non-transitive cases common."""
        play(script, damping=False)

    @settings(max_examples=200, deadline=None)
    @given(steps(st.sampled_from((0, 10))))
    def test_with_damping(self, script):
        play(script, damping=True)


# ----------------------------------------------------------------------
# The benchmark's layer table names every BGP callback

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def bench_callback_kinds() -> tuple[tuple[str, str], ...]:
    """``CALLBACK_KINDS`` as the benchmark's tracer states it, read from
    its source (the harness is not imported)."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "CALLBACK_KINDS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CALLBACK_KINDS in {TRACER}")


def test_every_bgp_callback_has_a_benchmark_layer(wide_deployment):
    kinds = bench_callback_kinds()
    profiler = EventProfiler()
    with telemetry.using(telemetry.Telemetry(profiler=profiler)):
        cold_cell(
            wide_deployment, "proactive-prepending", probe_duration=20.0, targets_per_site=3,
        )()
    layers = {
        name: next((kind for fragment, kind in kinds if fragment in name), "core.other_callbacks")
        for name in profiler.callbacks
        if name.split(".")[0] in ("Session", "BgpRouter", "RouteDamping")
    }
    assert "core.other_callbacks" not in layers.values(), layers
    assert set(layers.values()) == {"bgp.deliver", "bgp.mrai_expiry", "bgp.fib_install"}
