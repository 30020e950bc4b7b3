"""The update format, pinned as traffic: how many exports one forked cell
makes, how many policy evaluations they cost, how many of them put an
update on the wire, and that an export the session suppresses builds no
update object at all.

In the ``Announcement`` / ``Withdrawal`` format every export built a
``Withdrawal`` first, and each announced route cost four objects on its
way into the receiver's Adj-RIB-In (a ``replace``d ``Route``, an
``Announcement``, the stored ``Route``, plus that eager ``Withdrawal``).
An update is now the route it carries: one ``Route`` written by export
policy per relationship class, one ``Update`` per session around it, and
nothing for the majority of exports -- the withdrawal of a prefix the
session never advertised.
"""

import json
import random
import zlib

from repro import telemetry
from repro.bgp import router as router_module
from repro.bgp import session as session_module
from repro.bgp.engine import EventEngine
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionTiming
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import ProactivePrepending, ReactiveAnycast
from repro.measurement.export import failover_result_to_dict
from repro.net.addr import IPv4Prefix
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment

from tests.conftest import counter_values, heard
from tests.test_probe_record import forked_experiment

PFX = IPv4Prefix.parse("184.164.244.0/24")


class Census:
    """Counting wrappers around the export (one ``Session.send`` per
    ⟨best-path change, session⟩), the export policy, the update
    constructor and the delivery; the source runs unpatched underneath."""

    def __init__(self, monkeypatch):
        self.exports = self.offers = self.evaluations = self.updates_built = 0
        self.announcements = self.withdrawals = 0
        send, exported = Session.send, router_module.exported
        receive, update = BgpRouter.receive, session_module.Update

        def counting_send(session, prefix, route, cause):
            self.exports += 1
            self.offers += route is not None
            return send(session, prefix, route, cause)

        def counting_exported(*args):
            self.evaluations += 1
            return exported(*args)

        def counting_update(*args):
            self.updates_built += 1
            return update(*args)

        def counting_receive(router, message):
            if message.route is None:
                self.withdrawals += 1
            else:
                self.announcements += 1
            return receive(router, message)

        monkeypatch.setattr(Session, "send", counting_send)
        monkeypatch.setattr(router_module, "exported", counting_exported)
        monkeypatch.setattr(BgpRouter, "receive", counting_receive)
        monkeypatch.setattr(session_module, "Update", counting_update)


def test_update_traffic_of_one_forked_cell(monkeypatch, deployment):
    """reactive-anycast x sea1, forked (baseline convergence + the cell):
    exact counts.

    ``exports`` counts ``Session.send`` calls. There were 3,542, one per
    ⟨best-path change, session⟩ (as many as when each export was its own
    ``offer``, and before that its own ``_build_export``, which built
    3,542 ``Withdrawal``s alone, 2,128 of them returned, for 44
    delivered). 2,082 of them withdrew a prefix the session had neither
    advertised nor pending, which ``send`` only counted; ``_export`` now
    counts those itself and does not call ``send``: 3,542 - 2,082 =
    1,460. ``evaluations`` counts ``policy.exported`` calls: one per
    ⟨best-path change, relationship class⟩ among the sessions that pass
    split horizon and the origination scope -- 773, where the
    per-session ``offer`` made 3,527, one per export of a selected
    route. Since a restore keeps each router's session order (the
    export fan-out order) the fork runs as the baseline network would,
    and the counts moved: 1,460 -> 1,664 exports, 773 -> 882
    evaluations."""
    census = Census(monkeypatch)
    with telemetry.using(telemetry.Telemetry()) as active:
        forked_experiment(deployment).run_site(ReactiveAnycast(), "sea1")
    counters = counter_values(active)
    assert census.exports == 1664
    assert census.evaluations == 882
    assert (census.announcements, census.withdrawals) == (1264, 61)
    # Every export ends one of three ways: suppressed (no object; here
    # one call too: one withdrawal cancelled a pending route), swallowed
    # by a closed session (none in this cell), or an update in the MRAI
    # slot -- and only an offered route or the withdrawal of an
    # advertised prefix gets that far.
    suppressed = counters["bgp.updates_suppressed"]
    assert census.updates_built == census.exports - 1 == 1663
    assert census.offers == 1579 and suppressed == 2284
    # ... of which MRAI coalescing overwrote some before they left; two
    # messages were still in flight when the run ended, none was lost.
    assert counters["bgp.updates_sent"] == census.announcements + census.withdrawals + 2
    assert census.updates_built - counters["bgp.updates_sent"] == 336


#: the benchmark's wide topology (343 ASes with the eight default sites)
WIDE_PARAMS = TopologyParams(
    seed=42, n_tier1=8, n_transit_per_region=5, n_regional_per_region=5,
    n_eyeball_per_region=24, n_stub_per_region=6, n_university_per_region=6,
    transit_providers=4, regional_providers=3,
)


def test_bgp_traffic_of_one_cold_wide_cell():
    """proactive-prepending x sea1 on the wide topology, cold-started (a
    network built, deployed and converged for the cell alone), at the
    benchmark's wide-matrix cell shape: exact engine and BGP counts, and
    a checksum of the exported result. A change on the BGP hot path that
    alters what is sent, when, or what the cell measures moves one."""
    deployment = build_deployment(params=WIDE_PARAMS)
    experiment = FailoverExperiment(
        deployment.topology, deployment,
        FailoverConfig(probe_duration=20.0, targets_per_site=3),
        use_checkpoint=False,
    )
    with telemetry.using(telemetry.Telemetry()) as active:
        result = experiment.run_site(ProactivePrepending(3), "sea1")
    counters = counter_values(active)
    assert {name: counters[name] for name in WIDE_CELL_COUNTS} == WIDE_CELL_COUNTS
    document = json.dumps(failover_result_to_dict(result), sort_keys=True)
    assert zlib.crc32(document.encode()) == WIDE_CELL_CRC32


#: ``engine.events_processed`` was 4304 while every MRAI timer queued its
#: expiry; 965 of those expiries found nothing to flush
WIDE_CELL_COUNTS = {
    "engine.events_processed": 3339,
    "bgp.updates_sent": 1781,
    "bgp.updates_suppressed": 2901,
    "bgp.fib_installs": 923,
}
WIDE_CELL_CRC32 = 1271051233


def test_a_suppressed_withdrawal_constructs_no_update(monkeypatch):
    built = []
    update = session_module.Update
    monkeypatch.setattr(session_module, "Update", lambda *args: built.append(args) or update(*args))
    engine, delivered = EventEngine(), []
    session = Session(
        engine, random.Random(0), "a", "b", Relationship.PEER, delivered.append,
        SessionTiming(latency=0.01, jitter=0.0, mrai=10.0),
    )
    other = IPv4Prefix.parse("184.164.245.0/24")
    session.send(PFX, None, 0)            # never advertised: nothing to take back
    assert built == [] and session._pending == {}
    session.send(other, heard("a", other, (1,)), 0)  # leaves at once, starts the timer
    session.send(PFX, heard("a", PFX, (1,)), 0)      # waits in the MRAI slot
    assert len(built) == 2
    session.send(PFX, None, 0)            # cancels the waiting route, still builds nothing
    assert len(built) == 2 and PFX not in session._pending
    engine.run_until_idle()
    assert [u.prefix for u in delivered] == [other]
    session.send(other, None, 7)          # advertised: this withdrawal does go out
    engine.run_until_idle()
    assert len(built) == 3
    assert (delivered[-1].route, delivered[-1].cause, delivered[-1].sender) == (None, 7, "a")


def line_network():
    """``a`` a customer of ``b``; sends counted per ⟨session, route⟩."""
    network = BgpNetwork(seed=1, default_timing=SessionTiming(latency=0.01, jitter=0.0, mrai=10.0))
    network.add_router("a", 1)
    network.add_router("b", 2)
    network.connect("a", "b", Relationship.PROVIDER)
    return network


def counting_sends(monkeypatch) -> list:
    sends = []
    send = Session.send

    def counting_send(session, prefix, route, cause):
        sends.append((session.local, session.remote, prefix, route is not None))
        return send(session, prefix, route, cause)

    monkeypatch.setattr(Session, "send", counting_send)
    return sends


def test_a_withdrawal_still_cancels_a_pending_announcement(monkeypatch):
    """``_export`` skips only a withdrawal with nothing to take back: one
    of a route still waiting in the MRAI slot reaches ``send`` and
    cancels it there."""
    sends = counting_sends(monkeypatch)
    other = IPv4Prefix.parse("184.164.245.0/24")
    with telemetry.using(telemetry.Telemetry()) as active, line_network() as network:
        network.announce("a", other)          # leaves at once, starts the timer
        network.announce("a", PFX)            # waits in the MRAI slot
        session = network.routers["a"].sessions["b"]
        assert PFX in session._pending and PFX not in session.advertised
        network.withdraw("a", PFX)
        assert session._pending == {}
        network.converge()
        assert list(network.routers["b"].adj_rib_in) == [other]
        # a's withdrawal reached send and cancelled there; b's split-
        # horizon withdrawal of ``other`` toward a took back nothing and
        # was skipped. Both count as suppressed.
        assert ("a", "b", PFX, False) in sends
        assert [s for s in sends if s[:2] == ("b", "a")] == []
    counters = counter_values(active)
    assert (counters["bgp.updates_sent"], counters["bgp.updates_suppressed"]) == (1, 2)


def test_a_closed_session_stays_inert(monkeypatch):
    """A closed session is sent nothing and counts nothing, whether it
    had advertised the prefix (``send`` returns at once) or not (the
    export skips it)."""
    sends = counting_sends(monkeypatch)
    other = IPv4Prefix.parse("184.164.245.0/24")
    with telemetry.using(telemetry.Telemetry()) as active, line_network() as network:
        network.announce("a", other)
        network.converge()
        session = network.routers["a"].sessions["b"]
        session.closed = True
        sends.clear()
        network.withdraw("a", other)           # advertised: send is called, does nothing
        network.withdraw("a", PFX)             # never originated: no export at all
        network.announce("a", PFX)
        network.withdraw("a", PFX)             # never advertised on b: skipped
        assert sends == [("a", "b", other, False), ("a", "b", PFX, True)]
        assert session._pending == {}
        assert network.engine.pending == 0
    counters = counter_values(active)
    # one update on the wire, the announcement made before the close
    assert counters["bgp.updates_sent"] == 1
    assert counters.get("bgp.updates_suppressed", 0) == 1
