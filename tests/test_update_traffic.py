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
from repro.bgp.policy import Relationship
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionTiming
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import ProactivePrepending, ReactiveAnycast
from repro.measurement.export import failover_result_to_dict
from repro.net.addr import IPv4Prefix
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment

from tests.conftest import heard
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

    ``exports`` counts ``Session.send`` calls, one per ⟨best-path change,
    session⟩: 3,542, as many as when each export was its own ``offer``
    (and, before that, its own ``_build_export``, which built 3,542
    ``Withdrawal``s alone, 2,128 of them returned, for 44 delivered).
    ``evaluations`` counts ``policy.exported`` calls: one per ⟨best-path
    change, relationship class⟩ among the sessions that pass split
    horizon and the origination scope -- 773, where the per-session
    ``offer`` made 3,527, one per export of a selected route."""
    census = Census(monkeypatch)
    with telemetry.using(telemetry.Telemetry()) as active:
        forked_experiment(deployment).run_site(ReactiveAnycast(), "sea1")
    counters = active.snapshot()["counters"]
    assert census.exports == 3542
    assert census.evaluations == 773
    assert (census.announcements, census.withdrawals) == (1245, 44)
    # Every export ends one of three ways: suppressed by the session (no
    # object), swallowed by a closed session (none in this cell), or an
    # update in the MRAI slot -- and only an offered route or the
    # withdrawal of an advertised prefix gets that far.
    suppressed = counters["bgp.updates_suppressed"]
    assert census.updates_built == census.exports - suppressed == 1460
    assert census.offers == 1414 and suppressed == 2082
    # ... of which MRAI coalescing overwrote some before they left; no
    # message was in flight when the run ended, none was lost.
    assert counters["bgp.updates_sent"] == census.announcements + census.withdrawals
    assert census.updates_built - counters["bgp.updates_sent"] == 171


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
    counters = active.snapshot()["counters"]
    assert {name: counters[name] for name in WIDE_CELL_COUNTS} == WIDE_CELL_COUNTS
    document = json.dumps(failover_result_to_dict(result), sort_keys=True)
    assert zlib.crc32(document.encode()) == WIDE_CELL_CRC32


WIDE_CELL_COUNTS = {
    "engine.events_processed": 4304,
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
