"""The update format, pinned as traffic: how many exports one forked cell
makes, how many of them put an update on the wire, and that an export
the session suppresses builds no update object at all.

Measured at the parent (PR 23), every export built a ``Withdrawal``
first, and each announced route cost four objects on its way into the
receiver's Adj-RIB-In (a ``replace``d ``Route``, an ``Announcement``,
the stored ``Route``, plus that eager ``Withdrawal``). An update is now
the route it carries: one ``Route`` written by export policy, one
``Update`` around it, and nothing for the majority of exports -- the
withdrawal of a prefix the session never advertised.
"""

import random

from repro import telemetry
from repro.bgp import session as session_module
from repro.bgp.engine import EventEngine
from repro.bgp.policy import Relationship
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionTiming
from repro.core.techniques import ReactiveAnycast
from repro.net.addr import IPv4Prefix

from tests.conftest import heard
from tests.test_probe_record import forked_experiment

PFX = IPv4Prefix.parse("184.164.244.0/24")


class Census:
    """Counting wrappers around the export, the update constructor and
    the delivery; the source runs unpatched underneath."""

    def __init__(self, monkeypatch):
        self.exports = self.offers = self.updates_built = 0
        self.announcements = self.withdrawals = 0
        offer, receive, update = BgpRouter.offer, BgpRouter.receive, session_module.Update

        def counting_offer(router, session, prefix, best):
            self.exports += 1
            route = offer(router, session, prefix, best)
            self.offers += route is not None
            return route

        def counting_update(*args):
            self.updates_built += 1
            return update(*args)

        def counting_receive(router, message):
            if message.route is None:
                self.withdrawals += 1
            else:
                self.announcements += 1
            return receive(router, message)

        monkeypatch.setattr(BgpRouter, "offer", counting_offer)
        monkeypatch.setattr(BgpRouter, "receive", counting_receive)
        monkeypatch.setattr(session_module, "Update", counting_update)


def test_update_traffic_of_one_forked_cell(monkeypatch, deployment):
    """reactive-anycast x sea1, forked (baseline convergence + the cell):
    exact counts. The parent's ``_build_export`` / ``receive`` counted the
    same 3,542 / 1,245 / 44 and built 3,542 ``Withdrawal``s alone, 2,128 of
    them returned, for 44 delivered."""
    census = Census(monkeypatch)
    with telemetry.using(telemetry.Telemetry()) as active:
        forked_experiment(deployment).run_site(ReactiveAnycast(), "sea1")
    counters = active.snapshot()["counters"]
    assert census.exports == 3542
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
