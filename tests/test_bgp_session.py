"""Unit tests for eBGP session delivery and MRAI pacing."""

import math
import random

import pytest

from repro import telemetry
from repro.bgp.engine import EventEngine
from repro.bgp.policy import Relationship
from repro.bgp.session import DEFAULT_INTERNET_TIMING, TIMING_FIELDS, Session, SessionTiming
from repro.net.addr import IPv4Prefix

from tests.conftest import heard

PFX = IPv4Prefix.parse("184.164.244.0/24")
PFX2 = IPv4Prefix.parse("184.164.245.0/24")


def make_session(timing: SessionTiming, seed: int = 0):
    engine = EventEngine()
    received = []
    session = Session(
        engine,
        random.Random(seed),
        "a",
        "b",
        Relationship.CUSTOMER,
        received.append,
        timing,
    )
    return engine, session, received


def ann(prefix=PFX, path=(1,)):
    """``Session.send`` arguments for an announcement: prefix, route, cause."""
    return prefix, heard("a", prefix, path, origin_node="a"), 0


def wd(prefix=PFX):
    """``Session.send`` arguments for a withdrawal."""
    return prefix, None, 0


class TestDelivery:
    def test_first_update_delivered_promptly(self):
        engine, session, received = make_session(
            SessionTiming(latency=0.1, jitter=0.0, mrai=30.0)
        )
        session.send(*ann())
        engine.run_until_idle()
        assert len(received) == 1
        assert engine.now >= 0.1

    def test_fifo_preserved_under_jitter(self):
        """Later flushes never arrive before earlier ones, even with
        random per-message jitter."""
        engine, session, received = make_session(
            SessionTiming(latency=0.01, jitter=1.0, mrai=0.0), seed=3
        )
        for i in range(20):
            session.send(*ann(path=(i + 1,)))
            engine.run_until(engine.now + 0.001)
        engine.run_until_idle()
        paths = [u.route.as_path for u in received]
        assert paths == sorted(paths)

    def test_sent_updates_counter(self):
        active = telemetry.Telemetry()
        with telemetry.using(active):
            engine, session, received = make_session(SessionTiming(mrai=0.0))
        session.send(*ann())
        session.send(*wd())
        engine.run_until_idle()
        assert active.counters["bgp.updates_sent"].value == len(received) == 2


class TestMraiCoalescing:
    def test_updates_coalesce_during_mrai(self):
        """Three best-path changes inside one MRAI window reach the
        neighbor as a single update with the final state."""
        engine, session, received = make_session(
            SessionTiming(latency=0.01, jitter=0.0, mrai=10.0)
        )
        session.send(*ann(path=(1,)))  # leaves immediately, starts timer
        session.send(*ann(path=(2,)))
        session.send(*ann(path=(3,)))
        engine.run_until_idle()
        assert [u.route.as_path for u in received] == [(1,), (3,)]

    def test_mrai_zero_disables_pacing(self):
        engine, session, received = make_session(SessionTiming(mrai=0.0))
        for i in range(3):
            session.send(*ann(path=(i,)))
        engine.run_until_idle()
        assert len(received) == 3

    def test_withdrawal_for_unadvertised_prefix_is_dropped(self):
        engine, session, received = make_session(SessionTiming(mrai=0.0))
        session.send(*wd())
        engine.run_until_idle()
        assert received == []

    def test_withdrawal_cancels_unsent_announcement(self):
        """Announce+withdraw inside one MRAI window: the neighbor never
        hears about the prefix at all."""
        engine, session, received = make_session(
            SessionTiming(latency=0.01, jitter=0.0, mrai=10.0)
        )
        session.send(*ann(PFX2))  # flushed immediately; timer now running
        session.send(*ann(PFX))   # pending
        session.send(*wd(PFX))    # cancels the pending announcement
        engine.run_until_idle()
        assert [u.prefix for u in received] == [PFX2]

    def test_withdrawal_after_advertisement_goes_out(self):
        engine, session, received = make_session(SessionTiming(mrai=0.0))
        session.send(*ann())
        session.send(*wd())
        engine.run_until_idle()
        assert received[-1].route is None

    def test_advertised_tracks_wire_state(self):
        engine, session, _ = make_session(SessionTiming(mrai=0.0))
        session.send(*ann())
        engine.run_until_idle()
        assert PFX in session.advertised
        session.send(*wd())
        engine.run_until_idle()
        assert PFX not in session.advertised

    def test_second_update_waits_roughly_one_mrai(self):
        engine = EventEngine()
        arrivals = []
        session = Session(
            engine,
            random.Random(0),
            "a",
            "b",
            Relationship.CUSTOMER,
            lambda u: arrivals.append(engine.now),
            SessionTiming(latency=0.0, jitter=0.0, mrai=10.0),
        )
        session.send(*ann(path=(1,)))
        session.send(*ann(path=(2,)))
        engine.run_until_idle()
        assert len(arrivals) == 2
        # Second flush happens at MRAI expiry: within [7.5, 12.5].
        assert 7.5 <= arrivals[1] <= 12.6


class TestTimingModel:
    def test_busy_prob_delays_some_first_updates(self):
        delays = []
        for seed in range(40):
            engine = EventEngine()
            arrivals = []
            session = Session(
                engine,
                random.Random(seed),
                "a",
                "b",
                Relationship.CUSTOMER,
                lambda u: arrivals.append(engine.now),
                SessionTiming(latency=0.0, jitter=0.0, mrai=10.0, busy_prob=0.5),
            )
            session.send(*ann())
            engine.run_until_idle()
            delays.append(arrivals[0])
        immediate = sum(1 for d in delays if d < 0.01)
        delayed = sum(1 for d in delays if d >= 0.01)
        assert immediate > 5
        assert delayed > 5
        assert all(d <= 23.0 for d in delays)

    @pytest.mark.parametrize("row", TIMING_FIELDS, ids=lambda row: row.name)
    @pytest.mark.parametrize("value, message", [
        (-1.0, "is (negative|outside)"), (math.nan, "is not finite"), (math.inf, "is not finite"),
    ], ids=["negative", "nan", "inf"])
    def test_construction_refuses_every_row(self, row, value, message):
        with pytest.raises(ValueError, match=f"^{row.name} .* {message}"):
            SessionTiming(**{row.name: value})

    def test_busy_prob_validation(self):
        with pytest.raises(ValueError, match="busy_prob 1.5 is outside"):
            SessionTiming(busy_prob=1.5)

    def test_mrai_sigma_spreads_session_mrais(self):
        timing = SessionTiming(mrai=30.0, mrai_sigma=1.0)
        rng = random.Random(5)
        engine = EventEngine()
        mrais = [
            Session(engine, rng, "a", f"b{i}", Relationship.PEER, lambda u: None, timing).mrai
            for i in range(50)
        ]
        assert min(mrais) < 15.0
        assert max(mrais) > 60.0

    def test_default_profile_is_calibrated(self):
        """Guard the calibrated constants (DESIGN.md §5): changing them
        silently would shift every reproduced figure."""
        t = DEFAULT_INTERNET_TIMING
        assert t.mrai == 50.0
        assert t.busy_prob == 0.45
        assert t.mrai_sigma == 1.5
        assert t.fib_delay == 2.5


class ScriptedRng(random.Random):
    """Deterministic stand-in: ``random`` pops scripted values."""

    def __init__(self, draws):
        super().__init__(0)
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


class TestEpochGuardsMraiTimer:
    def test_stale_mrai_timer_is_inert_after_reopen(self):
        """Regression: an MRAI timer armed before ``reopen`` used to fire
        into the *new* epoch, clearing ``_mrai_running`` under the new
        timer and flushing the new epoch's pending updates early.

        Scripted draws (one jitter draw per flushed update, one duration
        draw per timer, 7.5 + 5 * draw at mrai=10): the pre-reopen timer
        lands at t=12, the post-reopen timers at t=8 and t=20. An update
        queued at t=9 must wait for the *legitimate* expiry at t=20, not
        leak out when the stale t=12 timer fires.
        """
        engine = EventEngine()
        arrivals = []
        session = Session(
            engine,
            ScriptedRng([0.0, 0.9, 0.0, 0.1, 0.0, 0.9, 0.0, 0.9]),
            "a",
            "b",
            Relationship.CUSTOMER,
            lambda u: arrivals.append((engine.now, u)),
            SessionTiming(latency=0.05, jitter=0.0, mrai=10.0),
        )
        session.send(*ann(path=(1,)))        # flushed; stale timer armed @12
        session.reopen()
        session.send(*ann(path=(2,)))        # flushed; new timer armed @8
        session.send(*ann(PFX2, path=(3,)))  # pending under the new timer
        engine.run_until(9.0)               # t=8: timer fires, flushes PFX2,
        #                                     re-arms @20
        session.send(*ann(path=(4,)))        # pending under the t=20 timer
        engine.run_until(13.0)              # stale t=12 timer fires
        # The stale timer must not have flushed path=(4,).
        assert [u.route.as_path for _, u in arrivals] == [(2,), (3,)]
        assert session._mrai_running
        assert session._pending
        engine.run_until_idle()
        when, last = arrivals[-1]
        assert last.route.as_path == (4,)
        assert when >= 20.0


class TestDrawsAreUniforms:
    """The session writes ``Random.uniform(lo, hi)`` out as ``lo + (hi -
    lo) * random()``; every delivery time and MRAI deadline must be the
    float ``uniform`` itself gives on the same stream."""

    TIMING = SessionTiming(latency=0.05, jitter=0.3, mrai=13.7, busy_prob=0.4, mrai_sigma=0.0)
    GAP = 100.0  # > a residual plus a full timer: every send finds the timer spent

    def expected(self, seed: int, sends: int) -> tuple[list, list]:
        """Deliveries and ⟨deadline after the send, deadline before the
        next⟩ per send, drawn with ``rng.uniform``."""
        rng, t = random.Random(seed), self.TIMING
        deliveries, deadlines = [], []
        for k in range(sends):
            now = k * self.GAP
            if rng.random() < t.busy_prob:  # busy: wait out a residual first
                now += rng.uniform(0, t.mrai)
                after_send = now
            else:
                after_send = None
            deliveries.append(now + (t.latency + rng.uniform(0, t.jitter)))
            deadline = now + rng.uniform(0.75 * t.mrai, 1.25 * t.mrai)
            deadlines.append((after_send or deadline, deadline))
        return deliveries, deadlines

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_deliveries_and_deadlines_equal_uniform_draws(self, seed):
        engine, session, received = make_session(self.TIMING, seed)
        deliveries, deadlines = [], []
        session._deliver = lambda update: deliveries.append(engine.now)
        for k in range(40):
            engine.run_until(k * self.GAP)
            session.send(*ann(path=(k + 1,)))
            after_send = session._mrai_until
            engine.run_until((k + 1) * self.GAP - 1.0)
            deadlines.append((after_send, session._mrai_until))
        assert (deliveries, deadlines) == self.expected(seed, 40)
        assert any(a != b for a, b in deadlines)  # the busy branch ran
