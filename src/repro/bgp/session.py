"""eBGP sessions: message delivery and MRAI pacing.

A :class:`Session` is one *direction* of a BGP adjacency (router A's view
of its session toward router B). It owns:

* the business relationship (used by import/export policy),
* a delivery model — per-message latency with jitter, FIFO-preserving,
* the MinRouteAdvertisementInterval (MRAI) timer that batches updates.

The MRAI model follows common router behaviour: the first update toward a
quiet neighbor is sent immediately and starts the timer; updates generated
while the timer runs are coalesced (latest state per prefix wins) and
flushed when it expires. This is what makes fresh announcements propagate
in seconds while withdrawal path hunting — many successive best-path
changes for the same prefix — stretches over minutes, the asymmetry at the
heart of the paper's Appendix A vs Appendix B results.

A timer is a deadline, not an event: starting one draws its duration and
stores the end time. Only the first update deferred behind it queues the
expiry that will flush it, so a timer nothing waits on costs no event
(docs/architecture.md, "MRAI pacing").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Callable

from repro.bgp.policy import Relationship
from repro.bgp.route import Route, Update
from repro.fields import Field, violations
from repro.net.addr import IPv4Prefix, cached_str
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import BgpUpdateSent

if TYPE_CHECKING:
    from repro.bgp.engine import EventEngine
    from repro.telemetry.registry import NullTelemetry, Telemetry


#: the rows of :class:`SessionTiming`, all reported under PRE131 by the
#: pre-run gate. Construction refuses only what every session's draws
#: read; the pacing fields a profile may hold out of range, so that the
#: gate has something to report.
_PACING = (
    Field("latency", lo=0, code="PRE131"),
    Field("jitter", lo=0, code="PRE131"),
    Field("mrai", lo=0, code="PRE131"),
)
_DRAWS = (
    Field("busy_prob", lo=0, hi=1, code="PRE131"),
    Field("mrai_sigma", lo=0, code="PRE131"),
    Field("fib_delay", lo=0, code="PRE131"),
)
TIMING_FIELDS = (*_PACING, *_DRAWS)


@dataclass(frozen=True, slots=True)
class SessionTiming:
    """Timing parameters for one session direction.

    Attributes:
        latency: one-way message propagation plus processing, seconds.
        jitter: uniform jitter added on top of ``latency``.
        mrai: mean MRAI duration; each timer run samples uniformly from
            ``[0.75 * mrai, 1.25 * mrai]``. Zero disables pacing.
        busy_prob: probability that, when an update arrives at a quiet
            session, an MRAI timer is *already* mid-flight from ambient
            churn the simulation does not carry explicitly. In that case
            the update waits out the residual timer (uniform over the
            MRAI) instead of leaving immediately. This is what stretches
            first-update propagation from milliseconds to the seconds
            observed at real collectors (Appendix B's ~10 s medians).
        mrai_sigma: per-session heterogeneity. Each session's effective
            MRAI is ``mrai * lognormal(0, mrai_sigma)``, drawn once at
            session setup. Real convergence tails (Appendix A's 400 s
            p90) are dominated by a minority of slow/rate-limited
            sessions; this models them without simulating router load.
        fib_delay: mean lag between a Loc-RIB best-path change and the
            forwarding plane actually using it (RIB->FIB download). Only
            the data plane sees this; collector feeds are control-plane.
    """

    latency: float = 0.05
    jitter: float = 0.2
    mrai: float = 2.5
    busy_prob: float = 0.0
    mrai_sigma: float = 0.0
    fib_delay: float = 0.0

    def __post_init__(self) -> None:
        for _, message in violations(_DRAWS, self):
            raise ValueError(message)


#: Timing profile calibrated so the simulated Internet reproduces the
#: paper's measured BGP behaviour (see DESIGN.md §5): anycast announcement
#: propagation of a few seconds at the median across collector peers
#: (Appendix B's <10 s), unicast withdrawal convergence of ~100 s median
#: with a heavy tail (Appendix A's 100 s / 400 s), and data-plane anycast
#: failover around ten seconds (Figure 2). Its ``busy_prob`` and
#: ``mrai_sigma`` do not reach the sessions ``Topology.build_network``
#: builds (docs/architecture.md, "MRAI pacing").
DEFAULT_INTERNET_TIMING = SessionTiming(
    latency=0.05,
    jitter=3.0,
    mrai=50.0,
    busy_prob=0.45,
    mrai_sigma=1.5,
    fib_delay=2.5,
)

#: ``Session.export_class`` by relationship
_EXPORT_CLASS = {relationship: index for index, relationship in enumerate(Relationship)}


class Session:
    """One direction of an eBGP adjacency, with MRAI-paced delivery."""

    # A wide network holds ~1,800 of these and every forked cell rebuilds
    # them all: slots spare each one its dict.
    __slots__ = (
        "engine", "rng", "local", "remote", "relationship", "export_class", "timing", "_deliver",
        "mrai", "_pending", "_mrai_until", "_expiry_queued", "_last_delivery", "closed", "epoch",
        "advertised", "loss_prob", "dup_prob", "dirty", "_telemetry",
        "_updates_sent_counter", "_mrai_deferrals", "_updates_suppressed",
    )

    def __init__(
        self,
        engine: "EventEngine",
        rng: random.Random,
        local: str,
        remote: str,
        relationship: Relationship,
        deliver: Callable[[Update], None],
        timing: SessionTiming | None = None,
        telemetry: "Telemetry | NullTelemetry | None" = None,
        mrai: float | None = None,
    ) -> None:
        self.engine = engine
        self.rng = rng
        self.local = local
        self.remote = remote
        self.relationship = relationship
        #: the relationship as an int: the router evaluates export policy
        #: once per relationship class and keys the result on this, not
        #: on the enum (whose hash is a Python-level call)
        self.export_class = _EXPORT_CLASS[relationship]
        self.timing = timing or SessionTiming()
        self._deliver = deliver
        #: effective MRAI for this session (heterogeneous across sessions):
        #: drawn here, unless given (a restored session keeps its snapshot's)
        if mrai is None:
            mrai = self.timing.mrai
            if self.timing.mrai_sigma > 0:
                mrai *= rng.lognormvariate(0.0, self.timing.mrai_sigma)
        self.mrai = mrai
        self._pending: dict[IPv4Prefix, Update] = {}
        #: when the MRAI timer runs out; it runs while the clock is short
        #: of this (never, before the first flush)
        self._mrai_until = 0.0
        #: an expiry event is queued for the running timer: set by the
        #: first update deferred behind it, cleared when the event fires
        self._expiry_queued = False
        self._last_delivery = 0.0
        #: set by link/node failure injection: a closed session neither
        #: sends nor delivers (in-flight messages are lost on arrival).
        self.closed = False
        #: establishment epoch, bumped by :meth:`reopen`; deliveries
        #: scheduled under an older epoch are dropped on arrival, so a
        #: session that closes and reopens does not resurrect messages
        #: that were in flight when it went down.
        self.epoch = 0
        #: prefixes currently advertised to the remote end (sent and not
        #: withdrawn), used by the router to decide whether a withdrawal
        #: needs to be sent at all.
        self.advertised: set[IPv4Prefix] = set()
        #: fault injection: probability that a delivered message is lost
        #: (dropped on arrival) or duplicated (processed twice). Both are
        #: 0.0 outside fault drills; the RNG is only consulted when a
        #: probability is non-zero, so fault-free runs draw identically.
        self.loss_prob = 0.0
        self.dup_prob = 0.0
        #: an update was queued since the transfer state was last loaded
        #: (:meth:`restore_transfer_state` clears it): the transfer state
        #: changes only through such an update, so a rewind reloads only
        #: the sessions that have it set
        self.dirty = False
        if telemetry is None:
            telemetry = telemetry_registry.current()
        self._telemetry = telemetry
        # send()/_flush() run per BGP update; resolve the counters once
        # instead of a dict lookup per call.
        if telemetry.enabled:
            self._updates_sent_counter = telemetry.counter("bgp.updates_sent")
            self._mrai_deferrals = telemetry.counter("bgp.mrai_deferrals")
            self._updates_suppressed = telemetry.counter("bgp.updates_suppressed")
        else:
            self._updates_sent_counter = None
            self._mrai_deferrals = self._updates_suppressed = None

    @property
    def _mrai_running(self) -> bool:
        """True while the MRAI timer runs: its deadline lies ahead."""
        return self.engine.now < self._mrai_until

    def reopen(self) -> None:
        """Re-establish a closed session (BGP session reset, up phase).

        All transfer state is reset as at initial establishment: nothing
        is considered advertised, no updates are pending, the MRAI timer
        is quiet, and messages in flight from the previous epoch are
        discarded on arrival. The owning router must follow up by
        re-advertising its Loc-RIB (``BgpRouter.resync_session``), and
        the remote router must have flushed this session's routes from
        its Adj-RIB-In (``BgpRouter.flush_neighbor``) during the down
        phase, mirroring real session re-establishment.
        """
        self.closed = False
        self.epoch += 1
        self.advertised.clear()
        self._pending.clear()
        self._mrai_until = 0.0
        self._expiry_queued = False
        self._last_delivery = 0.0

    def send(self, prefix: IPv4Prefix, route: Route | None, cause: int) -> None:
        """Queue an update for the remote end -- ``route``, or a withdrawal
        when None -- respecting MRAI pacing.

        Updates for the same prefix coalesce while the MRAI timer runs:
        only the latest state is flushed. A withdrawal for a prefix the
        remote end has never seen cancels any unsent announcement instead
        of going on the wire; most exports are that, so the update is
        only built once it is known to leave.
        """
        if self.closed:
            return
        if route is None and prefix not in self.advertised:
            self._pending.pop(prefix, None)
            if self._updates_suppressed is not None:
                self._updates_suppressed.inc()
            return
        self._pending[prefix] = Update(self.local, prefix, route, cause)
        self.dirty = True
        if self.engine._now < self._mrai_until:
            if self._mrai_deferrals is not None:
                self._mrai_deferrals.inc()
            self._queue_expiry()
        elif (
            self.mrai > 0
            and self.timing.busy_prob > 0
            and self.rng.random() < self.timing.busy_prob
        ):
            # Ambient churn: a timer is already running; wait out its
            # residual life before this update can leave.
            self._run_timer(self.mrai * self.rng.random())
            self._queue_expiry()
        else:
            self._flush()
            self._start_mrai()

    def _flush(self) -> None:
        """Put all pending updates on the wire, preserving FIFO order."""
        if self.closed:
            self._pending.clear()
            return
        telemetry = self._telemetry
        engine = self.engine
        # This runs once per update put on the wire: it reads the clock
        # and pushes each delivery onto the engine's heap itself, as
        # ``schedule_at`` would (a delivery is never due before now). Its
        # draws, like every timer draw here, are ``Random.uniform(lo, hi)``
        # written out as ``lo + (hi - lo) * random()`` (``hi * random()``
        # for ``lo = 0``): the same floats, one call less each.
        now = engine._now
        queue, counter = engine._queue, engine._counter
        latency, jitter = self.timing.latency, self.timing.jitter
        random = self.rng.random
        for update in self._pending.values():
            route = update.route
            if route is not None:
                self.advertised.add(update.prefix)
            else:
                self.advertised.discard(update.prefix)
            delay = latency + jitter * random()
            deliver_at = max(now + delay, self._last_delivery + 1e-6)
            self._last_delivery = deliver_at
            if telemetry.enabled:
                self._updates_sent_counter.inc()
                telemetry.emit(
                    BgpUpdateSent(
                        t=now,
                        sender=self.local,
                        receiver=self.remote,
                        prefix=cached_str(update.prefix),
                        update="announce" if route is not None else "withdraw",
                        as_path_len=len(route.as_path) if route is not None else 0,
                        cause=update.cause,
                    )
                )
            heappush(queue, (deliver_at, next(counter), self._make_delivery(update)))
        self._pending.clear()

    def _make_delivery(self, update: Update) -> Callable[[], None]:
        epoch = self.epoch

        def deliver() -> None:
            # Messages in flight when the link fails are lost, and a
            # reopened session never delivers its previous epoch's mail.
            if self.closed or epoch != self.epoch:
                return
            if self.loss_prob > 0 and self.rng.random() < self.loss_prob:
                if self._telemetry.enabled:
                    self._telemetry.inc("bgp.messages_lost")
                return
            self._deliver(update)
            if self.dup_prob > 0 and self.rng.random() < self.dup_prob:
                if self._telemetry.enabled:
                    self._telemetry.inc("bgp.messages_duplicated")
                self._deliver(update)

        return deliver

    def _start_mrai(self) -> None:
        if self.mrai > 0:
            lo, hi = 0.75 * self.mrai, 1.25 * self.mrai
            self._run_timer(lo + (hi - lo) * self.rng.random())

    def _run_timer(self, duration: float) -> None:
        """Start a timer that runs out ``duration`` seconds from now; an
        idle engine still moves its clock on to the deadline."""
        engine = self.engine
        self._mrai_until = until = engine._now + duration
        engine.note_deadline(until)

    def _queue_expiry(self) -> None:
        """Flush what is pending when the running timer runs out."""
        if not self._expiry_queued:
            self._expiry_queued = True
            # straight onto the heap, as in _flush: the deadline is ahead
            engine = self.engine
            heappush(
                engine._queue, (self._mrai_until, next(engine._counter), self._make_mrai_expiry())
            )

    def _make_mrai_expiry(self) -> Callable[[], None]:
        epoch = self.epoch

        def mrai_expired() -> None:
            # A timer armed before a session reset must not act after
            # reopen(): it would flush the new epoch's pending updates
            # early, breaking MRAI pacing. Same epoch check as
            # _make_delivery.
            if epoch != self.epoch:
                return
            self._expiry_queued = False
            if not self._pending:
                return
            if self.engine._now < self._mrai_until:
                # a flush at this timer's own deadline started another
                self._queue_expiry()
                return
            self._flush()
            self._start_mrai()

        return mrai_expired

    # ------------------------------------------------------------------
    # Checkpointing (see repro.checkpoint)

    def transfer_state(self) -> tuple:
        """Plain-data transfer state for a *quiescent* session.

        With the event queue drained and the clock past every MRAI
        deadline there are no pending updates and no running timer, so
        the effective MRAI, delivery epoch, advertised set, and last
        delivery time are the whole state: ⟨mrai, epoch, advertised
        (sorted), last_delivery⟩, a tuple because a snapshot holds one
        per session direction (an empty advertised set becomes the
        interpreter's one empty tuple). The loss knobs are the link's
        (``BgpNetwork.set_message_loss`` keeps them per link), and a
        session at rest is open: ``fail_link`` drops a closed session
        and ``reset_session`` reopens it. Raises if the session is
        closed, still has a running timer or pending updates (the caller
        snapshotted a non-quiescent network).
        """
        if self._pending or self._mrai_running or self.closed:
            raise RuntimeError(
                f"session {self.local!r}->{self.remote!r} is not quiescent "
                f"(pending={len(self._pending)}, mrai_running={self._mrai_running}, "
                f"closed={self.closed})"
            )
        return (self.mrai, self.epoch, tuple(sorted(self.advertised)), self._last_delivery)

    def restore_transfer_state(self, state: tuple) -> None:
        """Put this session back in a snapshot's quiescent state.

        The *effective* MRAI is restored verbatim, so a restored session
        paces exactly like the one snapshotted; nothing is left pending
        and no timer runs, whatever the session did since (a rewind).
        """
        self._pending.clear()
        self._mrai_until = 0.0
        self._expiry_queued = False
        self.dirty = False
        self.mrai, self.epoch, advertised, self._last_delivery = state
        self.advertised = set(advertised)
