"""The workload engine: streams requests through live routing state.

:class:`WorkloadEngine` attaches a :class:`~repro.workload.stream.RequestStream`
to a running simulation. A self-rescheduling tick event (cadence
``profile.tick_s`` on the simulation clock) drains the arrivals that
fell due since the previous tick and classifies each against the
*current* FIB state via the route-version-keyed
:class:`~repro.workload.catchment.CatchmentCache` -- once per distinct
client per tick, since nothing a request's outcome depends on (the
client's route, site liveness, site budgets) moves inside a tick:
**served** when
:func:`~repro.dataplane.forwarding.delivery_verdict` lands it at a live
CDN site with serving capacity, otherwise lost to the outage class
(**blackhole**, **loop**, **wrong-site**) that
:data:`~repro.dataplane.forwarding.CLASS_BY_REASON` gives the verdict's
loss reason -- the same table the availability ledger classifies lost
probes with. With a capacity profile attached there is a fifth outcome,
**lost (overload)**: delivered to a live site whose serving capacity
(:class:`~repro.workload.capacity.CapacityState`) is exhausted for the
tick; without one every live site is unlimited and it never occurs.

When capacity is attached the engine also drives the *load-shedding
control loop*: the first tick that pushes a site past its effective
capacity latches the site as overloaded and fires the ``on_overload``
callback (the controller reacts after its ``detection_delay``, exactly
like failures). The latch is per-site and only cleared explicitly
(capacity restored by an un-brownout), never by load dropping -- that
asymmetry is what guarantees the shed converges instead of oscillating.
DNS-weighted shedding diverts a deterministic per-request hash fraction
of an overloaded site's requests to the live site with the most spare
capacity in the tick.

Every failed request strands its user for the profile's
``think_time_s``; **user-minutes-lost** is ``failed_requests *
think_time_s / 60``, accumulated per ⟨technique, site⟩ in a
:class:`WorkloadAccount` and -- when telemetry is on -- emitted as
aggregated :class:`~repro.telemetry.trace.WorkloadSample` events (one
per non-empty tick, never per request, so traces stay bounded) for the
availability ledger to fold.

Determinism: the engine consumes only its stream's dedicated RNG and
reads (never writes) network state, so attaching a workload does not
perturb BGP convergence, probing, or the network RNG -- and the account
is byte-identical serial vs ``--workers N`` and across checkpoint forks.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.dataplane.forwarding import CLASS_BY_REASON, ForwardingPlane
from repro.net.addr import IPv4Address
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import SiteOverloaded, WorkloadSample
from repro.topology.testbed import PROBE_SOURCE, CdnDeployment
from repro.workload.capacity import CapacityState
from repro.workload.catchment import CatchmentCache
from repro.workload.profile import WorkloadProfile
from repro.workload.stream import RequestStream


@dataclass(slots=True)
class WorkloadAccount:
    """Per-⟨technique, site⟩ offered-load and loss accounting."""

    technique: str = ""
    site: str = ""
    offered: int = 0
    served: int = 0
    lost_blackhole: int = 0
    lost_loop: int = 0
    lost_wrong_site: int = 0
    #: requests reaching a live site whose capacity was exhausted
    lost_overload: int = 0
    user_seconds_lost: float = 0.0
    #: the overload share of ``user_seconds_lost``
    user_seconds_lost_overload: float = 0.0
    #: requests served per live site (the offered-load distribution)
    served_by_site: dict[str, int] = field(default_factory=dict)
    ticks: int = 0

    @property
    def lost(self) -> int:
        return (
            self.lost_blackhole
            + self.lost_loop
            + self.lost_wrong_site
            + self.lost_overload
        )

    @property
    def loss_frac(self) -> float:
        return self.lost / self.offered if self.offered else 0.0

    @property
    def user_minutes_lost(self) -> float:
        return self.user_seconds_lost / 60.0

    @property
    def user_minutes_lost_overload(self) -> float:
        return self.user_seconds_lost_overload / 60.0

    def to_dict(self) -> dict:
        return {
            "technique": self.technique,
            "site": self.site,
            "offered": self.offered,
            "served": self.served,
            "lost": {
                "blackhole": self.lost_blackhole,
                "loop": self.lost_loop,
                "wrong-site": self.lost_wrong_site,
                "overload": self.lost_overload,
            },
            "loss_frac": round(self.loss_frac, 6),
            "user_seconds_lost": round(self.user_seconds_lost, 6),
            "user_minutes_lost": round(self.user_minutes_lost, 6),
            "served_by_site": dict(sorted(self.served_by_site.items())),
        }


def merge_accounts(accounts: Iterable[WorkloadAccount]) -> WorkloadAccount:
    """Sum per-cell accounts (e.g. one technique's row of a sweep).

    Metadata is preserved when uniform across the inputs: merging one
    account (or several for the same site) keeps its site label, and
    only a genuine mix becomes ``site="*"`` / ``technique="pooled"``.
    An empty iterable yields a blank zero account.
    """
    merged = WorkloadAccount()
    first = True
    for account in accounts:
        if first:
            merged.technique = account.technique
            merged.site = account.site
            first = False
        else:
            if merged.technique != account.technique:
                merged.technique = "pooled"
            if merged.site != account.site:
                merged.site = "*"
        merged.offered += account.offered
        merged.served += account.served
        merged.lost_blackhole += account.lost_blackhole
        merged.lost_loop += account.lost_loop
        merged.lost_wrong_site += account.lost_wrong_site
        merged.lost_overload += account.lost_overload
        merged.user_seconds_lost += account.user_seconds_lost
        merged.user_seconds_lost_overload += account.user_seconds_lost_overload
        merged.ticks += account.ticks
        for site, count in account.served_by_site.items():
            merged.served_by_site[site] = merged.served_by_site.get(site, 0) + count
    return merged


def render_account(account: WorkloadAccount) -> str:
    """One-line summary (stable format; CI greps it).

    The overload clause only appears when overload loss occurred, so
    capacity-free runs render byte-identically to before the capacity
    model existed.
    """
    line = (
        f"workload: {account.offered} requests offered, "
        f"{account.lost} lost ({account.loss_frac:.1%}), "
        f"{account.user_minutes_lost:.1f} user-minutes lost"
    )
    if account.lost_overload:
        line += (
            f", {account.lost_overload} overload "
            f"({account.user_minutes_lost_overload:.1f} user-minutes)"
        )
    return line


def served_within(attempts: int, budget: float) -> int:
    """How many of ``attempts`` requests a tick's serving credit covers.

    The closed form of admitting requests one at a time while ``spent +
    1.0 <= budget + 1e-9``; an unlimited site (``inf``) serves all, a
    NaN or negative budget none.
    """
    credit = budget + 1e-9
    if credit >= attempts:
        return attempts
    return math.floor(credit) if credit >= 1.0 else 0


class WorkloadEngine:
    """Drives one run's request stream on the simulation clock."""

    def __init__(
        self,
        plane: ForwardingPlane,
        deployment: CdnDeployment,
        profile: WorkloadProfile,
        *,
        seed: int,
        clients: Sequence[str] | None = None,
        technique: str = "",
        site: str = "",
        dead_sites: set[str] | None = None,
        dst: IPv4Address = PROBE_SOURCE,
        capacity: CapacityState | None = None,
        on_overload: Callable[[str], None] | None = None,
    ) -> None:
        self.plane = plane
        self.deployment = deployment
        self.profile = profile
        self.seed = seed
        if clients is None:
            clients = [
                info.node_id for info in plane.topology.web_client_ases()
            ]
        self.clients = list(clients)
        #: client AS -> region, for regional surge weighting; clients
        #: missing from the map simply carry no surge bias
        self.regions: dict[str, str] = {
            info.node_id: info.location.region
            for info in plane.topology.web_client_ases()
        }
        #: shared with the prober when one exists, so site failures and
        #: recoveries observed by probing apply to requests too
        self.dead_sites: set[str] = dead_sites if dead_sites is not None else set()
        #: per-run capacity view; None = every live site is unlimited
        self.capacity = capacity
        #: called once per site, on the first tick that exhausts its
        #: capacity (the controller's overload signal)
        self.on_overload = on_overload
        self.cache = CatchmentCache(plane, deployment, dst)
        self.account = WorkloadAccount(technique=technique, site=site)
        self._telemetry = telemetry_registry.current()
        self._epoch = 0.0
        self._duration = 0.0
        self._drained_to = 0.0
        self._batches: Iterator[tuple[np.ndarray, ...]] = iter(())
        #: what is left of the stream chunk being drained (None once the
        #: stream is dry)
        self._chunk: tuple[np.ndarray, ...] | None = None
        #: the order diversion scans alternative sites in
        self._site_order = sorted(deployment.site_names)
        #: sites whose overload callback already fired (latched; cleared
        #: only by :meth:`clear_overload`, never by load dropping)
        self._overload_notified: set[str] = set()

    def clear_overload(self, site: str) -> None:
        """Unlatch a site (capacity restored) so overload can re-fire."""
        self._overload_notified.discard(site)

    # ------------------------------------------------------------------

    def start(self, duration_s: float) -> None:
        """Begin streaming: ticks run for ``duration_s`` simulated seconds
        starting now. The caller advances the clock (``run_for``)."""
        if duration_s <= 0:
            return
        engine = self.plane.network.engine
        self._epoch = engine.now
        self._duration = duration_s
        self._drained_to = 0.0
        stream = RequestStream(
            self.profile, self.clients, duration_s, self.seed, self.regions
        )
        self._batches = stream.batches()
        self._chunk = next(self._batches, None)
        engine.schedule(min(self.profile.tick_s, duration_s), self._tick)

    def _tick(self) -> None:
        engine = self.plane.network.engine
        elapsed = engine.now - self._epoch
        # Snap the final tick to the nominal duration: ``now - epoch``
        # can land a float residue *short* of it, which used to strand
        # arrivals with t in (elapsed, duration] -- silently never
        # offered. The same epsilon then stops the rescheduling below,
        # so the last tick cannot respawn zero-length ticks either.
        if self._duration - elapsed <= 1e-9:
            elapsed = self._duration
        self._drain(elapsed)
        self._drained_to = elapsed
        if elapsed >= self._duration:
            return
        # Once the stream is dry there is nothing left to drain: stop
        # rescheduling instead of spawning no-op ticks to the horizon.
        if self._chunk is None:
            return
        remaining = self._duration - elapsed
        engine.schedule(min(self.profile.tick_s, remaining), self._tick)

    def _drain(self, elapsed: float) -> None:
        """Cut the arrivals due by ``elapsed`` off the stream and book them."""
        times = [np.empty(0)]
        clients = [np.empty(0, dtype=np.intp)]
        while self._chunk is not None:
            chunk_times, chunk_clients, _ = self._chunk
            due = int(np.searchsorted(chunk_times, elapsed, "right"))
            times.append(chunk_times[:due])
            clients.append(chunk_clients[:due])
            if due < len(chunk_times):
                self._chunk = tuple(column[due:] for column in self._chunk)
                break
            self._chunk = next(self._batches, None)
        self._book(
            np.concatenate(times), np.concatenate(clients), elapsed - self._drained_to
        )

    def _divert_target(
        self,
        site: str,
        t: float,
        client: str,
        fraction: float,
        budgets: dict[str, float],
        used: dict[str, float],
    ) -> str:
        """DNS-weighted shedding: maybe redirect a request off ``site``.

        A deterministic per-request hash (never the stream RNG -- the
        arrival sequence must not depend on shedding state) selects the
        diverted fraction; diverted requests go to the live site with
        the most spare capacity left this tick. Returns the final site.
        """
        draw = zlib.crc32(f"{t!r}/{client}".encode()) % 10_000
        if draw >= fraction * 10_000:
            return site
        best = site
        best_spare = 0.0
        for alt in self._site_order:
            if alt == site or alt in self.dead_sites:
                continue
            spare = budgets[alt] - used.get(alt, 0.0)
            if spare >= 1.0 and spare > best_spare:
                best = alt
                best_spare = spare
        return best

    def _serve_in_order(
        self,
        times: np.ndarray,
        clients: np.ndarray,
        landed: dict[int, str],
        budgets: dict[str, float],
        divert: dict[str, float],
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Admit a tick's requests one at a time, in arrival order.

        Only needed while some site diverts: where a diverted request
        goes depends on the credit the requests before it have spent.
        ``landed`` maps a client index to the live site its requests
        reach; the rest were lost on the way and take no credit.
        Returns ⟨served, attempts⟩ per site after diversion.
        """
        served: dict[str, int] = {}
        attempts: dict[str, int] = {}
        used: dict[str, float] = {}
        for t, index in zip(times.tolist(), clients.tolist()):
            site = landed.get(index)
            if site is None:
                continue
            fraction = divert.get(site, 0.0)
            if fraction > 0.0:
                site = self._divert_target(
                    site, t, self.clients[index], fraction, budgets, used
                )
            attempts[site] = attempts.get(site, 0) + 1
            spent = used.get(site, 0.0)
            if spent + 1.0 <= budgets.get(site, math.inf) + 1e-9:
                used[site] = spent + 1.0
                served[site] = served.get(site, 0) + 1
        return served, attempts

    def _book(self, times: np.ndarray, clients: np.ndarray, dt: float) -> None:
        """Classify one tick's arrivals (parallel arrays: arrival time,
        index into ``self.clients``) against current FIBs; ``dt`` is the
        tick's length, which sets each site's serving credit."""
        account = self.account
        account.ticks += 1
        cache = self.cache
        dead_sites = self.dead_sites
        capacity = self.capacity
        lost = dict.fromkeys(CLASS_BY_REASON.values(), 0)
        #: client index -> the live site its requests reach
        landed: dict[int, str] = {}
        attempts: dict[str, int] = {}
        per_client = np.bincount(clients, minlength=len(self.clients))
        distinct = np.flatnonzero(per_client)
        for index, count in zip(distinct.tolist(), per_client[distinct].tolist()):
            resolution = cache.resolve(self.clients[index])
            # hits / misses keep counting requests, not lookups
            cache.hits += count - 1
            loss = resolution.loss_class
            if loss is not None:
                lost[loss] += count
            elif resolution.site in dead_sites:
                # Liveness is the one half of the verdict the cache
                # cannot hold (a silent failure moves no FIB).
                lost["wrong-site"] += count
            else:
                landed[index] = resolution.site
                attempts[resolution.site] = attempts.get(resolution.site, 0) + count
        if capacity is None:
            served = attempts
        else:
            # Per-tick serving credit; recomputed every tick so brownout
            # scaling applies from the tick after the event fires.
            budgets = {
                site: capacity.effective_rps(site) * dt
                for site in self.deployment.site_names
            }
            divert = capacity.dns_divert
            if any(divert.get(site, 0.0) > 0.0 for site in attempts):
                served, attempts = self._serve_in_order(
                    times, clients, landed, budgets, divert
                )
            else:
                served = {
                    site: served_within(count, budgets.get(site, math.inf))
                    for site, count in attempts.items()
                }
        offered = len(clients)
        if offered:
            by_site = account.served_by_site
            for site, count in served.items():
                if count:
                    by_site[site] = by_site.get(site, 0) + count
            think = self.profile.think_time_s
            served_n = sum(served.values())
            overload = sum(attempts.values()) - served_n
            blackhole, loop, wrong_site = lost["blackhole"], lost["loop"], lost["wrong-site"]
            failed = blackhole + loop + wrong_site
            user_s = (failed + overload) * think
            account.offered += offered
            account.served += served_n
            account.lost_blackhole += blackhole
            account.lost_loop += loop
            account.lost_wrong_site += wrong_site
            account.lost_overload += overload
            account.user_seconds_lost += user_s
            account.user_seconds_lost_overload += overload * think
            telemetry = self._telemetry
            if telemetry.enabled:
                telemetry.inc("workload.requests", offered)
                if failed or overload:
                    telemetry.inc("workload.requests_lost", failed + overload)
                telemetry.emit(
                    WorkloadSample(
                        t=telemetry.now(),
                        offered=offered,
                        served=served_n,
                        blackhole=blackhole,
                        loop=loop,
                        wrong_site=wrong_site,
                        overload=overload,
                        user_seconds_lost=user_s,
                    )
                )
        # Fire the overload latch *after* the tick's accounting so the
        # control reaction (announcements, DNS divert) starts on later
        # ticks, never mid-drain.
        hot = sorted(
            site for site, count in attempts.items() if served.get(site, 0) < count
        )
        if hot and capacity is not None:
            telemetry = self._telemetry
            for site in hot:
                if site in self._overload_notified:
                    continue
                self._overload_notified.add(site)
                if telemetry.enabled:
                    rate = (attempts[site] / dt) if dt > 0 else 0.0
                    telemetry.emit(
                        SiteOverloaded(
                            t=telemetry.now(),
                            site=site,
                            offered_rps=round(rate, 3),
                            capacity_rps=capacity.effective_rps(site),
                        )
                    )
                if self.on_overload is not None:
                    self.on_overload(site)
