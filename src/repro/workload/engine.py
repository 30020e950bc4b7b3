"""The workload engine: streams requests through live routing state.

:class:`WorkloadEngine` attaches a :class:`~repro.workload.stream.RequestStream`
to a running simulation. A self-rescheduling tick event (cadence
``profile.tick_s`` on the simulation clock) drains the arrivals that
fell due since the previous tick and classifies each against the
*current* FIB state via the route-version-keyed
:class:`~repro.workload.catchment.CatchmentCache`: **served** when
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
from typing import Callable, Iterable, Sequence

from repro.dataplane.forwarding import CLASS_BY_REASON, ForwardingPlane
from repro.net.addr import IPv4Address
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import SiteOverloaded, WorkloadSample
from repro.topology.testbed import PROBE_SOURCE, CdnDeployment
from repro.workload.capacity import CapacityState
from repro.workload.catchment import CatchmentCache
from repro.workload.profile import WorkloadProfile
from repro.workload.stream import Request, RequestStream


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
        self._arrivals: "object | None" = None
        self._pending: Request | None = None
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
        arrivals = iter(stream)
        self._arrivals = arrivals
        self._pending = next(arrivals, None)
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
        if self._pending is None:
            return
        remaining = self._duration - elapsed
        engine.schedule(min(self.profile.tick_s, remaining), self._tick)

    def _divert_target(
        self,
        site: str,
        request: Request,
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
        draw = zlib.crc32(f"{request.t!r}/{request.client}".encode()) % 10_000
        if draw >= fraction * 10_000:
            return site
        best = site
        best_spare = 0.0
        for alt in sorted(budgets):
            if alt == site or alt in self.dead_sites:
                continue
            spare = budgets[alt] - used.get(alt, 0.0)
            if spare >= 1.0 and spare > best_spare:
                best = alt
                best_spare = spare
        return best

    def _drain(self, elapsed: float) -> None:
        """Classify every arrival due by ``elapsed`` against current FIBs."""
        account = self.account
        account.ticks += 1
        resolve = self.cache.resolve
        dead_sites = self.dead_sites
        think = self.profile.think_time_s
        capacity = self.capacity
        budgets: dict[str, float] | None = None
        used: dict[str, float] = {}
        attempts: dict[str, int] = {}
        divert: dict[str, float] = {}
        dt = elapsed - self._drained_to
        if capacity is not None:
            # Per-tick serving credit; recomputed every tick so brownout
            # scaling applies from the tick after the event fires.
            budgets = {
                site: capacity.effective_rps(site) * dt
                for site in self.deployment.site_names
            }
            divert = capacity.dns_divert
        offered = served = overload = 0
        lost = dict.fromkeys(CLASS_BY_REASON.values(), 0)
        hot: set[str] = set()
        request = self._pending
        arrivals = self._arrivals
        while request is not None and request.t <= elapsed:
            offered += 1
            resolution = resolve(request.client)
            loss = resolution.loss_class
            if loss is not None:
                lost[loss] += 1
            elif resolution.site in dead_sites:
                # Liveness is the one half of the verdict the cache
                # cannot hold (a silent failure moves no FIB).
                lost["wrong-site"] += 1
            elif budgets is None:
                served += 1
                by_site = account.served_by_site
                by_site[resolution.site] = by_site.get(resolution.site, 0) + 1
            else:
                site = resolution.site
                fraction = divert.get(site, 0.0)
                if fraction > 0.0:
                    site = self._divert_target(
                        site, request, fraction, budgets, used
                    )
                attempts[site] = attempts.get(site, 0) + 1
                spent = used.get(site, 0.0)
                if spent + 1.0 <= budgets.get(site, math.inf) + 1e-9:
                    used[site] = spent + 1.0
                    served += 1
                    by_site = account.served_by_site
                    by_site[site] = by_site.get(site, 0) + 1
                else:
                    overload += 1
                    hot.add(site)
            request = next(arrivals, None)  # type: ignore[call-overload]
        self._pending = request
        if offered:
            blackhole, loop, wrong_site = lost["blackhole"], lost["loop"], lost["wrong-site"]
            failed = blackhole + loop + wrong_site
            user_s = (failed + overload) * think
            account.offered += offered
            account.served += served
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
                        served=served,
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
        if hot and budgets is not None and capacity is not None:
            telemetry = self._telemetry
            for site in sorted(hot):
                if site in self._overload_notified:
                    continue
                self._overload_notified.add(site)
                if telemetry.enabled:
                    rate = (
                        (attempts.get(site, 0) / dt) if dt > 0 else 0.0
                    )
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
