"""The workload engine: streams requests through live routing state.

:class:`WorkloadEngine` attaches a :class:`~repro.workload.stream.RequestStream`
to a running simulation. A self-rescheduling tick event (cadence
``profile.tick_s`` on the simulation clock) drains the arrivals that
fell due since the previous tick and classifies each against the
*current* FIB state, read from the forwarding plane's walk memo
(:meth:`~repro.dataplane.forwarding.ForwardingPlane.walk_from`, the one
answer to "where does traffic from X land now"). Nothing a request's
outcome depends on (the client's route, site liveness, site budgets)
moves inside a tick, so each client keeps one verdict code, re-read
only when ⟨``route_version``, dead sites⟩ moved since, and a tick's
tally is one ``np.bincount`` of the codes over its requests (a
flash-stream batch at seed 42 reads the memo 44,960 times, where a walk
per distinct client per tick took 226,710): **served** when
:func:`~repro.dataplane.forwarding.delivery_verdict` lands it at a live
CDN site with serving capacity, otherwise lost to the outage class
(**blackhole**, **loop**, **wrong-site**) that
:data:`~repro.dataplane.forwarding.CLASS_BY_REASON` gives the verdict's
loss reason -- the same table the availability ledger classifies lost
probes with. With a capacity profile attached there is a fifth outcome,
**lost (overload)**: delivered to a live site whose serving capacity
(:class:`~repro.workload.capacity.CapacityState`) is exhausted for the
tick; without one every live site is unlimited and it never occurs.

When capacity is attached the engine also feeds the *load-shedding
control loop*: after each tick it reports every site that lost requests
to overload, with the rate offered there, to the ``on_overload``
callback. The latch is the controller's
(:meth:`~repro.core.controller.CdnController.site_overloaded`): the
first report latches the site and schedules the shed after its
``detection_delay``, exactly like failures, and only an un-brownout
clears it, never load dropping -- that asymmetry is what guarantees the
shed converges instead of oscillating.
DNS-weighted shedding diverts a deterministic per-request hash fraction
of an overloaded site's requests to the live site with the most spare
capacity in the tick. Only the requests that landed on a diverting site
are hashed, and only the ones the hash selects are walked one at a time;
everyone else's arrivals at a site are counted by binary search
(:meth:`WorkloadEngine._admit_diverting`), with exactly the outcome of
admitting every request in arrival order.

Every failed request strands its user for the profile's
``think_time_s``; **user-minutes-lost** is ``failed_requests *
think_time_s / 60``. Each tick's tally is one
:class:`~repro.telemetry.trace.WorkloadSample`, booked into the run's
per-⟨technique, site⟩ :class:`WorkloadAccount` and -- when telemetry
is on and the tick offered requests -- emitted, never per request, so
traces stay bounded. The availability ledger books the emitted samples
into the same kind of row, so ``repro report`` prints what the run
accounted.

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

from repro.dataplane.forwarding import CLASS_BY_REASON, ForwardingPlane, delivery_verdict
from repro.net.addr import IPv4Address
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import WorkloadSample
from repro.topology.testbed import PROBE_SOURCE, CdnDeployment
from repro.workload.capacity import CapacityState
from repro.workload.profile import WorkloadProfile
from repro.workload.stream import RequestStream

#: the outage classes of a lost request, in verdict-code order
_LOSS_CLASSES = tuple(dict.fromkeys(CLASS_BY_REASON.values()))


@dataclass(slots=True)
class WorkloadAccount:
    """Per-⟨technique, site⟩ offered-load and loss accounting.

    One row, folded one way: :meth:`book` adds a tick's
    :class:`~repro.telemetry.trace.WorkloadSample`, whether the engine
    is booking the tick it just classified or the availability ledger is
    replaying a trace, so a run's account and the ledger's row for it
    are equal. :func:`merge_accounts` is the one merge of rows.
    """

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
    #: ticks booked (a ledger's row sees only those that offered requests)
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

    def book(self, sample: WorkloadSample) -> None:
        """Fold one tick's tally into the row."""
        self.ticks += 1
        self.offered += sample.offered
        self.served += sample.served
        self.lost_blackhole += sample.blackhole
        self.lost_loop += sample.loop
        self.lost_wrong_site += sample.wrong_site
        self.lost_overload += sample.overload
        self.user_seconds_lost += sample.user_seconds_lost
        self.user_seconds_lost_overload += sample.user_seconds_lost_overload
        _add_counts(self.served_by_site, sample.served_by_site)

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
        _add_counts(merged.served_by_site, account.served_by_site)
    return merged


def _add_counts(into: dict[str, int], counts: dict[str, int]) -> None:
    for site, count in counts.items():
        into[site] = into.get(site, 0) + count


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
        on_overload: Callable[[str, float], None] | None = None,
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
        #: the run's down set (the controller's, which the prober reads)
        self.dead_sites: set[str] = dead_sites if dead_sites is not None else set()
        #: per-run capacity view; None = every live site is unlimited
        self.capacity = capacity
        #: called after each tick with ⟨site, offered rps⟩ for every site
        #: that lost requests to overload (the controller's latch)
        self.on_overload = on_overload
        #: the address requests are sent to
        self.dst = dst
        #: the plane again, only for ``bench/workloads.py::per_layer``,
        #: which reads ``engine.cache.hits / misses / invalidations``
        self.cache = plane
        self.account = WorkloadAccount(technique=technique, site=site)
        self._telemetry = telemetry_registry.current()
        self._epoch = 0.0
        self._duration = 0.0
        self._drained_to = 0.0
        self._batches: Iterator[tuple[np.ndarray, np.ndarray]] = iter(())
        #: what is left of the stream chunk being drained, ⟨arrival times,
        #: client indices⟩ (None once the stream is dry)
        self._chunk: tuple[np.ndarray, np.ndarray] | None = None
        #: the order diversion scans alternative sites in
        self._site_order = sorted(deployment.site_names)
        #: each client's verdict code: an index into ``_sites`` (the live
        #: site its requests reach) or, past them, into ``_LOSS_CLASSES``
        self._sites = deployment.site_names
        self._site_code = {site: code for code, site in enumerate(self._sites)}
        self._loss_code = {
            reason: len(self._sites) + _LOSS_CLASSES.index(outage)
            for reason, outage in CLASS_BY_REASON.items()
        }
        self._n_codes = len(self._sites) + len(_LOSS_CLASSES)
        self._codes = np.zeros(len(self.clients), dtype=np.intp)
        #: which codes were read under ``_verdict_key``, the ⟨route
        #: version, dead sites⟩ of the last tick
        self._fresh = np.zeros(len(self.clients), dtype=bool)
        self._verdict_key: tuple[int, frozenset[str]] | None = None

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
            chunk_times, chunk_clients = self._chunk
            due = int(np.searchsorted(chunk_times, elapsed, "right"))
            times.append(chunk_times[:due])
            clients.append(chunk_clients[:due])
            if due < len(chunk_times):
                self._chunk = chunk_times[due:], chunk_clients[due:]
                break
            self._chunk = next(self._batches, None)
        self._book(
            np.concatenate(times), np.concatenate(clients), elapsed - self._drained_to
        )

    def _admit_diverting(
        self,
        times: np.ndarray,
        clients: np.ndarray,
        codes: np.ndarray,
        budgets: dict[str, float],
        divert: dict[str, float],
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Admit a tick on which some site DNS-diverts.

        ``codes`` holds each request's verdict code (below ``len(sites)``:
        the live site it landed at; the rest were lost on the way and
        take no credit). A deterministic per-request hash (never the
        stream RNG -- the arrival sequence must not depend on shedding
        state) selects each diverting site's fraction of its requests;
        only the selected candidates are walked one at a time, in
        arrival order, each to the first site in ``_site_order`` with the
        most spare credit (at least one request) at its arrival, or left
        where it landed. A site's spare is its budget less the arrivals
        there before the candidate: the fixed ones (every other request),
        by binary search on their positions, plus the earlier candidates'
        choices. (Admission spends ``served_within`` of those arrivals,
        not all of them, but a site past its credit has less than one
        request of spare either way: ``served_within`` floors ``budget +
        1e-9``.) Returns ⟨served, attempts⟩ per site after diversion, in
        order of first attempt: exactly what admitting every request one
        at a time in arrival order gives.
        """
        sites = self._sites
        landed = np.flatnonzero(codes < len(sites))
        site_codes = codes[landed]
        shares = [divert.get(site, 0.0) for site in sites]
        hashed = np.flatnonzero(np.array(shares)[site_codes] > 0.0)
        names = self.clients
        candidates = [
            position
            for position, t, index, code in zip(
                hashed.tolist(),
                times[landed[hashed]].tolist(),
                clients[landed[hashed]].tolist(),
                site_codes[hashed].tolist(),
            )
            if zlib.crc32(f"{t!r}/{names[index]}".encode()) % 10_000 < shares[code] * 10_000
        ]
        targets = site_codes.copy()
        if candidates:
            fixed = np.ones(len(site_codes), dtype=bool)
            fixed[candidates] = False
            # ⟨code, budget, fixed arrivals before each candidate⟩ per
            # site a candidate may be sent to
            alts = []
            for site in self._site_order:
                if site not in self.dead_sites:
                    code = self._site_code[site]
                    arrivals = np.flatnonzero(fixed & (site_codes == code))
                    before = np.searchsorted(arrivals, candidates).tolist()
                    alts.append((code, budgets[site], before))
            chosen = [0] * len(sites)
            for j, (position, code) in enumerate(
                zip(candidates, site_codes[candidates].tolist())
            ):
                best, best_spare = code, 0.0
                for alt, budget, before in alts:
                    if alt != code:
                        spare = budget - (before[j] + chosen[alt])
                        if spare >= 1.0 and spare > best_spare:
                            best, best_spare = alt, spare
                chosen[best] += 1
                targets[position] = best
        counts = np.bincount(targets, minlength=len(sites)).tolist()
        present, first = np.unique(targets, return_index=True)
        attempts = {sites[code]: counts[code] for code in present[np.argsort(first)].tolist()}
        served = {
            site: admitted
            for site, count in attempts.items()
            if (admitted := served_within(count, budgets.get(site, math.inf)))
        }
        return served, attempts

    def _verdicts(self, distinct: np.ndarray) -> np.ndarray:
        """Every client's verdict code, current for the clients in
        ``distinct``: only those whose code was read under another
        ⟨``route_version``, dead sites⟩ walk the memo again."""
        key = (self.plane.network.route_version, frozenset(self.dead_sites))
        if key != self._verdict_key:
            self._verdict_key = key
            self._fresh[:] = False
        stale = distinct[~self._fresh[distinct]]
        codes = self._codes
        for index in stale.tolist():
            walk = self.plane.walk_from(self.clients[index], self.dst)
            site, reason = delivery_verdict(
                walk.delivered_to, walk.reason, self.deployment, self.dead_sites
            )
            codes[index] = (
                self._site_code[site] if reason is None else self._loss_code[reason]
            )
        self._fresh[stale] = True
        return codes

    def _book(self, times: np.ndarray, clients: np.ndarray, dt: float) -> None:
        """Classify one tick's arrivals (parallel arrays: arrival time,
        index into ``self.clients``) against current FIBs; ``dt`` is the
        tick's length, which sets each site's serving credit."""
        distinct = np.flatnonzero(np.bincount(clients, minlength=len(self.clients)))
        codes = self._verdicts(distinct)
        request_codes = codes[clients]
        tally = np.bincount(request_codes, minlength=self._n_codes).tolist()
        sites = self._sites
        lost = dict(zip(_LOSS_CLASSES, tally[len(sites):]))
        # Sites in order of the first client (by index) landing there,
        # the order a per-client loop would have met them in.
        distinct_codes = codes[distinct]
        landed_codes, first = np.unique(
            distinct_codes[distinct_codes < len(sites)], return_index=True
        )
        attempts = {
            sites[code]: tally[code] for code in landed_codes[np.argsort(first)].tolist()
        }
        capacity = self.capacity
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
                served, attempts = self._admit_diverting(
                    times, clients, request_codes, budgets, divert
                )
            else:
                served = {
                    site: served_within(count, budgets.get(site, math.inf))
                    for site, count in attempts.items()
                }
        think = self.profile.think_time_s
        served_n = sum(served.values())
        overload = sum(attempts.values()) - served_n
        failed = lost["blackhole"] + lost["loop"] + lost["wrong-site"]
        telemetry = self._telemetry
        sample = WorkloadSample(
            t=telemetry.now(),
            offered=len(clients),
            served=served_n,
            blackhole=lost["blackhole"],
            loop=lost["loop"],
            wrong_site=lost["wrong-site"],
            overload=overload,
            user_seconds_lost=(failed + overload) * think,
            user_seconds_lost_overload=overload * think,
            served_by_site={site: count for site, count in served.items() if count},
        )
        self.account.book(sample)
        if sample.offered and telemetry.enabled:
            telemetry.inc("workload.requests", sample.offered)
            if failed or overload:
                telemetry.inc("workload.requests_lost", failed + overload)
            telemetry.emit(sample)
        # Report overload *after* the tick's accounting so the control
        # reaction (announcements, DNS divert) starts on later ticks,
        # never mid-drain.
        if self.on_overload is not None:
            for site in sorted(attempts):
                if served.get(site, 0) < attempts[site]:
                    self.on_overload(site, attempts[site] / dt if dt > 0 else 0.0)
