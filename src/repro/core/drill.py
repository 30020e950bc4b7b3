"""Pre-failure propagation drills.

§4, on reactive-anycast: "To debug the propagation of the new anycast
announcement, prior to failure, a CDN can rotate through its sites and
withdraw a test prefix at the site to see if its clients are routed as
expected." This module implements that rotation: announce a *test*
prefix per the technique, fail each site in turn, and verify that every
monitored client ends up at a surviving site within a deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.session import SessionTiming
from repro.core.rig import RunRig
from repro.core.techniques import Technique
from repro.faults import FaultPlan, check_invariants
from repro.net.addr import IPv4Prefix
from repro.telemetry import registry as telemetry_registry
from repro.topology.generator import Topology
from repro.topology.testbed import SECOND_PREFIX, CdnDeployment
from repro.workload.capacity import CapacityProfile
from repro.workload.engine import WorkloadAccount
from repro.workload.profile import WorkloadProfile


#: bound on the post-deadline settle time before the invariant audit
SETTLE_S = 3600.0


@dataclass(frozen=True, slots=True)
class DrillOutcome:
    """Result of one site's drill rotation."""

    site: str
    #: clients the FIBs deliver to a live site at the deadline
    recovered: int
    #: clients dropped, off-net or still landing at a dead site
    stranded: int
    #: node ids of the stranded clients, for operator follow-up
    stranded_clients: tuple[str, ...] = ()
    #: formatted invariant violations found after the drill settled
    #: (empty when checking was off or everything held)
    violations: tuple[str, ...] = ()
    #: faults injected / skipped during this site's drill
    faults_injected: int = 0
    faults_skipped: int = 0
    #: request-level accounting (None unless the drill had a workload)
    workload: WorkloadAccount | None = None

    @property
    def passed(self) -> bool:
        return self.stranded == 0 and not self.violations


@dataclass(slots=True)
class RotationDrill:
    """Rotates a test-prefix failure through every site.

    Uses :data:`SECOND_PREFIX` (the testbed's spare /24) by default so
    production traffic on the primary prefix is never touched -- exactly
    the paper's suggestion.
    """

    topology: Topology
    deployment: CdnDeployment
    technique: Technique
    test_prefix: IPv4Prefix = SECOND_PREFIX
    deadline_s: float = 120.0
    detection_delay: float = 2.0
    timing: SessionTiming | None = None
    seed: int = 0
    #: optional chaos: a fault timeline armed right after the initial
    #: convergence (fault times are relative to that instant), so faults
    #: land during each site's failover window
    fault_plan: FaultPlan | None = None
    #: audit global consistency (forwarding loops, advertised-sync,
    #: RIB/FIB coherence) once each site's drill settles; violations are
    #: recorded on the outcome and fail it
    check_invariants: bool = False
    #: optional client traffic streamed through each site's deadline
    #: window (resolved against the *test* prefix, like the drill itself)
    workload: WorkloadProfile | None = None
    #: optional per-site serving capacity; with a workload, requests over
    #: budget are lost to overload, the technique's shedding hooks fire,
    #: and the invariant audit adds the site-capacity check
    capacity: CapacityProfile | None = None
    outcomes: list[DrillOutcome] = field(default_factory=list)

    def run_site(self, site: str, clients: list[str]) -> DrillOutcome:
        """Drill one site: deploy, fail, wait the deadline, audit."""
        # Tagging the phase gives the availability ledger and the
        # profiler their per-site run context.
        with telemetry_registry.current().phase(
            "drill", technique=self.technique.name, site=site
        ):
            return self._run_site(site, clients)

    def _run_site(self, site: str, clients: list[str]) -> DrillOutcome:
        with (
            self.topology.build_network(seed=self.seed, timing=self.timing) as network,
            RunRig(
                network,
                self.deployment,
                self.technique,
                site,
                prefix=self.test_prefix,
                dst=self.test_prefix.address(1),
                detection_delay=self.detection_delay,
                workload=self.workload,
                capacity=self.capacity,
                fault_plan=self.fault_plan,
            ) as rig,
        ):
            rig.fail(site)
            tag = f"drill/{self.technique.name}/{site}"
            rig.start_workload(self.deadline_s, self.seed, tag, clients=clients)
            network.run_for(self.deadline_s)

            # The audit is the FIB walk: a client is stranded when the data
            # plane delivers it nowhere live, whichever prefix carries it.
            stranded = [client for client in clients if rig.live_site(client) is None]
            violations: tuple[str, ...] = ()
            if self.check_invariants:
                # Let in-flight convergence (and any fault events scheduled
                # past the deadline) drain before auditing: the invariants
                # are only meaningful on a quiet network.
                network.converge(max_seconds=SETTLE_S)
                found = check_invariants(network).violations + rig.capacity_violations()
                violations = tuple(v.format() for v in found)
            outcome = DrillOutcome(
                site=site,
                recovered=len(clients) - len(stranded),
                stranded=len(stranded),
                stranded_clients=tuple(stranded),
                violations=violations,
                faults_injected=rig.injector.injected,
                faults_skipped=rig.injector.skipped,
                workload=rig.engine.account if rig.engine is not None else None,
            )
            self.outcomes.append(outcome)
            return outcome

    def run_rotation(
        self,
        clients: list[str] | None = None,
        *,
        workers: int = 1,
        timeout_s: float | None = None,
        progress=None,
    ) -> list[DrillOutcome]:
        """Drill every site once; returns per-site outcomes.

        ``workers > 1`` drills sites in parallel worker processes (each
        drill is an independent simulation seeded only by ``seed``), with
        outcomes merged back in site order -- identical to the serial
        path. A crashed or timed-out site drill raises ``RuntimeError``.
        """
        if clients is None:
            clients = [info.node_id for info in self.topology.web_client_ases()]
        sites = self.deployment.site_names
        if workers <= 1:
            return [self.run_site(site, clients) for site in sites]
        # Local import: keeps repro.core importable without repro.parallel.
        from repro.parallel.pool import map_cells

        results = map_cells(
            _drill_site_cell,
            self,
            [(f"drill/{site}", (site, clients)) for site in sites],
            workers=workers,
            timeout_s=timeout_s,
            progress=progress,
        )
        failures = [r for r in results if not r.ok]
        if failures:
            summary = "; ".join(f"{r.cell_id}: {r.status}" for r in failures)
            raise RuntimeError(f"{len(failures)} drill cell(s) failed: {summary}")
        outcomes = [r.value for r in results]
        self.outcomes.extend(outcomes)
        return outcomes

    def all_passed(self) -> bool:
        return bool(self.outcomes) and all(o.passed for o in self.outcomes)


def _drill_site_cell(drill: RotationDrill, payload: tuple[str, list[str]]) -> DrillOutcome:
    """Worker entry point: one site's drill on a pickled drill copy.

    The worker's ``drill`` is its own copy, so ``run_site``'s append to
    ``outcomes`` stays local; the parent re-appends merged outcomes in
    site order.
    """
    site, clients = payload
    return drill.run_site(site, clients)
