"""Multi-event operational scenarios.

The paper's §5 protocol fails one site, once, permanently. Real
operations see richer timelines -- rolling regional outages, sites that
flap, maintenance drains -- and a CDN evaluating a redirection technique
wants to see *service availability over time* through such an episode.

:class:`ScenarioRunner` drives one deployment through a scripted event
timeline (site failures, silent failures, recoveries, drains,
brownouts -- :class:`~repro.faults.plan.Action` entries) while probing
a client population continuously, then reports availability per time
bucket: the fraction of probes answered by a live site. The §5.4.1
per-target metrics answer "how fast did each client recover"; the
availability series answers "how much service was lost over the whole
episode", which is the SLO view (§3's "unavailability budget of a CDN,
e.g. a few minutes per month").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.session import DEFAULT_INTERNET_TIMING, SessionTiming
from repro.core.rig import RunRig
from repro.core.techniques import Technique
from repro.dataplane.ping import DRAIN_SLACK_S, PROBE_INTERVAL_S, PROBE_WINDOW_S
from repro.faults.plan import Action, FaultPlan
from repro.net.addr import IPv4Address
from repro.telemetry import registry as telemetry_registry
from repro.topology.generator import Topology
from repro.topology.testbed import CdnDeployment
from repro.workload.capacity import CapacityProfile
from repro.workload.engine import WorkloadAccount
from repro.workload.profile import WorkloadProfile

#: clients probed when a runner names no ``target_nodes``: the first
#: web-client ASes
SCENARIO_TARGETS = 20


@dataclass(slots=True)
class ScenarioReport:
    """Availability over time plus the raw event log."""

    events: list[Action]
    bucket_s: float
    #: per bucket: (answered probes, sent probes)
    buckets: list[tuple[int, int]]
    #: faults injected / skipped by the armed fault plan (0 without one)
    faults_injected: int = 0
    faults_skipped: int = 0
    #: request-level accounting (None unless the runner had a workload)
    workload: WorkloadAccount | None = None
    #: post-convergence "no site over capacity" violations, formatted;
    #: the invariant is evaluated iff the run bound a capacity model
    capacity_violations: tuple[str, ...] = ()
    capacity_evaluated: bool = False

    def availability(self) -> list[float]:
        """Per-bucket fraction of probes answered."""
        return [
            answered / sent if sent else 1.0 for answered, sent in self.buckets
        ]

    def downtime_s(self, threshold: float = 0.5) -> float:
        """Total scenario time spent with availability below ``threshold``
        -- the unavailability-budget view of §3."""
        return self.bucket_s * sum(
            1 for value in self.availability() if value < threshold
        )

    def mean_availability(self) -> float:
        values = self.availability()
        return sum(values) / len(values) if values else 1.0


@dataclass(slots=True)
class ScenarioRunner:
    """Runs a scripted failure/recovery timeline under one technique."""

    topology: Topology
    deployment: CdnDeployment
    technique: Technique
    specific_site: str
    events: list[Action] = field(default_factory=list)
    duration_s: float = PROBE_WINDOW_S
    bucket_s: float = 10.0
    #: explicit target AS nodes (default: the first
    #: :data:`SCENARIO_TARGETS` web clients); pick the failing site's
    #: catchment to observe its outage
    target_nodes: list[str] | None = None
    #: make-before-break delay for rolling back emergency announcements
    recovery_grace: float = 0.0
    timing: SessionTiming = DEFAULT_INTERNET_TIMING
    seed: int = 0
    #: optional chaos: armed after the initial convergence, on the
    #: same timeline (and epoch) as the scripted ``events``
    fault_plan: FaultPlan | None = None
    #: optional client traffic streamed through the episode
    workload: WorkloadProfile | None = None
    #: optional per-site serving capacity (enables overload accounting,
    #: brownout events, and the post-convergence capacity invariant)
    capacity: CapacityProfile | None = None

    # ------------------------------------------------------------------

    def add_event(
        self, at: float, kind: str, site: str, **params: float
    ) -> "ScenarioRunner":
        self.events.append(Action(at, kind, site, params))
        return self

    def fail(self, at: float, site: str) -> "ScenarioRunner":
        return self.add_event(at, "fail", site)

    def recover(self, at: float, site: str) -> "ScenarioRunner":
        return self.add_event(at, "recover", site)

    # ------------------------------------------------------------------

    def run(self) -> ScenarioReport:
        """Execute the timeline and collect the availability series."""
        with (
            self.topology.build_network(seed=self.seed, timing=self.timing) as network,
            RunRig(
                network,
                self.deployment,
                self.technique,
                self.specific_site,
                recovery_grace=self.recovery_grace,
                workload=self.workload,
                capacity=self.capacity,
                fault_plan=self.fault_plan,
                events=self.events,
            ) as rig,
        ):

            nodes = self.target_nodes
            if nodes is None:
                nodes = [i.node_id for i in self.topology.web_client_ases()[:SCENARIO_TARGETS]]
            targets: dict[IPv4Address, str] = {}
            for node in nodes:
                prefix = self.topology.ases[node].prefix
                if prefix is None:
                    raise ValueError(f"target AS {node!r} has no client prefix")
                targets[prefix.address(1)] = node

            start = network.now
            ordered = sorted(self.events, key=lambda e: e.at)
            # The phase tags give the availability ledger its run context
            # (technique, site); the scenario's focus site is the first
            # scripted event's target, or the deploy site for a quiet run.
            focus_site = ordered[0].target if ordered else self.specific_site
            with telemetry_registry.current().phase(
                "scenario", technique=self.technique.name, site=focus_site
            ):
                rig.prober.start(targets, interval=PROBE_INTERVAL_S, duration=self.duration_s)
                tag = f"scenario/{self.technique.name}/{focus_site}"
                rig.start_workload(self.duration_s, self.seed, tag, site=focus_site)
                network.run_for(self.duration_s + DRAIN_SLACK_S)

            report = self._report(rig, start, ordered)
            report.faults_injected = rig.injector.injected
            report.faults_skipped = rig.injector.skipped
            if rig.engine is not None:
                report.workload = rig.engine.account
            if rig.capacity_state is not None:
                # The capacity invariant is about the settled catchment.
                network.converge()
                report.capacity_violations = tuple(v.format() for v in rig.capacity_violations())
                report.capacity_evaluated = True
            return report

    def _report(
        self, rig: RunRig, start: float, ordered: list[Action]
    ) -> ScenarioReport:
        n_buckets = int(self.duration_s // self.bucket_s) + 1
        sent = [0] * n_buckets
        answered = [0] * n_buckets
        for log in rig.prober.logs.values():
            for probe in log.probes:
                bucket = int((probe.sent_at - start) // self.bucket_s)
                if 0 <= bucket < n_buckets:
                    sent[bucket] += 1
                    if probe.site is not None:
                        answered[bucket] += 1
        return ScenarioReport(
            events=ordered,
            bucket_s=self.bucket_s,
            buckets=list(zip(answered, sent)),
        )
