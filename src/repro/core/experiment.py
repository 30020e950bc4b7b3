"""The §5.2 failover experiment protocol.

Per ⟨technique, failed site⟩ the paper's procedure is:

1. advertise the technique's before-failure announcements (Fig. 1);
2. wait for convergence (the paper waits an hour; the simulator can run
   the event queue dry, which is equivalent);
3. ping all targets once and keep those whose replies land at the
   current site -- the *controllable* targets;
4. withdraw everything the site announces (the emulated failure), let
   the technique react after the monitoring delay, and ping every
   controllable target every ~1.5 s for ~600 s while capturing where
   replies arrive;
5. compute per-target reconnection and failover times (§5.4.1).

:class:`FailoverExperiment` runs that protocol on a fresh network per
run, sharing the anycast catchment and target selections (which depend
only on the topology) across techniques.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.bgp.damping import DampingConfig
from repro.bgp.session import DEFAULT_INTERNET_TIMING, SessionTiming
from repro.checkpoint import NetworkSnapshot, restore_network, snapshot_network
from repro.core.metrics import TargetOutcome, outcomes_for_run
from repro.core.plan import Technique, apply_plan
from repro.core.rig import RunRig, tagged_seed
from repro.measurement.catchment import anycast_catchment
from repro.measurement.hitlist import Hitlist, TargetSelection, select_targets
from repro.net.addr import IPv4Address
from repro.telemetry import registry as telemetry_registry
from repro.topology.generator import Topology
from repro.topology.testbed import SPECIFIC_PREFIX, SUPERPREFIX, CdnDeployment
from repro.workload.capacity import CapacityProfile
from repro.workload.engine import WorkloadAccount
from repro.workload.profile import WorkloadProfile


@dataclass(frozen=True, slots=True)
class FailoverConfig:
    """Experiment parameters (§5.2 defaults, scaled where noted)."""

    #: probing cadence and window ("every ~1.5s for ~600s")
    probe_interval: float = 1.5
    probe_duration: float = 600.0
    #: monitoring/control reaction time after the failure
    detection_delay: float = 2.0
    #: targets selected per site (paper: 50 K; scaled to simulation size)
    targets_per_site: int = 40
    #: §5.1 site-proximity bound
    rtt_limit_ms: float = 50.0
    #: §5.1 anycast filter ("not routed to site by anycast")
    exclude_anycast_routed: bool = True
    #: base seed; each (site, technique) run perturbs it deterministically
    seed: int = 42
    #: session timing profile (defaults to the calibrated Internet profile)
    timing: SessionTiming | None = DEFAULT_INTERNET_TIMING
    #: slack after the probing window for in-flight events
    drain_slack: float = 30.0
    #: if True, the failed site does NOT withdraw its own announcements
    #: (silent crash); the controller withdraws them after detection
    silent_failure: bool = False
    #: optional RFC 2439 route flap damping at every router
    damping: DampingConfig | None = None
    #: optional client traffic streamed during the probe window
    #: (``--workload``); adds request-level loss accounting to results
    workload: WorkloadProfile | None = None
    #: optional per-site serving capacity (``--capacity``); requests
    #: over a site's budget are lost to overload and the controller
    #: reacts through the technique's shedding hooks
    capacity: CapacityProfile | None = None


@dataclass(slots=True)
class SiteFailoverResult:
    """Everything one ⟨technique, failed site⟩ run produced."""

    technique: str
    site: str
    withdrawal_time: float
    selection: TargetSelection
    #: targets that were reachable at the site pre-failure
    controllable: dict[IPv4Address, str]
    outcomes: list[TargetOutcome] = field(default_factory=list)
    #: request-level accounting (None unless the config set a workload)
    workload: WorkloadAccount | None = None

    @property
    def controllable_frac(self) -> float:
        """Fraction of selected targets the technique could steer to the
        site before the failure (§5.4.2's control metric)."""
        if not self.selection.targets:
            return 0.0
        return len(self.controllable) / len(self.selection.targets)


class FailoverExperiment:
    """Runs the failover protocol over a deployment."""

    def __init__(
        self,
        topology: Topology,
        deployment: CdnDeployment,
        config: FailoverConfig | None = None,
        *,
        catchment: dict[str, str | None] | None = None,
        hitlist: Hitlist | None = None,
        selections: dict[str, TargetSelection] | None = None,
        use_checkpoint: bool = False,
    ) -> None:
        self.topology = topology
        self.deployment = deployment
        self.config = config or FailoverConfig()
        #: run cells on the checkpoint/fork fast path (see
        #: docs/checkpoint.md). Off by default in the library; the CLIs
        #: turn it on (opt out with --no-checkpoint). The forked path is
        #: self-deterministic but *not* numerically identical to the
        #: legacy cold-start path: per-cell runs no longer spend RNG
        #: draws on their own baseline convergence.
        self.use_checkpoint = use_checkpoint
        # The keyword arguments pre-seed the topology-only caches, so a
        # second experiment over the same world need not recompute them.
        self._catchment: dict[str, str | None] | None = catchment
        self._hitlist: Hitlist | None = hitlist
        self._selections: dict[str, TargetSelection] = dict(selections or {})
        self._baselines: dict[str, NetworkSnapshot] = {}

    # ------------------------------------------------------------------
    # Shared, topology-only state

    @property
    def catchment(self) -> dict[str, str | None]:
        """Pure-anycast catchment, computed once (§5.1 criterion)."""
        if self._catchment is None:
            self._catchment = anycast_catchment(self.topology, self.deployment)
        return self._catchment

    @property
    def hitlist(self) -> Hitlist:
        if self._hitlist is None:
            self._hitlist = Hitlist(self.topology, seed=self.config.seed)
        return self._hitlist

    def selection_for(self, site: str, mode: str = "beyond-anycast") -> TargetSelection:
        """§5.1 target selection for one site (cached per mode).

        ``beyond-anycast`` applies the paper's "not routed to site by
        anycast" criterion; ``anycast-catchment`` instead keeps exactly
        the targets anycast routes to the site, which is the population
        the pure-anycast baseline serves there.
        """
        key = f"{site}/{mode}"
        selection = self._selections.get(key)
        if selection is not None:
            return selection
        if mode not in ("beyond-anycast", "anycast-catchment"):
            raise ValueError(f"unknown selection mode {mode!r}")
        beyond = mode == "beyond-anycast"
        selection = select_targets(
            self.topology,
            self.deployment,
            site,
            self.catchment,
            self.hitlist,
            max_targets=self.config.targets_per_site,
            rtt_limit_ms=self.config.rtt_limit_ms,
            exclude_anycast_routed=beyond and self.config.exclude_anycast_routed,
            seed=self.config.seed,
        )
        if not beyond:
            selection.targets = {
                address: node
                for address, node in selection.targets.items()
                if self.catchment.get(node) == site
            }
        self._selections[key] = selection
        return selection

    def cached_selections(self) -> dict[str, TargetSelection]:
        """A copy of the per-⟨site, mode⟩ selection cache (to pre-seed
        another experiment over the same world)."""
        return dict(self._selections)

    # ------------------------------------------------------------------
    # Checkpoint baselines (one converged snapshot per technique)

    def baseline_for(self, technique: Technique) -> NetworkSnapshot:
        """The technique's converged base snapshot, computed once.

        Builds a fresh network, applies the technique's site-independent
        ``base_plan``, converges, and snapshots. Cached by
        ``technique.baseline_key`` -- on the 5x8 matrix this is what
        turns forty deploy+converge runs into five. The baseline seed is
        derived from the baseline key alone (crc32, like per-cell
        seeds), so a technique's snapshot is byte-identical wherever it
        is computed.
        """
        key = technique.baseline_key
        snapshot = self._baselines.get(key)
        if snapshot is not None:
            return snapshot
        config = self.config
        telemetry = telemetry_registry.current()
        base_seed = tagged_seed(config.seed, f"{key}/baseline")
        with telemetry.phase("baseline-converge", technique=technique.name):
            with self.topology.build_network(
                seed=base_seed, timing=config.timing, damping=config.damping
            ) as network:
                cause = network.new_cause("deploy-base", technique.name)
                with network.caused_by(cause):
                    apply_plan(
                        network,
                        technique.base_plan(self.deployment, SPECIFIC_PREFIX, SUPERPREFIX),
                    )
                network.converge()
                snapshot = snapshot_network(network)
        self._baselines[key] = snapshot
        return snapshot

    def cached_baselines(self) -> dict[str, NetworkSnapshot]:
        """A copy of the per-technique baseline cache."""
        return dict(self._baselines)

    # ------------------------------------------------------------------
    # One run

    def run_site(self, technique: Technique, site: str) -> SiteFailoverResult:
        """Fail ``site`` under ``technique`` and measure every target.

        With ``use_checkpoint`` the cell forks the technique's converged
        base snapshot (:meth:`baseline_for`), reseeds the forked RNG
        from the cell's crc32 tag, applies the per-site announcement
        delta, and converges only that delta -- the failure+probe window
        then runs exactly as on the legacy path. Forked cells are
        self-deterministic (byte-identical across repeats and worker
        counts) but numerically different from cold-started cells: the
        per-cell RNG no longer spends draws on baseline convergence.
        """
        config = self.config
        telemetry = telemetry_registry.current()
        # Each run gets a fresh network; drop any previous run's clock so
        # phase timestamps restart from this run's engine epoch.
        telemetry.bind_clock(None)
        tags = {"technique": technique.name, "site": site}
        run_tag = f"{technique.name}/{site}"
        run_seed = tagged_seed(config.seed, run_tag)
        # Cold and forked cells deploy the same plan value; on a restored
        # base only the per-site delta actually re-originates.
        snapshot = self.baseline_for(technique) if self.use_checkpoint else None
        phase = "fork-restore" if self.use_checkpoint else "deploy-converge"
        # The cell owns its network and rig: both are released on every
        # way out, so plain reference counting frees them with the cell.
        with ExitStack() as release:
            with telemetry.phase(phase, **tags):
                if snapshot is not None:
                    network = restore_network(snapshot)
                    # The fork draws from a fresh per-cell stream; the
                    # baseline's RNG position is shared by every cell of the
                    # technique and must not leak cell-to-cell correlations.
                    network.rng.seed(run_seed)
                else:
                    network = self.topology.build_network(
                        seed=run_seed, timing=config.timing, damping=config.damping
                    )
                release.enter_context(network)
                rig = RunRig(
                    network,
                    self.deployment,
                    technique,
                    site,
                    detection_delay=config.detection_delay,
                    workload=config.workload,
                    capacity=config.capacity,
                )
                release.enter_context(rig)

            with telemetry.phase("select-targets", **tags):
                selection = self.selection_for(site, mode=technique.selection_mode)
                # Step 3: pre-failure reachability -> controllable targets.
                controllable = {
                    address: node
                    for address, node in selection.targets.items()
                    if rig.live_site(node) == site
                }

            # Step 4: fail the site, probe the controllable targets. The
            # failed site is dead on the data plane: replies that stale FIBs
            # still steer there are lost, not captured.
            with telemetry.phase("fail-probe", **tags):
                event = rig.fail(site, silent=config.silent_failure)
                rig.prober.start(
                    controllable, interval=config.probe_interval, duration=config.probe_duration
                )
                rig.start_workload(config.probe_duration, config.seed, run_tag)
                network.run_for(config.probe_duration + config.drain_slack)

            with telemetry.phase("analyze", **tags):
                outcomes = outcomes_for_run(rig.prober.logs, site, event.failed_at)
            return SiteFailoverResult(
                technique=technique.name,
                site=site,
                withdrawal_time=event.failed_at,
                selection=selection,
                controllable=controllable,
                outcomes=outcomes,
                workload=rig.engine.account if rig.engine is not None else None,
            )

    def run_all_sites(
        self,
        technique: Technique,
        sites: list[str] | None = None,
        *,
        workers: int = 1,
        timeout_s: float | None = None,
        progress=None,
    ) -> list[SiteFailoverResult]:
        """Fig. 2's sweep: fail every site once under ``technique``.

        ``workers > 1`` shards the sites over a process pool (see
        :mod:`repro.parallel`); results are identical to the serial path
        and returned in site order. A failed/timed-out cell raises
        ``RuntimeError`` -- callers that need per-cell failure handling
        should use :func:`repro.parallel.sweep.run_sweep` directly.
        """
        sites = sites if sites is not None else self.deployment.site_names
        if workers <= 1:
            return [self.run_site(technique, site) for site in sites]
        # Local import: repro.parallel.sweep imports this module.
        from repro.parallel.sweep import SweepCell, run_sweep

        cells = [SweepCell(technique, site) for site in sites]
        report = run_sweep(
            self, cells, workers=workers, timeout_s=timeout_s, progress=progress
        )
        report.raise_on_failure()
        return report.site_results()


def pooled_outcomes(results: list[SiteFailoverResult]) -> list[TargetOutcome]:
    """Flatten per-site results into the ⟨failed site, target⟩ pool the
    paper's CDFs are drawn over."""
    pooled: list[TargetOutcome] = []
    for result in results:
        pooled.extend(result.outcomes)
    return pooled
