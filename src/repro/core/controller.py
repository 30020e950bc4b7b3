"""The CDN's monitoring and control loop.

§4: reactive-anycast "requires a real-time monitoring system to detect
site outages, similar to ones that CDNs have deployed" (Odin, NEL). The
controller models that loop with a configurable detection delay: when a
site fails, the site's own withdrawals go out immediately (routers do
that on their own), the monitoring system notices after
``detection_delay`` seconds, and only then does the technique's reactive
behaviour -- its new announcements and withdrawals -- run.

The controller holds no announcement logic of its own: every reaction
recomputes the technique's target plan for the current ⟨deployed site,
down set, overloaded set⟩ and moves the network onto it -- announce the
target, then withdraw whatever is not in it. A down site is never in a
target, so no reaction can resurrect one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.bgp.network import BgpNetwork
from repro.core.plan import Origination, Technique, apply_plan
from repro.net.addr import IPv4Prefix
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import SiteFailed, SiteOverloaded
from repro.topology.testbed import CdnDeployment
from repro.workload.capacity import CapacityState

#: seconds from a failure to the control system reacting (§5.2's
#: monitoring delay); every run's default
DETECTION_DELAY_S = 2.0

#: the prepend depth a maintenance drain overlays on a site's announcements
DRAIN_PREPEND = 5


@dataclass(frozen=True, slots=True)
class FailureEvent:
    """Record of one site failure the controller handled.

    ``silent`` marks failures where the site could not withdraw its own
    announcements (crashed without BGP teardown): the withdrawal then
    happens at ``detected_at``, executed by the control system, instead
    of at ``failed_at``.
    """

    site: str
    failed_at: float
    detected_at: float
    withdrawn_prefixes: tuple[IPv4Prefix, ...]
    silent: bool = False


@dataclass(slots=True)
class CdnController:
    """Orchestrates announcements and failure reactions for one CDN.

    Attributes:
        detection_delay: seconds from failure to the control system
            reacting (monitoring + decision + configuration push).
    """

    network: BgpNetwork
    deployment: CdnDeployment
    technique: Technique
    prefix: IPv4Prefix
    superprefix: IPv4Prefix
    detection_delay: float
    #: make-before-break on recovery: reactive/emergency announcements
    #: are rolled back only this many seconds after the recovered site
    #: re-announces, so its routes propagate before the backups vanish
    recovery_grace: float = 0.0
    #: per-run capacity view; set when a capacity profile is attached so
    #: overload reactions can record DNS divert fractions
    capacity_state: CapacityState | None = None
    failures: list[FailureEvent] = field(default_factory=list, init=False)
    #: the specific site of the last deploy(), for recovery
    deployed_site: str | None = field(default=None, init=False)
    #: sites currently down; announcements are never (re)made from these.
    #: The run's one down set (the prober and the engine read this object)
    down_sites: set = field(default_factory=set, init=False)
    #: sites currently shed for overload: the run's one overload latch
    overloaded_sites: set = field(default_factory=set, init=False)
    #: sites drained for maintenance: each announces whatever the
    #: technique has it announce, prepended :data:`DRAIN_PREPEND` times
    drained_sites: set = field(default_factory=set, init=False)

    def target_plan(self) -> tuple[Origination, ...]:
        """What the technique wants announced in the current state."""
        if self.deployed_site is None:
            raise RuntimeError("no target plan before deploy")
        plan = self.technique.originations(
            self.deployment,
            self.deployed_site,
            self.prefix,
            self.superprefix,
            down=self.down_sites,
            overloaded=self.overloaded_sites,
        )
        if not self.drained_sites:
            return plan
        drained = {self.deployment.site_node(site) for site in self.drained_sites}
        return tuple(
            replace(o, prepend=DRAIN_PREPEND) if o.node in drained else o for o in plan
        )

    def _reconcile(self, cause: int, grace: float = 0.0) -> None:
        """Move the network onto the target plan: announce it now, then
        (``grace`` seconds later) withdraw every site origination that
        is not in the plan current *at that time*."""
        if self.deployed_site is None:
            return  # nothing deployed, nothing to steer

        def prune() -> None:
            wanted = {(o.node, o.prefix) for o in self.target_plan()}
            with self.network.caused_by(cause):
                for site in self.deployment.site_names:
                    node = self.deployment.site_node(site)
                    for prefix in self.network.routers[node].originated_prefixes():
                        if (node, prefix) not in wanted:
                            self.network.withdraw(node, prefix)

        with self.network.caused_by(cause):
            apply_plan(self.network, self.target_plan())
        if grace > 0:
            self.network.engine.schedule(grace, prune)
        else:
            prune()

    def deploy(self, specific_site: str) -> None:
        """Make the technique's normal-operation announcements.

        On a network restored from the technique's checkpoint base this
        re-originates only the per-site delta (see :func:`apply_plan`).
        """
        if specific_site not in self.deployment.sites:
            raise KeyError(f"unknown site {specific_site!r}")
        self.deployed_site = specific_site
        self._reconcile(self.network.root_cause("deploy", specific_site, self.technique.name))

    def recover_site(self, site: str) -> None:
        """Bring a failed site back: re-make the normal announcements and
        roll back any reactive reconfiguration.

        The paper's experiments fail sites permanently; recovery enables
        the flapping-site and rolling-outage scenarios (and, with route
        flap damping enabled, shows why a recovering site may stay dark
        at some routers for a while).
        """
        if site not in self.deployment.sites:
            raise KeyError(f"unknown site {site!r}")
        if self.deployed_site is None:
            raise RuntimeError("recover_site before deploy")
        self.down_sites.discard(site)
        cause = self.network.root_cause("site-recover", site)
        # Make-before-break: with a grace, the recovered site's routes
        # propagate before the emergency announcements disappear.
        self._reconcile(cause, grace=self.recovery_grace)

    def drain_site(self, site: str) -> None:
        """Gracefully drain a site for maintenance: re-announce its
        prefixes prepended :data:`DRAIN_PREPEND` times so traffic shifts to
        other sites *before* the site goes down -- no packets are ever blackholed.

        This is the make-before-break counterpart of :meth:`fail_site`:
        the anycast-agility playbook applied to one site (§4's load-
        distribution control goal).
        """
        if site not in self.deployment.sites:
            raise KeyError(f"unknown site {site!r}")
        self.drained_sites.add(site)
        self._reconcile(self.network.root_cause("site-drain", site, f"prepend={DRAIN_PREPEND}"))

    def undrain_site(self, site: str) -> None:
        """Restore a drained site's normal announcements."""
        if site not in self.deployment.sites:
            raise KeyError(f"unknown site {site!r}")
        if self.deployed_site is None:
            raise RuntimeError("undrain_site before deploy")
        self.drained_sites.discard(site)
        self._reconcile(self.network.root_cause("site-undrain", site))

    def site_overloaded(self, site: str, offered_rps: float) -> None:
        """The workload engine's overload report for one site: a tick lost
        requests there at ``offered_rps``.

        Mirrors :meth:`fail_site`'s control loop: the monitoring system
        notices the overload after ``detection_delay`` seconds, and only
        then does the technique's shedding reaction run. The first report
        latches the site (and emits :class:`SiteOverloaded`); later ones
        are no-ops until :meth:`site_overload_cleared` -- load dropping
        never unlatches, which is what makes the shed converge instead
        of oscillating.
        """
        if site not in self.deployment.sites:
            raise KeyError(f"unknown site {site!r}")
        if site in self.overloaded_sites:
            return
        self.overloaded_sites.add(site)
        # Telemetry first: the overload causally precedes the shed.
        telemetry = telemetry_registry.current()
        if telemetry.enabled:
            capacity = self.capacity_state
            telemetry.inc("controller.site_overloads")
            telemetry.emit(
                SiteOverloaded(
                    t=self.network.now,
                    site=site,
                    offered_rps=round(offered_rps, 3),
                    capacity_rps=(
                        capacity.effective_rps(site) if capacity is not None else math.inf
                    ),
                )
            )
        cause = self.network.root_cause("site-overload", site, self.technique.name)
        self.network.engine.schedule(
            self.detection_delay, lambda: self._react_overload(site, cause)
        )

    def _react_overload(self, site: str, cause: int = 0) -> None:
        """The technique's delayed shedding reaction to an overload."""
        if site not in self.overloaded_sites or site in self.down_sites:
            return
        self._reconcile(cause)
        fraction = self.technique.shed_dns_fraction
        if self.capacity_state is not None and fraction > 0:
            self.capacity_state.dns_divert[site] = fraction

    def site_overload_cleared(self, site: str) -> None:
        """Undo a shed once the site's capacity is back (un-brownout)."""
        if site not in self.overloaded_sites:
            return
        self.overloaded_sites.discard(site)
        self._reconcile(self.network.root_cause("site-overload-cleared", site))
        if self.capacity_state is not None:
            self.capacity_state.dns_divert.pop(site, None)

    def fail_site(self, site: str, *, silent: bool = False) -> FailureEvent:
        """Emulate a site failure right now.

        The site withdraws everything immediately; the technique's
        reaction is scheduled after the detection delay. Returns
        the failure record (its ``detected_at`` is in the future).

        ``silent``: the site stops serving but its BGP announcements
        stay up until the monitoring system notices. The paper's model
        assumes the failing site withdraws its own prefixes (§4); silent
        failures are the harder operational case where even the
        withdrawal depends on detection -- PEERING-style deployments can
        execute it remotely at the mux. Every technique pays the
        detection delay before its failover clock even starts.
        """
        if site not in self.deployment.sites:
            raise KeyError(f"unknown site {site!r}")
        node = self.deployment.site_node(site)
        self.down_sites.add(site)
        cause = self.network.root_cause(
            "site-fail-silent" if silent else "site-fail", site
        )
        # Telemetry first: the failure causally precedes the withdrawals
        # it triggers, and the trace preserves emission order.
        telemetry = telemetry_registry.current()
        if telemetry.enabled:
            telemetry.inc("controller.site_failures")
            telemetry.emit(
                SiteFailed(t=self.network.now, site=site, silent=silent, cause=cause)
            )
        if silent:
            withdrawn = tuple(self.network.routers[node].originated_prefixes())
        else:
            with self.network.caused_by(cause):
                withdrawn = tuple(self.network.withdraw_all(node))
        event = FailureEvent(
            site=site,
            failed_at=self.network.now,
            detected_at=self.network.now + self.detection_delay,
            withdrawn_prefixes=withdrawn,
            silent=silent,
        )
        self.failures.append(event)

        def detect() -> None:
            if silent:
                with self.network.caused_by(cause):
                    self.network.withdraw_all(node)
            # Re-enter the failure's provenance scope from the engine
            # callback so the reactive announcements join its chain.
            self._reconcile(cause)

        self.network.engine.schedule(self.detection_delay, detect)
        return event
