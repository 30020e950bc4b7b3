"""The CDN's monitoring and control loop.

§4: reactive-anycast "requires a real-time monitoring system to detect
site outages, similar to ones that CDNs have deployed" (Odin, NEL). The
controller models that loop with a configurable detection delay: when a
site fails, the site's own withdrawals go out immediately (routers do
that on their own), the monitoring system notices after
``detection_delay`` seconds, and only then does the technique's reactive
behaviour -- new announcements, DNS updates -- run.

The controller holds no announcement logic of its own: every reaction
recomputes the technique's target plan for the current ⟨deployed site,
down set, overloaded set⟩ and moves the network onto it -- announce the
target, then withdraw whatever is not in it. A down site is never in a
target, so no reaction can resurrect one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bgp.network import BgpNetwork
from repro.core.plan import Origination, Technique, apply_plan
from repro.dns.authoritative import AuthoritativeServer, StaticMapping
from repro.net.addr import IPv4Prefix
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import DnsRecordChanged, SiteFailed
from repro.topology.testbed import CdnDeployment
from repro.workload.capacity import CapacityState


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
        dns: optional authoritative server to update on failure (clients
            get remapped to a surviving site even for BGP techniques --
            real CDNs do both).
    """

    network: BgpNetwork
    deployment: CdnDeployment
    technique: Technique
    prefix: IPv4Prefix
    superprefix: IPv4Prefix
    detection_delay: float = 2.0
    #: make-before-break on recovery: reactive/emergency announcements
    #: are rolled back only this many seconds after the recovered site
    #: re-announces, so its routes propagate before the backups vanish
    recovery_grace: float = 0.0
    dns: AuthoritativeServer | None = None
    #: per-run capacity view; set when a capacity profile is attached so
    #: overload reactions can record DNS divert fractions
    capacity_state: CapacityState | None = None
    failures: list[FailureEvent] = field(default_factory=list)
    #: the specific site of the last deploy(), for recovery
    deployed_site: str | None = None
    #: sites currently down; announcements are never (re)made from these
    down_sites: set = field(default_factory=set)
    #: sites currently shed for overload (latched until cleared)
    overloaded_sites: set = field(default_factory=set)
    #: sites drained for maintenance -> the prepend depth overlaid on
    #: whatever the technique has them announce
    drained_sites: dict = field(default_factory=dict)
    #: DNS addresses of failed sites, kept for restoration on recovery
    _removed_dns: dict = field(default_factory=dict)

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
        depth = {self.deployment.site_node(s): p for s, p in self.drained_sites.items()}
        return tuple(replace(o, prepend=depth.get(o.node, o.prepend)) for o in plan)

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
        if self.dns is not None:
            # Restore the DNS-side record and, if this was the intended
            # site, the mapping toward it.
            address = self._removed_dns.pop(site, None)
            if address is not None:
                self.dns.set_site_address(site, address)
                telemetry = telemetry_registry.current()
                if telemetry.enabled:
                    telemetry.emit(
                        DnsRecordChanged(
                            t=self.network.now,
                            site=site,
                            action="restore",
                            address=str(address),
                            cause=cause,
                        )
                    )
            policy = self.dns.policy
            if site == self.deployed_site and isinstance(policy, StaticMapping):
                policy.default_site = site

    def drain_site(self, site: str, prepend: int = 5) -> None:
        """Gracefully drain a site for maintenance: re-announce its
        prefixes with heavy prepending so traffic shifts to other sites
        *before* the site goes down -- no packets are ever blackholed.

        This is the make-before-break counterpart of :meth:`fail_site`:
        the anycast-agility playbook applied to one site (§4's load-
        distribution control goal).
        """
        if site not in self.deployment.sites:
            raise KeyError(f"unknown site {site!r}")
        self.drained_sites[site] = prepend
        self._reconcile(self.network.root_cause("site-drain", site, f"prepend={prepend}"))

    def undrain_site(self, site: str) -> None:
        """Restore a drained site's normal announcements."""
        if site not in self.deployment.sites:
            raise KeyError(f"unknown site {site!r}")
        if self.deployed_site is None:
            raise RuntimeError("undrain_site before deploy")
        self.drained_sites.pop(site, None)
        self._reconcile(self.network.root_cause("site-undrain", site))

    def site_overloaded(self, site: str) -> None:
        """The workload engine's overload signal for one site.

        Mirrors :meth:`fail_site`'s control loop: the monitoring system
        notices the overload after ``detection_delay`` seconds, and only
        then does the technique's shedding reaction run. The site is
        latched as overloaded until :meth:`site_overload_cleared`.
        """
        if site not in self.deployment.sites:
            raise KeyError(f"unknown site {site!r}")
        if site in self.overloaded_sites:
            return
        self.overloaded_sites.add(site)
        cause = self.network.root_cause("site-overload", site, self.technique.name)
        telemetry = telemetry_registry.current()
        if telemetry.enabled:
            telemetry.inc("controller.site_overloads")
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

        The site withdraws everything immediately; the technique's (and
        DNS's) reaction is scheduled after the detection delay. Returns
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
            self._react(site, cause)

        self.network.engine.schedule(self.detection_delay, detect)
        return event

    def _react(self, site: str, cause: int = 0) -> None:
        """The technique's (and DNS's) delayed reaction to a failure.

        Runs from an engine callback, after the originating call stack
        has unwound -- ``cause`` re-enters the failure's provenance scope
        so the reactive announcements join the same chain.
        """
        self._reconcile(cause)
        if self.dns is not None:
            self._update_dns(site, cause)

    def _update_dns(self, failed_site: str, cause: int = 0) -> None:
        """Repoint DNS away from the failed site (unicast's only lever)."""
        address = self.dns.site_addresses.get(failed_site)
        if address is not None:
            self._removed_dns[failed_site] = address
        self.dns.remove_site(failed_site)
        telemetry = telemetry_registry.current()
        if telemetry.enabled:
            telemetry.emit(
                DnsRecordChanged(
                    t=self.network.now,
                    site=failed_site,
                    action="remove",
                    address=str(address) if address is not None else "",
                    cause=cause,
                )
            )
        survivors = [s for s in self.deployment.site_names if s != failed_site]
        if not survivors:
            return
        policy = self.dns.policy
        if isinstance(policy, StaticMapping):
            if policy.default_site == failed_site:
                policy.default_site = survivors[0]
            for client, site in list(policy.overrides.items()):
                if site == failed_site:
                    policy.overrides[client] = survivors[0]
