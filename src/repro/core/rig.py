"""The run rig: the one assembly of the paper's measurement machine.

§5.2's protocol (deploy a technique's announcements, converge, fail a
site, watch where traffic lands), §4's rotation drill and the scenario
timeline all run on what :class:`RunRig` builds; what each runner adds
is in ``docs/architecture.md`` ("The run rig").
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable

from repro.bgp.network import BgpNetwork
from repro.core.controller import CdnController, FailureEvent
from repro.core.plan import Technique
from repro.dataplane.forwarding import ForwardingPlane, delivery_verdict
from repro.dataplane.ping import Prober
from repro.faults.injector import FaultInjector
from repro.faults.invariants import Violation, check_site_capacity
from repro.faults.plan import Action, FaultPlan
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.topology.testbed import (
    PROBE_SOURCE,
    SPECIFIC_PREFIX,
    SUPERPREFIX,
    CdnDeployment,
)
from repro.workload.capacity import CapacityProfile, CapacityState
from repro.workload.engine import WorkloadEngine
from repro.workload.profile import WorkloadProfile


def tagged_seed(seed: int, tag: str) -> int:
    """A per-purpose seed (crc32: str hashes are salted per process)."""
    return (seed * 1000003) ^ zlib.crc32(tag.encode())


class RunRig:
    """Everything one ⟨technique, site⟩ run needs, deployed and converged.

    Construction deploys ``technique`` with ``site`` as its specific
    site, runs the event queue dry, then arms the timeline -- ``fault_plan``
    and the scripted ``events``; their times count from that instant.
    ``dst`` is the address in ``prefix`` that draws traffic: the prober's
    source, the workload's destination.
    """

    def __init__(
        self,
        network: BgpNetwork,
        deployment: CdnDeployment,
        technique: Technique,
        site: str,
        *,
        prefix: IPv4Prefix = SPECIFIC_PREFIX,
        dst: IPv4Address = PROBE_SOURCE,
        detection_delay: float = 2.0,
        recovery_grace: float = 0.0,
        workload: WorkloadProfile | None = None,
        capacity: CapacityProfile | None = None,
        fault_plan: FaultPlan | None = None,
        events: Iterable[Action] = (),
    ) -> None:
        # §5.2: probes leave from a site other than the one under test.
        vantage = next((s for s in deployment.site_names if s != site), None)
        if vantage is None:
            raise ValueError(
                f"deployment with sites {deployment.site_names} has no second "
                f"site besides {site!r} to probe from and fail over to"
            )
        self.network = network
        self.deployment = deployment
        self.technique = technique
        self.site = site
        self.dst = dst
        self.workload = workload
        #: capacity binds iff load is offered: without a workload the
        #: state would sit unread all run (and brownout faults skip)
        self.capacity_state: CapacityState | None = None
        if capacity is not None and workload is not None:
            self.capacity_state = CapacityState(capacity, deployment.site_names)
        self.controller = CdnController(
            network=network,
            deployment=deployment,
            technique=technique,
            prefix=prefix,
            superprefix=SUPERPREFIX,
            detection_delay=detection_delay,
            recovery_grace=recovery_grace,
            capacity_state=self.capacity_state,
        )
        self.controller.deploy(site)
        network.converge()
        # An empty timeline arms nothing, so every run carries an injector.
        self.injector = FaultInjector(
            network, fault_plan or FaultPlan(), rig=self, events=events
        )
        self.injector.arm()
        self.plane = ForwardingPlane(network, deployment.topology)
        self.prober = Prober(self.plane, deployment, dst, vantage)
        #: failed sites (traffic stale FIBs still steer there is lost):
        #: one set, so probes and requests see a failure at one instant
        self.dead_sites = self.prober.dead_sites
        self.engine: WorkloadEngine | None = None  # set by start_workload

    def close(self) -> None:
        """Release the rig at the end of its run (idempotent): break the
        rig <-> injector ring, the twin of :meth:`BgpNetwork.close`
        (which the network's owner calls; the rig only borrows it)."""
        self.injector.rig = None

    def __enter__(self) -> "RunRig":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def fail(self, site: str, *, silent: bool = False) -> FailureEvent:
        """``site`` goes down on both planes: the controller withdraws
        (at detection when ``silent``) and the data plane stops serving."""
        event = self.controller.fail_site(site, silent=silent)
        self.dead_sites.add(site)
        return event

    def recover(self, site: str) -> None:
        """``site`` is back on both planes."""
        self.controller.recover_site(site)
        self.dead_sites.discard(site)

    def end_brownout(self, site: str) -> None:
        """``site``'s capacity is back: release the shed its overload
        latched on every layer that holds a piece of it."""
        self.capacity_state.restore(site)
        self.controller.site_overload_cleared(site)
        if self.engine is not None:
            self.engine.clear_overload(site)

    def start_workload(
        self,
        duration_s: float,
        seed: int,
        tag: str,
        *,
        site: str | None = None,
        clients: list[str] | None = None,
    ) -> None:
        """Stream the run's workload from now (a no-op without one).

        ``tag`` seeds the stream; ``site`` labels the account (default:
        the deployed site). The engine only reads FIB state and has its
        own RNG, so it never perturbs the run.
        """
        if self.workload is None:
            return
        bound = self.capacity_state is not None
        self.engine = WorkloadEngine(
            self.plane,
            self.deployment,
            self.workload,
            seed=tagged_seed(seed, f"{tag}/workload"),
            clients=clients,
            technique=self.technique.name,
            site=site if site is not None else self.site,
            dead_sites=self.dead_sites,
            dst=self.dst,
            capacity=self.capacity_state,
            on_overload=self.controller.site_overloaded if bound else None,
        )
        self.engine.start(duration_s)

    def live_site(self, client: str) -> str | None:
        """The live CDN site the current FIBs deliver ``client`` to
        (None when dropped, off-net, or landing at a dead site)."""
        result = self.plane.snapshot_path(client, self.dst)
        site, reason = delivery_verdict(result, self.deployment, self.dead_sites)
        return site if reason is None else None

    def capacity_violations(self) -> list[Violation]:
        """The "no site over capacity" invariant on the current (caller-
        settled) catchment: would the workload's *peak* rate push a live
        site past its effective capacity? Plain anycast under a regional
        surge fails this; a converged shed passes it."""
        if self.capacity_state is None or self.engine is None:
            return []
        return check_site_capacity(
            self.deployment,
            self.workload,
            self.capacity_state,
            self.engine.clients,
            self.live_site,
            regions=self.engine.regions,
        )
