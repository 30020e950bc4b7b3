"""The timeline's scheduler: fires each action onto one network.

The injector is a thin, deterministic translator: every
:class:`~repro.faults.plan.Action` of the run's timeline becomes one
callback on the network's existing :class:`EventEngine`, so faults and
scripted site events interleave with BGP message delivery, MRAI expiry,
and probing on the single simulated clock. Determinism rules:

* the injector's own RNG (plan seed) is consulted only inside action
  callbacks, whose firing order the engine fixes -- the *network* RNG
  is never touched, so arming an empty timeline perturbs nothing;
* an action whose target is in an incompatible state (flapping a link
  something else already tore down, resetting a session that is gone)
  is *skipped*, counted, and traced -- never raised -- because fault
  drills intentionally stack failures.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable

from repro.bgp.network import BgpNetwork
from repro.faults.plan import Action, FaultPlan, link_ends, timeline
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import FaultInjected, FaultSkipped


class FaultInjector:
    """Arms one timeline (a fault plan's edges, then the scripted
    ``events``) against one network.

    ``rig`` is the :class:`~repro.core.rig.RunRig` whose controller site
    actions call; without one (a bare network) only link and node
    actions can fire, and brownouts skip.

    Counters: :attr:`injected` / :attr:`skipped` mirror the
    ``faults.injected`` / ``faults.skipped`` telemetry counters for
    callers without a telemetry backend installed.
    """

    def __init__(
        self,
        network: BgpNetwork,
        plan: FaultPlan,
        rig=None,
        events: Iterable[Action] = (),
    ) -> None:
        self.network = network
        self.rig = rig
        #: capacity state brownouts act on; None = no capacity model
        #: bound in this run, so brownouts skip
        self.capacity = rig.capacity_state if rig is not None else None
        self.timeline = timeline(plan, events)
        self.rng = random.Random(plan.seed)
        self.injected = 0
        self.skipped = 0
        self.armed = False
        #: node -> neighbors a partial-site-down took away from it
        self._partial: dict[str, list[str]] = {}
        self._telemetry = telemetry_registry.current()

    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every action, relative to the current simulated time."""
        if self.armed:
            raise RuntimeError("fault plan already armed")
        self.armed = True
        for entry in self.timeline:
            self.network.engine.schedule(entry.at, lambda e=entry: self._fire(e))

    def _fire(self, entry: Action) -> None:
        """Apply ``entry``'s effect; an effect that cannot apply returns
        why, and is counted and traced as skipped."""
        reason = _EFFECTS[entry.action](self, entry)
        if isinstance(reason, str):
            self.skipped += 1
            if self._telemetry.enabled:
                self._telemetry.inc("faults.skipped")
                self._telemetry.emit(
                    FaultSkipped(
                        t=self.network.now, fault=entry.action,
                        target=entry.target, reason=reason,
                    )
                )

    def _fired(self, entry: Action, detail: str = "", cause: int = 0) -> None:
        self.injected += 1
        if self._telemetry.enabled:
            self._telemetry.inc("faults.injected")
            self._telemetry.emit(
                FaultInjected(
                    t=self.network.now,
                    fault=entry.action,
                    target=entry.target,
                    detail=detail,
                    cause=cause,
                )
            )

    def _cause(self, entry: Action) -> int:
        """A fresh root cause for ``entry`` (starts drop their suffix)."""
        name = entry.action.removesuffix("-start")
        return self.network.new_cause(f"fault:{name}", entry.target)

    # ------------------------------------------------------------------

    def _link(self, entry: Action) -> str | None:
        ready, reason, mutate = _LINK_EFFECTS[entry.action]
        a, b = link_ends(entry.target)
        if not ready(self.network, a, b):
            return reason
        # The fault is the root action: allocate its cause before the
        # mutation so the network's own provenance hooks inherit it and
        # all resulting churn lands in one chain.
        cause = self._cause(entry)
        with self.network.caused_by(cause):
            mutate(self.network, a, b)
        self._fired(entry, cause=cause)

    def _message_loss(self, entry: Action) -> None:
        a, b = link_ends(entry.target)
        odds = entry.params  # empty on the -end edge: back to lossless
        self.network.set_message_loss(a, b, **odds)
        detail = f"loss={odds['loss_prob']} dup={odds['dup_prob']}" if odds else ""
        self._fired(entry, detail, self._cause(entry))

    def _fib_delay_start(self, entry: Action) -> str | None:
        router = self.network.routers.get(entry.target)
        if router is None:
            return "unknown node"
        # Wrap the router's FIB-delay sampler. The original sampler (if
        # any) still runs, so its RNG draw count -- and therefore every
        # later draw in the run -- is unchanged.
        original = router.fib_delay_source
        engine = self.network.engine
        # A wrapped sampler is no state a checkpoint rewind reloads.
        self.network.reshaped = True
        extra = entry.params["extra_delay"]

        def delayed():
            if original is None:
                return engine, extra
            sampled_engine, delay = original()
            return sampled_engine, delay + extra

        delayed._fault_original = original  # type: ignore[attr-defined]
        router.fib_delay_source = delayed
        self._fired(entry, f"extra={extra}", self._cause(entry))

    def _fib_delay_end(self, entry: Action) -> str | None:
        router = self.network.routers.get(entry.target)
        source = router.fib_delay_source if router is not None else None
        if not hasattr(source, "_fault_original"):
            return "no delay window active"
        router.fib_delay_source = source._fault_original
        self._fired(entry, cause=self._cause(entry))

    def _brownout_start(self, entry: Action) -> str | None:
        capacity, site = self.capacity, entry.target
        if capacity is None:
            return "no capacity model armed"
        if site not in capacity.sites:
            return "unknown site"
        if capacity.browned_out(site):
            return "already browned out"
        factor = entry.params.get("factor", 0.5)
        capacity.scale(site, factor)
        self._fired(entry, f"factor={factor}", self._cause(entry))

    def _brownout_end(self, entry: Action) -> str | None:
        if self.capacity is None or not self.capacity.browned_out(entry.target):
            return "no brownout active"
        self.capacity.restore(entry.target)
        # The un-shed the controller answers with belongs to this chain.
        cause = self._cause(entry)
        with self.network.caused_by(cause):
            self.rig.controller.site_overload_cleared(entry.target)
        self._fired(entry, cause=cause)

    def _partial_down(self, entry: Action) -> str | None:
        # The neighbor subset is chosen at fire time (over the sorted,
        # then-current adjacency) so earlier faults are accounted for.
        node = entry.target
        neighbors = sorted(self.network.adjacency.get(node, {}))
        if not neighbors:
            return "node has no live links"
        fraction = entry.params["fraction"]
        count = max(1, min(len(neighbors) - 1, math.ceil(fraction * len(neighbors))))
        if len(neighbors) == 1:
            count = 1  # a single-homed node's "partial" failure is total
        picked = sorted(self.rng.sample(neighbors, count))
        cause = self._cause(entry)
        with self.network.caused_by(cause):
            for neighbor in picked:
                self.network.fail_link(node, neighbor)
        self._partial.setdefault(node, []).extend(picked)
        self._fired(entry, f"links={','.join(picked)}", cause)

    def _partial_up(self, entry: Action) -> str | None:
        node = entry.target
        failed = self._partial.pop(node, None)
        if not failed:
            return "nothing was failed"
        restored = []
        cause = self._cause(entry)
        with self.network.caused_by(cause):
            for neighbor in failed:
                if self.network.is_link_failed(node, neighbor):
                    self.network.restore_link(node, neighbor)
                    restored.append(neighbor)
        self._fired(entry, f"links={','.join(restored)}", cause)


#: link action -> (precondition, why it skips otherwise, mutation)
_LINK_EFFECTS = {
    "link-down": (BgpNetwork.has_link, "link not up", BgpNetwork.fail_link),
    "link-up": (
        BgpNetwork.is_link_failed, "link not in failed state", BgpNetwork.restore_link,
    ),
    "session-reset": (BgpNetwork.has_link, "link not up", BgpNetwork.reset_session),
}

#: action -> effect(injector, entry): the one place an action becomes a
#: change to the run. Site actions trace themselves (the controller's
#: own events), so they are neither counted nor emitted as faults.
_EFFECTS = {
    **dict.fromkeys(_LINK_EFFECTS, FaultInjector._link),
    "message-loss-start": FaultInjector._message_loss,
    "message-loss-end": FaultInjector._message_loss,
    "fib-delay-start": FaultInjector._fib_delay_start,
    "fib-delay-end": FaultInjector._fib_delay_end,
    "partial-site-down": FaultInjector._partial_down,
    "partial-site-up": FaultInjector._partial_up,
    "brownout-start": FaultInjector._brownout_start,
    "brownout-end": FaultInjector._brownout_end,
    "fail": lambda self, entry: self.rig.controller.fail_site(entry.target),
    "fail-silent": lambda self, entry: self.rig.controller.fail_site(
        entry.target, silent=True
    ),
    "recover": lambda self, entry: self.rig.controller.recover_site(entry.target),
    "drain": lambda self, entry: self.rig.controller.drain_site(entry.target),
    "undrain": lambda self, entry: self.rig.controller.undrain_site(entry.target),
}
