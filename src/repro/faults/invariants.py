"""Runtime invariant checking for fault drills.

After a network goes quiet (``BgpNetwork.converge``), three global
consistency properties must hold no matter what fault sequence ran:

* **forwarding-loop** -- for every known prefix, following each
  router's FIB hop-by-hop terminates (delivery or no-route); a cycle is
  a stable forwarding loop, the §3 failure mode transient convergence
  may cause but a quiet network never may;
* **advertised-sync** -- each session's ``advertised`` set matches what
  the peer's Adj-RIB-In actually holds from this router. The one
  legitimate asymmetry is an advertised route the peer's import
  policy keeps nothing of (AS-path loop rejection: an announcement
  carrying the peer's own ASN -- routine between CDN sites that share
  one ASN), which the checker recognises by asking the router's own
  export policy what the session carried and the shared import policy
  what the peer keeps of it;
* **rib-fib-coherence** -- every Loc-RIB best route is installed in the
  FIB (next hop matching ``learned_from``) and the FIB holds nothing
  the Loc-RIB does not -- i.e. all delayed RIB->FIB downloads landed
  and none resurrected a dead route.

Checks are only meaningful on an idle engine: in-flight updates and
pending MRAI flushes make both ends legitimately disagree mid-run.
``message_loss`` faults genuinely break ``advertised-sync`` until a
session reset restores coherence -- that is the point of the invariant.

Violations are returned *and* reported through telemetry (the
``invariants.violations`` counter and ``InvariantViolated`` trace
events) so traces of chaos drills carry their own verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.network import BgpNetwork
from repro.bgp.policy import imported
from repro.net.addr import IPv4Prefix
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import InvariantViolated

FORWARDING_LOOP = "forwarding-loop"
ADVERTISED_SYNC = "advertised-sync"
RIB_FIB_COHERENCE = "rib-fib-coherence"
SITE_CAPACITY = "site-capacity"


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant breach at one node."""

    invariant: str
    node: str
    detail: str

    def format(self) -> str:
        return f"{self.invariant} @ {self.node}: {self.detail}"


@dataclass(slots=True)
class InvariantReport:
    """All violations found by one :func:`check_invariants` pass."""

    violations: list[Violation]
    #: prefixes the checker examined (diagnostics)
    prefixes_checked: int = 0
    sessions_checked: int = 0


def known_prefixes(network: BgpNetwork) -> list[IPv4Prefix]:
    """Every prefix any router has selected or originates, sorted."""
    prefixes: set[IPv4Prefix] = set()
    for router in network.routers.values():
        prefixes.update(router.origins, router.loc_rib)
    return sorted(prefixes)


def check_invariants(
    network: BgpNetwork, prefixes: list[IPv4Prefix] | None = None
) -> InvariantReport:
    """Run all invariants against a quiet network.

    Call after :meth:`BgpNetwork.converge`; on a busy engine the
    transfer-state checks report transients as violations.
    """
    if prefixes is None:
        prefixes = known_prefixes(network)
    violations: list[Violation] = []
    violations.extend(_forwarding_loops(network, prefixes))
    sessions = _advertised_sync(network, violations)
    _rib_fib_coherence(network, violations)
    telemetry = telemetry_registry.current()
    if telemetry.enabled:
        telemetry.inc("invariants.checks")
        for violation in violations:
            telemetry.inc("invariants.violations")
            telemetry.emit(
                InvariantViolated(
                    t=network.now,
                    invariant=violation.invariant,
                    node=violation.node,
                    detail=violation.detail,
                )
            )
    return InvariantReport(
        violations=violations,
        prefixes_checked=len(prefixes),
        sessions_checked=sessions,
    )


# ----------------------------------------------------------------------
# site-capacity (post-convergence, workload-aware)


def check_site_capacity(
    deployment,
    profile,
    capacity_state,
    clients,
    resolve,
    regions=None,
) -> list[Violation]:
    """The "no site over capacity post-convergence" invariant.

    Separate from :func:`check_invariants` because it needs workload
    context the network alone does not carry: the workload profile (for
    the peak rate and client popularity weights), the deployment's
    capacity state, and a resolver mapping each client to the site its
    requests currently reach (None when they reach no live site).

    A site violates when the *expected peak* offered load on the current
    catchment -- each client's popularity share of ``profile.max_rate()``
    -- exceeds its effective capacity. Plain anycast under a regional
    surge fails this check (its catchment never moves); a converged
    load shed passes it. Violations are reported through telemetry
    exactly like the routing invariants.
    """
    from repro.workload.capacity import expected_site_load

    loads = expected_site_load(profile, clients, resolve, regions)
    violations: list[Violation] = []
    for site in sorted(loads):
        load = loads[site]
        limit = capacity_state.effective_rps(site)
        if load > limit:
            violations.append(
                Violation(
                    SITE_CAPACITY,
                    deployment.site_node(site),
                    f"expected peak load {load:.1f} rps exceeds "
                    f"capacity {limit:.1f} rps",
                )
            )
    telemetry = telemetry_registry.current()
    if telemetry.enabled and violations:
        for violation in violations:
            telemetry.inc("invariants.violations")
            telemetry.emit(
                InvariantViolated(
                    t=telemetry.now(),
                    invariant=violation.invariant,
                    node=violation.node,
                    detail=violation.detail,
                )
            )
    return violations


# ----------------------------------------------------------------------
# forwarding-loop


def _forwarding_loops(
    network: BgpNetwork, prefixes: list[IPv4Prefix]
) -> list[Violation]:
    violations: list[Violation] = []
    for prefix in prefixes:
        host = 1 if prefix.num_addresses() > 1 else 0
        address = prefix.address(host)
        # verdict memo: True = this node's walk terminates, False = it
        # reaches a cycle; memoised so the whole pass is O(nodes).
        verdicts: dict[str, bool] = {}
        reported: set[frozenset[str]] = set()
        for start in sorted(network.routers):
            if start in verdicts:
                continue
            walk: list[str] = []
            position: dict[str, int] = {}
            node = start
            verdict = True
            while True:
                if node in verdicts:
                    verdict = verdicts[node]
                    break
                if node in position:
                    cycle = walk[position[node] :]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        violations.append(
                            Violation(
                                FORWARDING_LOOP,
                                node,
                                f"prefix {prefix}: {' -> '.join(cycle + [node])}",
                            )
                        )
                    verdict = False
                    break
                position[node] = len(walk)
                walk.append(node)
                next_hop = network.next_hop(node, address)
                if next_hop is None or next_hop == node:
                    break
                node = next_hop
            for visited in walk:
                verdicts[visited] = verdict
    return violations


# ----------------------------------------------------------------------
# advertised-sync


def _advertised_sync(network: BgpNetwork, violations: list[Violation]) -> int:
    checked = 0
    for node_id in sorted(network.routers):
        router = network.routers[node_id]
        for remote in sorted(router.sessions):
            session = router.sessions[remote]
            if session.closed:
                continue
            checked += 1
            peer = network.routers[remote]
            peer_has = {
                prefix for prefix, heard in peer.adj_rib_in.items() if node_id in heard
            }
            for prefix in sorted(peer_has - session.advertised):
                violations.append(
                    Violation(
                        ADVERTISED_SYNC,
                        node_id,
                        f"peer {remote} holds {prefix} from us but the session "
                        "never advertised it",
                    )
                )
            for prefix in sorted(session.advertised - peer_has):
                # What the session last carried, by the router's own export
                # policy -- and the peer's import policy kept nothing of it?
                offer = router.offer(session, prefix, router.loc_rib.get(prefix))
                import_over = session.relationship.inverse()
                if offer is not None and imported(offer, peer.asn, import_over) is None:
                    continue  # e.g. rejected as an AS-path loop
                violations.append(
                    Violation(
                        ADVERTISED_SYNC,
                        node_id,
                        f"session to {remote} advertised {prefix} but the peer's "
                        "Adj-RIB-In does not hold it",
                    )
                )
    return checked


# ----------------------------------------------------------------------
# rib-fib-coherence


def _rib_fib_coherence(network: BgpNetwork, violations: list[Violation]) -> None:
    for node_id in sorted(network.routers):
        router = network.routers[node_id]
        loc = router.loc_rib
        for prefix in sorted(loc):
            best = loc[prefix]
            expected = best.learned_from or node_id
            installed = router.fib.get(prefix)
            if installed != expected:
                violations.append(
                    Violation(
                        RIB_FIB_COHERENCE,
                        node_id,
                        f"{prefix}: Loc-RIB selects via {expected!r} but FIB "
                        f"holds {installed!r}",
                    )
                )
        for prefix, next_hop in sorted(router.fib.items()):
            if prefix not in loc:
                violations.append(
                    Violation(
                        RIB_FIB_COHERENCE,
                        node_id,
                        f"{prefix}: FIB holds {next_hop!r} with no Loc-RIB route",
                    )
                )
