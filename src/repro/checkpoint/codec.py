"""Snapshot/restore codec for a quiescent :class:`BgpNetwork`.

The sweep's hot path deploys a technique, converges the network, then
fails one site -- and the deploy+converge part is identical for every
cell of a technique's row. :func:`snapshot_network` captures a converged
network as plain picklable data; :func:`restore_network` rebuilds a live
network from it, so a sweep can converge once per technique and *fork*
the result per cell instead of cold-starting forty times.

The codec only accepts a **quiescent** network (event queue drained,
e.g. right after ``converge()`` went idle). That is what makes the
problem tractable: with no events in flight there are no scheduled
callbacks -- closures over live objects -- to serialize. Everything that
remains is value-like state:

* per router, keyed by node: Adj-RIB-In, Loc-RIB, origin configs,
  flap-damping state, and each session's transfer state (advertised
  set, delivery epoch, *effective* MRAI including the heterogeneity
  draw), in the router's own ``sessions`` order;
* per network: adjacency, link latency/timing/loss tables, failed
  links, the provenance cause counter, the RNG state, and the clock.

Each fact is held once. A session's relationship, timing and loss
knobs are its link's (``adjacency``, ``link_timing``, ``link_loss``),
and a FIB is its Loc-RIB's next hops (the router's install is the only
FIB writer and a quiescent network has none queued), so the snapshot
stores neither and a load derives them.

Restore builds the object graph through the normal constructors, which
re-wires everything unpicklable for free: ``BgpNetwork.add_router``
recreates the ``fib_delay_source`` closure and the damping
``on_release`` hook, fresh :class:`Session` objects re-bind the remote
router's ``receive``, and every component re-resolves its telemetry
instruments against the *currently installed* backend (a snapshot taken
under one backend restores cleanly under another). Then one loader puts
the state in: the engine reset to the snapshot's clock, the network's
counters and hooks, every router's RIBs/origins (and the FIB they
imply) and every session's transfer state, the damping state
(suppressed entries re-arm their release timers, since the live
network always has one scheduled per suppression), and the RNG state
last. Building costs O(network).

:func:`rewind_network` is the same loader run on a network restored
from the same snapshot, for the routers ``BgpNetwork.touched`` names and
the sessions among theirs that queued an update (``Session.dirty``):
every entry that can change a router's state notes it there, and a
session changes only by queueing its own router's exports. A cell of
the §5.2 sweep touches a third of the wide world's routers and a
quarter of their sessions queue anything, so a sweep keeps its fork and
rewinds it between cells of one baseline at that cost
(docs/checkpoint.md, "What the fork saves"). A network whose shape
changed (links, sessions, loss knobs: ``BgpNetwork.reshaped``) is
restored instead.

Determinism contract: ``restore_network`` is a pure function of the
snapshot -- byte-equal snapshots restore to networks that simulate
identically, whichever process (or worker) runs them -- a restore
keeps each router's session order (its export fan-out order), so it
simulates as the snapshotted network would, and a rewound network is
in the state a restore of its snapshot gives.
"""

from __future__ import annotations

import pickle
from collections.abc import Iterable
from dataclasses import dataclass

from repro.bgp.damping import DampingConfig
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.route import Route
from repro.bgp.router import OriginConfig
from repro.bgp.session import Session, SessionTiming
from repro.net.addr import IPv4Prefix

#: bumped on incompatible snapshot layout changes
SNAPSHOT_SCHEMA = "repro.checkpoint/4"


class CheckpointError(RuntimeError):
    """Snapshot or restore failed."""


class NotQuiescentError(CheckpointError):
    """The network still has events queued; snapshot after converge()."""


@dataclass(frozen=True, slots=True)
class RouterState:
    """One router's value-like state: copies of its three dicts (their
    values are immutable), the damping state, and each session's
    transfer state in the router's ``sessions`` order."""

    asn: int
    adj_rib_in: dict[IPv4Prefix, dict[str, Route]]
    loc_rib: dict[IPv4Prefix, Route]
    origins: dict[IPv4Prefix, OriginConfig]
    #: (export_state entries, flaps, suppressions) or None without damping
    damping: tuple[list, int, int] | None
    #: remote -> ``Session.transfer_state()``
    sessions: dict[str, tuple]


@dataclass(frozen=True, slots=True)
class NetworkSnapshot:
    """A quiescent :class:`BgpNetwork`, as plain picklable data."""

    schema: str
    now: float
    rng_state: tuple
    next_cause: int
    current_cause: int
    default_timing: SessionTiming
    damping_config: DampingConfig | None
    #: node -> state, in node order
    routers: dict[str, RouterState]
    adjacency: dict[str, dict[str, Relationship]]
    link_latency: dict[frozenset, float]
    link_timing: dict[frozenset, SessionTiming]
    link_loss: dict[frozenset, tuple[float, float]]
    failed_links: dict[frozenset, tuple[str, str, Relationship]]

    def dumps(self) -> bytes:
        """Pickle the snapshot (for shipping to sweep workers or disk)."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def loads(data: bytes) -> "NetworkSnapshot":
        try:
            snapshot = pickle.loads(data)
        except Exception as error:  # pickle raises a dozen unrelated types
            raise CheckpointError(f"not a snapshot: {error!r}") from error
        if not isinstance(snapshot, NetworkSnapshot):
            raise CheckpointError(f"not a NetworkSnapshot: {type(snapshot).__name__}")
        if snapshot.schema != SNAPSHOT_SCHEMA:
            raise CheckpointError(
                f"snapshot schema {snapshot.schema!r} != {SNAPSHOT_SCHEMA!r}"
            )
        return snapshot


def snapshot_network(network: BgpNetwork) -> NetworkSnapshot:
    """Capture a quiescent network as a :class:`NetworkSnapshot`.

    Raises :class:`NotQuiescentError` while events are still queued, or
    while an MRAI deadline lies ahead of the clock (a timer is not an
    event; docs/architecture.md, "MRAI pacing"): an in-flight callback
    or a running timer cannot be serialized, and silently dropping it
    would fork a network that diverges from the original.
    """
    engine = network.engine
    if engine.pending:
        raise NotQuiescentError(
            f"{engine.pending} event(s) still queued; "
            "run converge() until idle before snapshotting"
        )
    if engine.horizon > engine.now:
        raise NotQuiescentError(
            f"an MRAI timer runs until t={engine.horizon:.6f}s (now {engine.now:.6f}s); "
            "run converge() until idle before snapshotting"
        )
    routers = {}
    for node in sorted(network.routers):
        router = network.routers[node]
        damping_state = None
        if router.damping is not None:
            damping_state = (
                router.damping.export_state(),
                router.damping.flaps,
                router.damping.suppressions,
            )
        routers[node] = RouterState(
            asn=router.asn,
            adj_rib_in={p: dict(heard) for p, heard in router.adj_rib_in.items()},
            loc_rib=dict(router.loc_rib),
            origins=dict(router.origins),
            damping=damping_state,
            sessions={
                remote: session.transfer_state()
                for remote, session in router.sessions.items()
            },
        )
    return NetworkSnapshot(
        schema=SNAPSHOT_SCHEMA,
        now=network.engine.now,
        rng_state=network.rng.getstate(),
        next_cause=network._next_cause,
        current_cause=network.current_cause,
        default_timing=network.default_timing,
        damping_config=network.damping_config,
        routers=routers,
        adjacency={node: dict(nbrs) for node, nbrs in network.adjacency.items()},
        link_latency=dict(network.link_latency),
        link_timing=dict(network._link_timing),
        link_loss=dict(network._link_loss),
        failed_links=dict(network._failed_links),
    )


def restore_network(snapshot: NetworkSnapshot) -> BgpNetwork:
    """Rebuild a live network from a snapshot.

    The restored network is independent of the snapshotted one, holds
    the same state -- same RIBs/FIBs, same session transfer state and
    effective MRAIs, same damping state (with release timers re-armed),
    same RNG stream position, same clock -- and behaves the same: each
    router's ``sessions`` come back in the original's order, which is
    its export fan-out order. Each session's relationship, timing and
    loss knobs are read from its link's tables; a session the snapshot's
    ``adjacency`` or ``link_timing`` lacks is a :class:`CheckpointError`.
    Building costs O(network); the state itself goes in through the
    loader :func:`rewind_network` shares.
    """
    if snapshot.schema != SNAPSHOT_SCHEMA:
        raise CheckpointError(
            f"snapshot schema {snapshot.schema!r} != {SNAPSHOT_SCHEMA!r}"
        )
    network = BgpNetwork(
        seed=0,
        default_timing=snapshot.default_timing,
        damping=snapshot.damping_config,
    )
    # add_router re-wires fib_delay_source and damping on_release.
    for node, state in snapshot.routers.items():
        router = network.add_router(node, state.asn)
        if state.damping is not None and router.damping is None:
            raise CheckpointError(
                f"router {node!r} snapshotted with damping state "
                "but restored without a damping config"
            )
    # Sessions are placed directly instead of via add_session: the
    # establishment resync must not re-send the Loc-RIB the remote end
    # already holds. The fresh Session binds the remote router's live
    # receive() -- one bound method per router, shared by every session
    # toward it -- and takes its snapshot's effective MRAI, so building
    # it draws nothing.
    receive = {node: router.receive for node, router in network.routers.items()}
    sessions = []
    for node, state in snapshot.routers.items():
        held = network.routers[node].sessions
        for remote, transfer in state.sessions.items():
            link = frozenset((node, remote))
            try:
                relationship = snapshot.adjacency[node][remote]
                timing = snapshot.link_timing[link]
            except KeyError:
                raise CheckpointError(
                    f"session {node!r}->{remote!r} has no adjacency or link-timing entry"
                ) from None
            session = held[remote] = Session(
                network.engine,
                network.rng,
                node,
                remote,
                relationship,
                receive[remote],
                timing,
                network._telemetry,
                mrai=transfer[0],
            )
            loss = snapshot.link_loss.get(link)
            if loss is not None:
                session.loss_prob, session.dup_prob = loss
            sessions.append((session, transfer))
    network.adjacency = {node: dict(nbrs) for node, nbrs in snapshot.adjacency.items()}
    network.link_latency = dict(snapshot.link_latency)
    network._link_timing = dict(snapshot.link_timing)
    network._link_loss = dict(snapshot.link_loss)
    network._failed_links = dict(snapshot.failed_links)
    _load(network, snapshot, snapshot.routers.items(), sessions)
    return network


def rewind_network(network: BgpNetwork, snapshot: NetworkSnapshot) -> int:
    """Put a network restored from ``snapshot`` back in the state
    :func:`restore_network` gives, reloading only what changed.

    Only the routers in ``network.touched`` can differ from the
    snapshot, and of their sessions only those that queued an update
    since the last load (``Session.dirty``), so only those reload: the
    cost follows the routers touched and the sessions that sent, not the
    network. The engine, RNG and network-wide counters reset in full.
    A network whose links, sessions or loss knobs changed shape
    (``network.reshaped``) cannot be rewound. Returns the number of
    routers reloaded.
    """
    if network.reshaped:
        raise CheckpointError("a reshaped network cannot be rewound; restore it")
    routers = []
    sessions = []
    for node in network.touched:
        state = snapshot.routers.get(node)
        if state is None:
            raise CheckpointError(f"router {node!r} is not in the snapshot")
        routers.append((node, state))
        live = network.routers[node].sessions
        sessions.extend(
            (live[remote], transfer)
            for remote, transfer in state.sessions.items()
            if live[remote].dirty
        )
    _load(network, snapshot, routers, sessions)
    return len(routers)


def _load(
    network: BgpNetwork,
    snapshot: NetworkSnapshot,
    routers: Iterable[tuple[str, RouterState]],
    sessions: Iterable[tuple[Session, tuple]],
) -> None:
    """The one state loader behind restore and rewind: reset everything
    network-wide to the snapshot, then load ``routers`` (⟨node, state⟩)
    and ``sessions`` (⟨live session, transfer state⟩): restore passes
    all of them, rewind the touched routers and the sessions that
    sent."""
    network.engine.reset(snapshot.now)
    network._next_cause = snapshot.next_cause
    network.current_cause = snapshot.current_cause
    network.route_version = 0
    # The FIBs below reach no hook. Empty the old list (no plane stays
    # alive through it) and start a fresh one: a plane still holding the
    # old list drops its memo at its next lookup.
    network.on_route_change.clear()
    network.on_route_change = []
    network.touched.clear()
    network.bind_clock()
    # RIB/origin contents are installed directly (no reselect, no
    # exports -- the snapshot is already converged), and each FIB is
    # what the router's install makes of its Loc-RIB.
    for node, state in routers:
        router = network.routers[node]
        router.adj_rib_in = {p: dict(heard) for p, heard in state.adj_rib_in.items()}
        router.med_heard = any(
            route.med for heard in state.adj_rib_in.values() for route in heard.values()
        )
        router.loc_rib = dict(state.loc_rib)
        router.fib.load(sorted(
            (prefix, best.learned_from or node) for prefix, best in state.loc_rib.items()
        ))
        router.origins = dict(state.origins)
        router._current_cause = 0
    for session, transfer in sessions:
        session.restore_transfer_state(transfer)
    # Damping state of every router, touched or not: a release timer
    # may have moved an untouched router's entry, and the reset engine
    # must re-arm every suppressed entry's timer in the order a restore
    # does.
    for node, state in snapshot.routers.items() if network.damping_config is not None else ():
        if state.damping is not None:
            network.routers[node].damping.import_state(*state.damping)
    # RNG state last: nothing above draws, but the stream must continue
    # exactly where the snapshot stopped whatever ran since (a rewind).
    network.rng.setstate(snapshot.rng_state)
