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

* per router: Adj-RIB-In, Loc-RIB, FIB contents, origin configs, and
  flap-damping state;
* per session: the transfer state (advertised set, delivery epoch,
  *effective* MRAI including the heterogeneity draw, loss/dup knobs);
* per network: adjacency, link latency/timing/loss tables, failed
  links, the provenance cause counter, the RNG state, and the clock.

Restore builds the object graph through the normal constructors, which
re-wires everything unpicklable for free: ``BgpNetwork.add_router``
recreates the ``fib_delay_source`` closure and the damping
``on_release`` hook, fresh :class:`Session` objects re-bind the remote
router's ``receive``, and every component re-resolves its telemetry
instruments against the *currently installed* backend (a snapshot taken
under one backend restores cleanly under another). Then one loader puts
the state in: the engine reset to the snapshot's clock, the network's
counters and hooks, every router's RIBs/FIB/origins and every session's
transfer state, the damping state (suppressed entries re-arm their
release timers, since the live network always has one scheduled per
suppression), and the RNG state last. Building costs O(network).

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
identically, whichever process (or worker) runs them -- and a rewound
network is in the state a restore of its snapshot gives.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from operator import attrgetter

from repro.bgp.damping import DampingConfig
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.route import Route
from repro.bgp.router import OriginConfig
from repro.bgp.session import Session, SessionTiming
from repro.net.addr import IPv4Prefix

#: bumped on incompatible snapshot layout changes
SNAPSHOT_SCHEMA = "repro.checkpoint/3"


_NODE = attrgetter("node_id")
_LOCAL = attrgetter("local")


class CheckpointError(RuntimeError):
    """Snapshot or restore failed."""


class NotQuiescentError(CheckpointError):
    """The network still has events queued; snapshot after converge()."""


@dataclass(frozen=True, slots=True)
class RouterState:
    """One router's value-like state: copies of its three dicts (their
    values are immutable), the FIB's entries, and the damping state."""

    node_id: str
    asn: int
    adj_rib_in: dict[IPv4Prefix, dict[str, Route]]
    loc_rib: dict[IPv4Prefix, Route]
    fib: tuple[tuple[IPv4Prefix, str], ...]
    origins: dict[IPv4Prefix, OriginConfig]
    #: (export_state entries, flaps, suppressions) or None without damping
    damping: tuple[list, int, int] | None


@dataclass(frozen=True, slots=True)
class SessionState:
    """One session direction's identity, timing, and transfer state."""

    local: str
    remote: str
    relationship: Relationship
    timing: SessionTiming
    #: ``Session.transfer_state()``
    transfer: tuple


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
    routers: tuple[RouterState, ...]
    sessions: tuple[SessionState, ...]
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
    routers = []
    sessions = []
    for node_id in sorted(network.routers):
        router = network.routers[node_id]
        damping_state = None
        if router.damping is not None:
            damping_state = (
                router.damping.export_state(),
                router.damping.flaps,
                router.damping.suppressions,
            )
        routers.append(
            RouterState(
                node_id=node_id,
                asn=router.asn,
                adj_rib_in={p: dict(heard) for p, heard in router.adj_rib_in.items()},
                loc_rib=dict(router.loc_rib),
                fib=tuple(sorted(router.fib.items())),
                origins=dict(router.origins),
                damping=damping_state,
            )
        )
        for remote in sorted(router.sessions):
            session = router.sessions[remote]
            sessions.append(
                SessionState(
                    local=node_id,
                    remote=remote,
                    relationship=session.relationship,
                    timing=session.timing,
                    transfer=session.transfer_state(),
                )
            )
    return NetworkSnapshot(
        schema=SNAPSHOT_SCHEMA,
        now=network.engine.now,
        rng_state=network.rng.getstate(),
        next_cause=network._next_cause,
        current_cause=network.current_cause,
        default_timing=network.default_timing,
        damping_config=network.damping_config,
        routers=tuple(routers),
        sessions=tuple(sessions),
        adjacency={node: dict(nbrs) for node, nbrs in network.adjacency.items()},
        link_latency=dict(network.link_latency),
        link_timing=dict(network._link_timing),
        link_loss=dict(network._link_loss),
        failed_links=dict(network._failed_links),
    )


def restore_network(snapshot: NetworkSnapshot) -> BgpNetwork:
    """Rebuild a live network from a snapshot.

    The restored network is independent of the snapshotted one and holds
    the same state: same RIBs/FIBs, same session transfer state and
    effective MRAIs, same damping state (with release timers re-armed),
    same RNG stream position, same clock. It is *not* equivalent in
    behavior: each router's ``sessions`` come back sorted by remote,
    not in the original's insertion order, and that order is the export
    fan-out order, so the same later event can unfold differently
    (``tests/test_checkpoint_codec.py::TestSessionOrder``). Every
    restore of one snapshot behaves the same. Building costs
    O(network); the state itself goes in through the loader
    :func:`rewind_network` shares.
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
    for state in snapshot.routers:
        router = network.add_router(state.node_id, state.asn)
        if state.damping is not None and router.damping is None:
            raise CheckpointError(
                f"router {state.node_id!r} snapshotted with damping state "
                "but restored without a damping config"
            )
    # Sessions are placed directly instead of via add_session: the
    # establishment resync must not re-send the Loc-RIB the remote end
    # already holds. The fresh Session binds the remote router's live
    # receive() -- one bound method per router, shared by every session
    # toward it -- and takes its snapshot's effective MRAI, so building
    # it draws nothing.
    receive = {node: router.receive for node, router in network.routers.items()}
    for state in snapshot.sessions:
        network.routers[state.local].sessions[state.remote] = Session(
            network.engine,
            network.rng,
            state.local,
            state.remote,
            state.relationship,
            receive[state.remote],
            state.timing,
            network._telemetry,
            mrai=state.transfer[0],
        )
    network.adjacency = {node: dict(nbrs) for node, nbrs in snapshot.adjacency.items()}
    network.link_latency = dict(snapshot.link_latency)
    network._link_timing = dict(snapshot.link_timing)
    network._link_loss = dict(snapshot.link_loss)
    network._failed_links = dict(snapshot.failed_links)
    _load(network, snapshot, snapshot.routers, snapshot.sessions)
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
    routers = [_router_state(snapshot, node) for node in network.touched]
    sessions = []
    for state in routers:
        live = network.routers[state.node_id].sessions
        sessions.extend(
            session for session in _session_states(snapshot, state.node_id)
            if live[session.remote].dirty
        )
    _load(network, snapshot, routers, sessions)
    return len(routers)


def _router_state(snapshot: NetworkSnapshot, node: str) -> RouterState:
    """``node``'s entry in the snapshot (whose routers are in node order)."""
    index = bisect_left(snapshot.routers, node, key=_NODE)
    if index == len(snapshot.routers) or snapshot.routers[index].node_id != node:
        raise CheckpointError(f"router {node!r} is not in the snapshot")
    return snapshot.routers[index]


def _session_states(snapshot: NetworkSnapshot, node: str) -> tuple[SessionState, ...]:
    """The sessions ``node`` holds (the snapshot's are in ⟨local, remote⟩
    order)."""
    sessions = snapshot.sessions
    return sessions[
        bisect_left(sessions, node, key=_LOCAL):bisect_right(sessions, node, key=_LOCAL)
    ]



def _load(
    network: BgpNetwork,
    snapshot: NetworkSnapshot,
    routers: Iterable[RouterState],
    sessions: Iterable[SessionState],
) -> None:
    """The one state loader behind restore and rewind: reset everything
    network-wide to the snapshot, then load ``routers`` and ``sessions``
    (restore passes all of them, rewind the touched routers and the
    sessions that sent)."""
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
    # RIB/FIB/origin contents are installed directly (no reselect, no
    # exports -- the snapshot is already converged).
    for state in routers:
        router = network.routers[state.node_id]
        router.adj_rib_in = {p: dict(heard) for p, heard in state.adj_rib_in.items()}
        router.med_heard = any(
            route.med for heard in state.adj_rib_in.values() for route in heard.values()
        )
        router.loc_rib = dict(state.loc_rib)
        router.fib.load(state.fib)
        router.origins = dict(state.origins)
        router._current_cause = 0
    for state in sessions:
        network.routers[state.local].sessions[state.remote].restore_transfer_state(
            state.transfer
        )
    # Damping state of every router, touched or not: a release timer
    # may have moved an untouched router's entry, and the reset engine
    # must re-arm every suppressed entry's timer in the order a restore
    # does.
    for state in snapshot.routers if network.damping_config is not None else ():
        if state.damping is not None:
            network.routers[state.node_id].damping.import_state(*state.damping)
    # RNG state last: nothing above draws, but the stream must continue
    # exactly where the snapshot stopped whatever ran since (a rewind).
    network.rng.setstate(snapshot.rng_state)
