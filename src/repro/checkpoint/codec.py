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

Restore rebuilds the object graph through the normal constructors, which
re-wires everything unpicklable for free: ``BgpNetwork.add_router``
recreates the ``fib_delay_source`` closure and the damping
``on_release`` hook, fresh :class:`Session` objects re-bind the remote
router's ``receive``, and every component re-resolves its telemetry
instruments against the *currently installed* backend (a snapshot taken
under one backend restores cleanly under another). Suppressed damping
entries re-arm their release timers, since the live network always has
one scheduled per suppression. The RNG state is applied **last**,
because session construction itself consumes draws (``mrai_sigma``);
the snapshotted effective MRAIs then overwrite the constructor's draws.

Determinism contract: ``restore_network`` is a pure function of the
snapshot -- byte-equal snapshots restore to networks that simulate
identically, whichever process (or worker) runs them.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.bgp.damping import DampingConfig
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.route import Route
from repro.bgp.router import OriginConfig
from repro.bgp.session import Session, SessionTiming
from repro.net.addr import IPv4Prefix

#: bumped on incompatible snapshot layout changes
SNAPSHOT_SCHEMA = "repro.checkpoint/2"


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

    Raises :class:`NotQuiescentError` while events are still queued: an
    in-flight callback cannot be serialized, and silently dropping it
    would fork a network that diverges from the original.
    """
    if network.engine.pending:
        raise NotQuiescentError(
            f"{network.engine.pending} event(s) still queued; "
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

    The restored network is independent of (and byte-equivalent in
    behavior to) the snapshotted one: same RIBs/FIBs, same session
    transfer state and effective MRAIs, same damping state (with release
    timers re-armed), same RNG stream position, same clock.
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
    network.engine.warp(snapshot.now)
    # Routers first: add_router re-wires fib_delay_source and damping
    # on_release; RIB/FIB/origin contents are then installed directly
    # (no reselect, no exports -- the snapshot is already converged).
    for state in snapshot.routers:
        router = network.add_router(state.node_id, state.asn)
        router.adj_rib_in = {p: dict(heard) for p, heard in state.adj_rib_in.items()}
        router.loc_rib = dict(state.loc_rib)
        for prefix, next_hop in state.fib:
            router.fib.insert(prefix, next_hop)
        router.origins = dict(state.origins)
    # Sessions are placed directly instead of via add_session: the
    # establishment resync must not re-send the Loc-RIB the remote end
    # already holds. The fresh Session binds the remote router's live
    # receive() -- one bound method per router, shared by every session
    # toward it -- and the restored engine/RNG.
    receive = {node: router.receive for node, router in network.routers.items()}
    for state in snapshot.sessions:
        session = Session(
            network.engine,
            network.rng,
            state.local,
            state.remote,
            state.relationship,
            receive[state.remote],
            state.timing,
        )
        session.restore_transfer_state(state.transfer)
        network.routers[state.local].sessions[state.remote] = session
    network.adjacency = {node: dict(nbrs) for node, nbrs in snapshot.adjacency.items()}
    network.link_latency = dict(snapshot.link_latency)
    network._link_timing = dict(snapshot.link_timing)
    network._link_loss = dict(snapshot.link_loss)
    network._failed_links = dict(snapshot.failed_links)
    network._next_cause = snapshot.next_cause
    network.current_cause = snapshot.current_cause
    # Damping state after routers exist; suppressed entries re-arm their
    # release timers through the restored engine.
    for state in snapshot.routers:
        if state.damping is not None:
            damping = network.routers[state.node_id].damping
            if damping is None:
                raise CheckpointError(
                    f"router {state.node_id!r} snapshotted with damping state "
                    "but restored without a damping config"
                )
            damping.import_state(*state.damping)
    # RNG last: constructors above consumed draws (session mrai_sigma,
    # damping release jitter via schedule); restoring the stream position
    # now makes the fork continue exactly where the snapshot stopped.
    network.rng.setstate(snapshot.rng_state)
    return network
