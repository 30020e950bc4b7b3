"""Tests for the quiescent-network snapshot/restore codec."""

import copy
import dataclasses
import pathlib
import pickle
import random

import pytest

from repro.bgp.damping import DampingConfig, RouteDamping
from repro.bgp.engine import EventEngine
from repro.bgp.network import BgpNetwork
from repro.bgp.route import Route
from repro.bgp.session import DEFAULT_INTERNET_TIMING, SessionTiming
from repro.checkpoint import (
    SNAPSHOT_SCHEMA,
    CheckpointError,
    NetworkSnapshot,
    NotQuiescentError,
    RouterState,
    restore_network,
    rewind_network,
    snapshot_network,
)
from repro.cli.sweep_cmd import DEFAULT_TECHNIQUES
from repro.core.plan import apply_plan
from repro.core.techniques import Anycast, technique_by_name
from repro.faults.injector import FaultInjector
from repro.faults.plan import load_fault_plan
from repro.net.addr import IPv4Prefix
from repro.net.lpm import LpmTable

from tests.conftest import build_line_network

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"

PFX = IPv4Prefix.parse("184.164.244.0/24")
PFX2 = IPv4Prefix.parse("184.164.245.0/24")

#: Enough randomness to make divergence obvious: jitter, MRAI pacing,
#: busy sessions, heterogeneous effective MRAIs.
RICH_TIMING = SessionTiming(
    latency=0.05, jitter=0.5, mrai=5.0, busy_prob=0.3, mrai_sigma=0.5
)


def fingerprint(net: BgpNetwork, exact: bool = False) -> dict:
    """Everything that determines future behavior, as comparable data.

    A restore renumbers what only orders or dates past work: its fresh
    engine counts events from 0, and a deadline behind the clock is as
    spent as one that never ran. So queued events appear by time and
    sequence number relative to the next one, and the quiet horizon and
    each MRAI deadline as the later of it and the clock. ``exact`` adds
    those numbers as they are, with the per-network epochs a restore
    starts afresh (route version, hooks, touched routers, the routers'
    active causes, the sessions that queued an update since the load):
    what a rewound network must share with a restore.
    """
    engine = net.engine
    now = engine.now
    next_seq = next(copy.copy(engine._counter))
    numbering = {}
    if exact:
        numbering = {
            "next_seq": next_seq,
            "processed": engine.processed,
            "horizon": engine.horizon,
            "route_version": net.route_version,
            "on_route_change": list(net.on_route_change),
            "touched": sorted(net.touched),
            "reshaped": net.reshaped,
            "router_causes": {n: r._current_cause for n, r in net.routers.items()},
            "mrai_until": {
                (local, remote): session._mrai_until
                for local, router in net.routers.items()
                for remote, session in router.sessions.items()
            },
            "dirty": sorted(
                (local, remote)
                for local, router in net.routers.items()
                for remote, session in router.sessions.items()
                if session.dirty
            ),
        }
    return {
        "numbering": numbering,
        "now": now,
        "rng": net.rng.getstate(),
        "next_cause": net._next_cause,
        "current_cause": net.current_cause,
        "engine": {
            "queue": sorted((when, seq - next_seq) for when, seq, _ in engine._queue),
            "horizon": max(engine.horizon, now),
        },
        "routers": {
            name: {
                "loc_rib": dict(router.loc_rib),
                # ordered items, which dict equality cannot tell apart:
                # best-path selection under MEDs depends on the order of
                # `heard`, and `withdraw_all` withdraws in `origins` order
                "adj_rib_in": {p: list(h.items()) for p, h in router.adj_rib_in.items()},
                "fib": sorted(router.fib.items()),
                "origins": list(router.origins.items()),
                # the export fan-out order, which dict equality cannot see
                "session_order": list(router.sessions),
                "med_heard": router.med_heard,
                "damping": None if router.damping is None else (
                    router.damping.export_state(),
                    router.damping.flaps,
                    router.damping.suppressions,
                ),
            }
            for name, router in net.routers.items()
        },
        "sessions": {
            (local, remote): (
                session.mrai,
                session.epoch,
                sorted(session.advertised),
                session.closed,
                dict(session._pending),
                max(session._mrai_until, now),
                session._expiry_queued,
                session._last_delivery,
                session.loss_prob,
                session.dup_prob,
            )
            for local in net.routers
            for remote, session in net.router(local).sessions.items()
        },
        "adjacency": net.adjacency,
        "link_latency": net.link_latency,
        "link_timing": net._link_timing,
        "link_loss": net._link_loss,
        "failed_links": net._failed_links,
    }


def derived_fib(router) -> list:
    """What the router's install makes of its Loc-RIB, as sorted pairs."""
    return sorted(
        (prefix, best.learned_from or router.node_id) for prefix, best in router.loc_rib.items()
    )


def converged_net(seed: int = 11) -> BgpNetwork:
    net = build_line_network(4, seed=seed, timing=RICH_TIMING)
    net.announce("r0", PFX)
    net.converge()
    return net


class TestQuiescenceGuard:
    def test_pending_events_rejected(self):
        net = converged_net()
        net.announce("r0", PFX2)  # updates now in flight
        assert net.engine.pending > 0
        with pytest.raises(NotQuiescentError):
            snapshot_network(net)

    def test_session_transfer_state_guard(self):
        """The per-session guard backs up the engine-level one."""
        net = converged_net()
        net.announce("r0", PFX2)
        sessions = [
            s for name in net.routers for s in net.router(name).sessions.values()
        ]
        busy = [s for s in sessions if s._pending or s._mrai_running]
        assert busy, "announce should leave at least one session mid-MRAI"
        with pytest.raises(RuntimeError, match="not quiescent"):
            busy[0].transfer_state()


class TestRoundTrip:
    def test_restore_preserves_all_state(self):
        net = converged_net()
        clone = restore_network(snapshot_network(net))
        assert fingerprint(clone) == fingerprint(net)

    def test_fingerprint_sees_the_order_of_origins_and_heard(self, deployment):
        """Same contents in another order is another fingerprint."""
        net = converged_net()
        net.announce("r0", PFX2)
        net.converge()
        before = fingerprint(net)
        router = net.router("r0")
        router.origins = dict(reversed(router.origins.items()))
        assert fingerprint(net) != before

        net = TestSessionOrder.anycast_base(deployment)
        before = fingerprint(net)
        router, prefix, heard = next(
            (router, prefix, heard)
            for router in net.routers.values()
            for prefix, heard in router.adj_rib_in.items()
            if len(heard) > 1
        )
        router.adj_rib_in[prefix] = dict(reversed(heard.items()))
        assert fingerprint(net) != before

    def test_restore_draws_nothing(self, monkeypatch):
        """A restored session takes its snapshot's effective MRAI; the
        constructor's heterogeneity draw is not made."""
        snapshot = snapshot_network(converged_net())
        assert RICH_TIMING.mrai_sigma > 0

        def no_draw(*args):
            raise AssertionError("restore drew an MRAI")

        monkeypatch.setattr(random.Random, "lognormvariate", no_draw)
        clone = restore_network(snapshot)
        assert [s.mrai for s in clone.router("r1").sessions.values()] == [
            transfer[0] for transfer in snapshot.routers["r1"].sessions.values()
        ]

    def test_restored_fibs_are_the_loc_rib_in_plain_tables(self):
        """The snapshot holds no FIB: restore loads each router's own
        table with its Loc-RIB's next hops, as the original's install
        wrote them -- no stand-in type, nothing deferred to first use."""
        net = converged_net()
        net.announce("r0", PFX.supernet())  # a second length under the /24
        net.converge()
        snapshot = snapshot_network(net)
        fork = restore_network(snapshot)
        for name, router in fork.routers.items():
            assert type(router.fib) is LpmTable
            assert len(router.fib) == 2
            assert sorted(router.fib.items()) == derived_fib(router)
            assert sorted(router.fib.items()) == sorted(net.router(name).fib.items())

    def test_snapshot_does_not_disturb_original(self):
        net = converged_net()
        before = fingerprint(net)
        snapshot_network(net)
        assert fingerprint(net) == before

    def test_restored_network_simulates_identically(self):
        """The fork contract: the clone continues exactly like the
        original would -- same event times, same final routes, same RNG
        stream consumption -- through a withdrawal (path hunting, the
        RNG-heaviest workload)."""
        net = converged_net()
        clone = restore_network(snapshot_network(net))
        assert net.withdraw("r0", PFX) and clone.withdraw("r0", PFX)
        assert net.converge() == clone.converge()
        assert fingerprint(clone) == fingerprint(net)

    def test_forks_are_independent(self):
        """Mutating one fork must not leak into another."""
        snapshot = snapshot_network(converged_net())
        fork_a = restore_network(snapshot)
        fork_b = restore_network(snapshot)
        fork_a.withdraw("r0", PFX)
        fork_a.converge()
        assert fork_a.router("r3").best_route(PFX) is None
        assert fork_b.router("r3").best_route(PFX) is not None

    def test_reseeded_forks_diverge_only_by_rng(self):
        """The sweep's per-cell reseed: same state, fresh stream."""
        snapshot = snapshot_network(converged_net())
        fork_a = restore_network(snapshot)
        fork_b = restore_network(snapshot)
        fork_a.rng.seed(1)
        fork_b.rng.seed(1)
        fork_a.withdraw("r0", PFX)
        fork_b.withdraw("r0", PFX)
        assert fork_a.converge() == fork_b.converge()
        assert fingerprint(fork_a) == fingerprint(fork_b)

    def test_failed_links_survive_round_trip(self):
        net = converged_net()
        net.fail_link("r2", "r3")
        net.converge()
        clone = restore_network(snapshot_network(net))
        assert clone.is_link_failed("r2", "r3")
        assert not clone.has_link("r2", "r3")
        clone.restore_link("r2", "r3")
        clone.converge()
        assert clone.router("r3").best_route(PFX) is not None

    def test_message_loss_knobs_survive_round_trip(self):
        net = converged_net()
        net.set_message_loss("r0", "r1", loss_prob=0.25, dup_prob=0.125)
        net.converge()
        clone = restore_network(snapshot_network(net))
        session = clone.router("r0").sessions["r1"]
        assert session.loss_prob == 0.25
        assert session.dup_prob == 0.125

    def test_loss_knobs_survive_a_link_failure_and_a_round_trip(self):
        """The knobs are the link's: a session rebuilt by ``restore_link``
        takes them from ``link_loss``, and so does a restored one."""
        net = converged_net()
        net.set_message_loss("r1", "r2", loss_prob=0.25, dup_prob=0.125)
        net.fail_link("r1", "r2")
        net.converge()
        net.restore_link("r1", "r2")
        net.converge()
        clone = restore_network(snapshot_network(net))
        for a, b in (("r1", "r2"), ("r2", "r1")):
            session = clone.router(a).sessions[b]
            assert (session.loss_prob, session.dup_prob) == (0.25, 0.125)
        assert [
            (s.loss_prob, s.dup_prob) for s in clone.router("r0").sessions.values()
        ] == [(0.0, 0.0)]
        assert fingerprint(clone) == fingerprint(net)

    def test_a_closed_session_is_refused(self):
        """A session at rest is open (``fail_link`` drops a closed one,
        ``reset_session`` reopens it), so the transfer tuple holds no
        ``closed`` flag and a closed session is not quiescent."""
        net = converged_net()
        net.router("r1").sessions["r2"].closed = True
        with pytest.raises(RuntimeError, match="'r1'->'r2' is not quiescent"):
            snapshot_network(net)

    @pytest.mark.parametrize("table", ["adjacency", "link_timing"])
    def test_a_session_without_its_link_entry_is_refused(self, table):
        """A session's relationship and timing are read from its link's
        entries: a snapshot that lacks one names the session."""
        snapshot = snapshot_network(converged_net())
        if table == "adjacency":
            adjacency = dict(snapshot.adjacency)
            adjacency["r1"] = {n: r for n, r in adjacency["r1"].items() if n != "r2"}
            broken = dataclasses.replace(snapshot, adjacency=adjacency)
        else:
            timing = dict(snapshot.link_timing)
            del timing[frozenset(("r1", "r2"))]
            broken = dataclasses.replace(snapshot, link_timing=timing)
        with pytest.raises(CheckpointError, match="session 'r1'->'r2' has no adjacency"):
            restore_network(broken)


class TestSessionOrder:
    """A router's ``sessions`` order is its export fan-out order, and so
    the sequence numbers of same-instant deliveries. A snapshot holds
    each router's sessions in that order, so a restore keeps it; on the
    testbed's anycast base another order changes what a site's
    withdrawal does."""

    @staticmethod
    def anycast_base(deployment) -> BgpNetwork:
        net = deployment.topology.build_network(seed=1, timing=DEFAULT_INTERNET_TIMING)
        apply_plan(net, Anycast().base_plan(deployment))
        net.converge()
        return net

    @staticmethod
    def withdrawal(net: BgpNetwork, node: str) -> tuple:
        """⟨time to converge, events run, RNG state⟩ after ``node``
        withdraws everything."""
        start, processed = net.now, net.engine.processed
        net.withdraw_all(node)
        return net.converge() - start, net.engine.processed - processed, net.rng.getstate()

    def test_sorted_sessions_are_another_network(self, deployment):
        """Sort each router's sessions by remote (what a restore did
        while the snapshot kept them in one ⟨local, remote⟩ table): the
        fingerprint sees it, and the same withdrawal unfolds otherwise."""
        net = self.anycast_base(deployment)
        clone = restore_network(snapshot_network(net))
        assert fingerprint(clone) == fingerprint(net)
        reordered = 0
        for router in clone.routers.values():
            order = sorted(router.sessions)
            reordered += list(router.sessions) != order
            router.sessions = {remote: router.sessions[remote] for remote in order}
        assert reordered > 0
        assert fingerprint(clone) != fingerprint(net)
        node = deployment.site_node("sea1")
        assert self.withdrawal(clone, node) != self.withdrawal(net, node)

    def test_a_restore_keeps_each_routers_session_order(self, deployment):
        net = self.anycast_base(deployment)
        clone = restore_network(snapshot_network(net))
        node = deployment.site_node("sea1")
        assert self.withdrawal(clone, node) == self.withdrawal(net, node)
        for name, router in clone.routers.items():
            assert list(router.sessions) == list(net.routers[name].sessions), name
        assert fingerprint(clone) == fingerprint(net)


class TestDerivedFib:
    """The snapshot stores no FIB: the router's install is its only
    writer and a quiescent network has none queued, so a settled FIB is
    its Loc-RIB's next hops and a load derives it."""

    @staticmethod
    def assert_fibs_derived(net: BgpNetwork, fork: BgpNetwork) -> None:
        for name, router in net.routers.items():
            assert sorted(router.fib.items()) == derived_fib(router), name
            assert sorted(fork.router(name).fib.items()) == derived_fib(router), name

    @pytest.mark.parametrize("name", DEFAULT_TECHNIQUES)
    def test_every_compare_baseline_restores_and_rewinds_its_fibs(self, deployment, name):
        options = {"prepend": 3} if name == "proactive-prepending" else {}
        technique = technique_by_name(name, **options)
        with deployment.topology.build_network(
            seed=1, timing=DEFAULT_INTERNET_TIMING
        ) as net:
            apply_plan(net, technique.base_plan(deployment))
            net.converge()
            snapshot = snapshot_network(net)
            with restore_network(snapshot) as fork:
                self.assert_fibs_derived(net, fork)
                fork.withdraw_all(deployment.site_node("sea1"))
                fork.converge()
                rewind_network(fork, snapshot)
                self.assert_fibs_derived(net, fork)

    def test_a_network_converged_after_a_fault_plan(self, deployment):
        """Session resets, a link flap, message loss, a FIB-delay window
        and a partial site failure, all over and converged."""
        plan = load_fault_plan(EXAMPLES / "faultplan.json")
        with TestSessionOrder.anycast_base(deployment) as net:
            injector = FaultInjector(net, plan)
            injector.arm()
            net.converge()
            assert injector.injected == 10 and injector.skipped == 0
            with restore_network(snapshot_network(net)) as fork:
                self.assert_fibs_derived(net, fork)
                assert fingerprint(fork) == fingerprint(net)


class TestDampingRoundTrip:
    DAMPING = DampingConfig(
        penalty_per_flap=1000.0,
        suppress_threshold=1500.0,
        reuse_threshold=750.0,
        half_life=30.0,
        max_penalty=4000.0,
    )

    def test_penalties_survive_round_trip(self):
        net = BgpNetwork(seed=3, default_timing=RICH_TIMING, damping=self.DAMPING)
        for i in range(3):
            net.add_router(f"r{i}", 100 + i)
        net.add_provider("r0", "r1")
        net.add_provider("r1", "r2")
        net.announce("r0", PFX)
        net.converge()
        # One flap: penalty accrues but nothing is suppressed, so no
        # release timer keeps the network from quiescing.
        net.withdraw("r0", PFX)
        net.announce("r0", PFX)
        net.converge()
        damping = net.router("r2").damping
        assert damping is not None and damping.flaps > 0
        clone = restore_network(snapshot_network(net))
        restored = clone.router("r2").damping
        assert restored.export_state() == damping.export_state()
        assert restored.flaps == damping.flaps

    def test_import_state_rearms_release_timers(self):
        """Suppressed entries restored directly (the codec's damping
        import path) must re-arm their release timers."""
        engine = EventEngine()
        damping = RouteDamping(engine, self.DAMPING, on_release=lambda p: None)
        damping.record_flap(PFX, "n1")
        damping.record_flap(PFX, "n1")
        assert damping.is_suppressed(PFX, "n1")
        exported = (damping.export_state(), damping.flaps, damping.suppressions)

        fresh_engine = EventEngine()
        released = []
        fresh = RouteDamping(fresh_engine, self.DAMPING, on_release=released.append)
        fresh.import_state(*exported)
        assert fresh.is_suppressed(PFX, "n1")
        assert fresh.suppressed_neighbors(PFX) == {"n1"}
        assert fresh_engine.pending == 1
        fresh_engine.run_until_idle()
        assert not fresh.is_suppressed(PFX, "n1")
        assert released == [PFX]

    def test_restore_without_damping_config_rejected(self):
        net = BgpNetwork(seed=3, default_timing=RICH_TIMING, damping=self.DAMPING)
        net.add_router("r0", 100)
        snapshot = snapshot_network(net)
        broken = dataclasses.replace(snapshot, damping_config=None)
        with pytest.raises(CheckpointError, match="damping"):
            restore_network(broken)


class TestSerialization:
    def test_dumps_loads_round_trip(self):
        snapshot = snapshot_network(converged_net())
        clone = NetworkSnapshot.loads(snapshot.dumps())
        assert clone == snapshot
        assert fingerprint(restore_network(clone)) == fingerprint(
            restore_network(snapshot)
        )

    def test_a_route_pickles_as_the_frozen_class_did(self):
        """``Route`` is not frozen, but its pickled state is the frozen
        slotted dataclass's -- the field values, as a list, in field
        order -- so a snapshot's bytes do not depend on the freeze."""
        frozen = dataclasses.make_dataclass(
            "FrozenRoute",
            [(f.name, f.type) for f in dataclasses.fields(Route)],
            frozen=True, slots=True,
        )
        values = (PFX, (3, 2, 1), "r1", 100, "r0", 7)
        route = Route(*values)
        assert route.__getstate__() == frozen(*values).__getstate__() == list(values)
        assert route.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2] == list(values)
        clone = pickle.loads(pickle.dumps(route, pickle.HIGHEST_PROTOCOL))
        assert clone == route and hash(clone) == hash(route)
        snapshot = snapshot_network(converged_net())
        assert NetworkSnapshot.loads(snapshot.dumps()) == snapshot

    def test_dumps_deterministic(self):
        """Byte-identical snapshots for byte-identical networks -- the
        property the sweep's serial-vs-workers guarantee rests on."""
        a = snapshot_network(converged_net(seed=11))
        b = snapshot_network(converged_net(seed=11))
        assert a.dumps() == b.dumps()

    def test_loads_rejects_wrong_schema(self):
        snapshot = snapshot_network(converged_net())
        alien = dataclasses.replace(snapshot, schema="repro.checkpoint/0")
        with pytest.raises(CheckpointError, match="schema"):
            NetworkSnapshot.loads(alien.dumps())

    def test_loads_rejects_non_snapshot(self):
        with pytest.raises(CheckpointError, match="NetworkSnapshot"):
            NetworkSnapshot.loads(pickle.dumps({"not": "a snapshot"}))

    @pytest.mark.parametrize(
        "blob, names",
        [
            (b"", "EOFError"),
            (b"garbage", "UnpicklingError"),
            (pickle.dumps({"half": "a pickle"})[:-4], "UnpicklingError"),
            (pickle.dumps(None), "NoneType"),
            (b"crepro.checkpoint\nNoSuchClass\n.", "AttributeError"),
            (
                dataclasses.replace(
                    snapshot_network(converged_net()), schema="repro.checkpoint/0"
                ).dumps(),
                "schema",
            ),
        ],
        ids=["empty", "non-pickle", "truncated", "pickled-none", "unknown-class",
             "wrong-schema"],
    )
    def test_loads_turns_every_malformed_blob_into_checkpoint_error(self, blob, names):
        """``CheckpointError`` is "snapshot or restore failed": a blob
        that is not a snapshot at all must not escape as whichever of
        pickle's own exception types the bytes happened to trip."""
        with pytest.raises(CheckpointError, match=names):
            NetworkSnapshot.loads(blob)

    def test_loads_of_a_truncated_snapshot_names_the_cause(self):
        data = snapshot_network(converged_net()).dumps()
        with pytest.raises(CheckpointError, match="truncated") as caught:
            NetworkSnapshot.loads(data[: len(data) // 2])
        assert isinstance(caught.value.__cause__, pickle.UnpicklingError)

    def test_schema_constant_matches(self):
        assert snapshot_network(converged_net()).schema == SNAPSHOT_SCHEMA


class TestTelemetryRebinding:
    def test_restore_binds_current_backend(self):
        """A snapshot taken without telemetry restores under an enabled
        backend and emits from the restored components."""
        from repro import telemetry

        snapshot = snapshot_network(converged_net())
        tracer = telemetry.TraceRecorder()
        with telemetry.using(telemetry.Telemetry(tracer=tracer)):
            clone = restore_network(snapshot)
            clone.withdraw("r0", PFX)
            clone.converge()
        from repro.telemetry.trace import BgpUpdateSent, RootCause

        assert any(isinstance(e, RootCause) for e in tracer.events)
        assert any(isinstance(e, BgpUpdateSent) for e in tracer.events)


class TestDocumentedLayout:
    """docs/checkpoint.md's layout table names every field a snapshot
    holds, and only those, in their order."""

    @staticmethod
    def documented(holder: str) -> list[str]:
        """The field column of the table rows held in ``holder``."""
        names = []
        for line in (ROOT / "docs" / "checkpoint.md").read_text().splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if line.lstrip().startswith("|") and len(cells) == 3 and cells[0] == holder:
                names.append(cells[1].strip("`"))
        return names

    @pytest.mark.parametrize("cls", [NetworkSnapshot, RouterState])
    def test_every_field_is_in_the_layout_table(self, cls):
        assert self.documented(f"`{cls.__name__}`") == [
            field.name for field in dataclasses.fields(cls)
        ]

    def test_the_transfer_tuple_is_in_the_layout_table(self):
        """Each documented name is the session attribute the tuple holds
        at that position (a set as its sorted tuple)."""
        session = converged_net().router("r1").sessions["r2"]
        assert session.advertised and session.mrai and session._last_delivery
        values = [getattr(session, name) for name in self.documented("transfer tuple")]
        assert tuple(
            tuple(sorted(value)) if isinstance(value, set) else value for value in values
        ) == session.transfer_state()
