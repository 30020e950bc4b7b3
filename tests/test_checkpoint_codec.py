"""Tests for the quiescent-network snapshot/restore codec."""

import dataclasses
import pickle

import pytest

from repro.bgp.damping import DampingConfig, RouteDamping
from repro.bgp.engine import EventEngine
from repro.bgp.network import BgpNetwork
from repro.bgp.session import SessionTiming
from repro.checkpoint import (
    SNAPSHOT_SCHEMA,
    CheckpointError,
    NetworkSnapshot,
    NotQuiescentError,
    restore_network,
    snapshot_network,
)
from repro.net.addr import IPv4Prefix
from repro.net.lpm import LpmTable

from tests.conftest import build_line_network

PFX = IPv4Prefix.parse("184.164.244.0/24")
PFX2 = IPv4Prefix.parse("184.164.245.0/24")

#: Enough randomness to make divergence obvious: jitter, MRAI pacing,
#: busy sessions, heterogeneous effective MRAIs.
RICH_TIMING = SessionTiming(
    latency=0.05, jitter=0.5, mrai=5.0, busy_prob=0.3, mrai_sigma=0.5
)


def fingerprint(net: BgpNetwork) -> dict:
    """Everything that determines future behavior, as comparable data."""
    return {
        "now": net.now,
        "rng": net.rng.getstate(),
        "next_cause": net._next_cause,
        "routers": {
            name: {
                "loc_rib": dict(net.router(name).loc_rib),
                "adj_rib_in": {p: dict(h) for p, h in net.router(name).adj_rib_in.items()},
                "fib": sorted(net.router(name).fib.items()),
                "origins": dict(net.router(name).origins),
            }
            for name in net.routers
        },
        "sessions": {
            (local, remote): (
                session.mrai,
                session.epoch,
                sorted(session.advertised),
                session.closed,
            )
            for local in net.routers
            for remote, session in net.router(local).sessions.items()
        },
        "adjacency": net.adjacency,
    }


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

    def test_restored_fibs_are_the_snapshot_in_plain_tables(self):
        """Restore inserts RouterState.fib's pairs into each router's
        own table: no stand-in type, nothing deferred to first use."""
        net = converged_net()
        net.announce("r0", PFX.supernet())  # a second length under the /24
        net.converge()
        snapshot = snapshot_network(net)
        fork = restore_network(snapshot)
        assert [len(state.fib) for state in snapshot.routers] == [2, 2, 2, 2]
        for state in snapshot.routers:
            fib = fork.router(state.node_id).fib
            assert type(fib) is LpmTable
            assert tuple(sorted(fib.items())) == state.fib

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
