"""The flight against the hop-event chain it replaced.

* differential: on small generated graphs with random float latencies,
  some distributed ASes, FIB writes through the router at random times
  and forwards interleaved at random times and departure delays, the
  flight plane's results, their completion order and its drop log equal
  those of the event-per-hop plane kept in ``tests/forwarding_oracle.py``,
  and ``snapshot_path`` agrees after every write;
* the same for whole runs: a forked cell probed by the flight prober
  traces the very events, records the very probes, of the hop-chain
  prober;
* ``snapshot_path`` keeps the parent's answer where the stable-loop rule
  and the hop limit meet.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.bgp.policy import Relationship
from repro.core import rig as rig_module
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.rig import RunRig
from repro.core.techniques import ReactiveAnycast
from repro.dataplane.forwarding import MAX_HOPS, ForwardingPlane
from repro.dataplane.ping import Prober
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.topology.generator import Topology, TopologyParams
from repro.topology.geo import Location
from repro.topology.relationships import AsClass, AsInfo

from tests.conftest import FAST_TIMING, install_fib
from tests.forwarding_oracle import HopChainPlane, HopChainProber, forward_after

PFX = IPv4Prefix.parse("184.164.244.0/24")
ADDR = IPv4Address.parse("184.164.244.10")


class RecordingHopChainPlane(HopChainPlane):
    """The oracle, noting the instant of every hop it takes."""

    def __init__(self, network, topology) -> None:
        super().__init__(network, topology)
        self.hop_times: set[float] = set()

    def _hop(self, dst, node, *rest) -> None:
        self.hop_times.add(self.network.engine.now)
        super()._hop(dst, node, *rest)


@st.composite
def worlds(draw):
    """⟨topology, FIB writes, forwards⟩: writes are ⟨time, node, choice⟩
    (choice picks None, the node itself or a neighbour), forwards
    ⟨time, start node, departure delay⟩."""
    n = draw(st.integers(2, 6))
    nodes = [f"n{i}" for i in range(n)]
    topology = Topology(params=TopologyParams())
    coordinate = st.floats(0.0, 3000.0, allow_nan=False)
    for i, node in enumerate(nodes):
        as_class = AsClass.TIER1 if draw(st.booleans()) else AsClass.TRANSIT
        location = Location("us-west", draw(coordinate), draw(coordinate))
        topology.add_as(AsInfo(node, 100 + i, as_class, location))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        topology.link(a, b, Relationship.PEER)
    # Hops take 1-22 ms here: writes and sends within a few hops of each
    # other, so that writes land on flights in the air.
    time = st.floats(0.0, 0.04, allow_nan=False)
    node = st.sampled_from(nodes)
    choice = st.integers(0, n)
    initial = draw(st.lists(st.tuples(node, choice), max_size=2 * n))
    writes = draw(st.lists(st.tuples(time, node, choice), max_size=12))
    delay = st.floats(0.0, 0.02, allow_nan=False)
    forwards = draw(st.lists(st.tuples(time, node, delay), min_size=1, max_size=10))
    return topology, initial, writes, forwards


def _write(network, topology, node, choice) -> None:
    options = [None, node, *sorted(topology.neighbors(node))]
    install_fib(network, node, PFX, options[choice % len(options)])


class TestAgainstTheHopChain:
    @settings(max_examples=300, deadline=None)
    @given(worlds())
    def test_results_order_and_drops_equal_the_oracle(self, world):
        topology, initial, writes, forwards = world
        network = topology.build_network(seed=0, timing=FAST_TIMING)
        for node, choice in initial:
            _write(network, topology, node, choice)
        plane = ForwardingPlane(network, topology)
        oracle = RecordingHopChainPlane(network, topology)
        done: list[tuple[int, object]] = []
        expected: list[tuple[int, object]] = []
        snapshots_agree = []

        def write(node, choice):
            _write(network, topology, node, choice)
            snapshots_agree.append(all(
                plane.snapshot_path(n, ADDR) == oracle.snapshot_path(n, ADDR)
                for n in topology.ases
            ))

        def send(index, start, delay):
            plane.forward(start, ADDR, lambda r: done.append((index, r)), delay=delay)
            forward_after(oracle, delay, start, ADDR, lambda r: expected.append((index, r)))

        for at, node, choice in writes:
            network.engine.schedule_at(at, lambda n=node, c=choice: write(n, c))
        departures = {}
        for index, (at, start, delay) in enumerate(forwards):
            departures[index] = (start, at + delay)
            network.engine.schedule_at(at, lambda i=index, s=start, d=delay: send(i, s, d))
        network.engine.run_until_idle()

        # The two designs order simultaneous events differently: the hop
        # chain by insertion, the flight by its tie rule (a hop at a
        # write's instant read the FIB before it). Generated ties prove
        # nothing about either, so they are not compared.
        assume(not oracle.hop_times & {at for at, _, _ in writes})
        at_instant: dict[float, set] = {}
        for index, result in expected:
            at_instant.setdefault(result.completed_at, set()).add(departures[index])
        assume(all(len(departures_then) == 1 for departures_then in at_instant.values()))

        assert len(expected) == len(forwards)
        assert done == expected
        assert list(plane.drops) == list(oracle.drops)
        assert plane.dropped_total == oracle.dropped_total
        assert all(snapshots_agree)
        assert not plane._flights and not network.on_route_change

    def test_snapshot_path_where_the_loop_rule_meets_the_hop_limit(self):
        """A stable loop closing on the last hop the TTL allows is a
        LOOP for the parent's ``next_hop in path`` and for the walk."""
        for length in (MAX_HOPS - 1, MAX_HOPS, MAX_HOPS + 1, MAX_HOPS + 2):
            topology = Topology(params=TopologyParams())
            nodes = [f"c{i}" for i in range(length)]
            for i, node in enumerate(nodes):
                topology.add_as(AsInfo(node, 100 + i, AsClass.TRANSIT, Location("eu", i, 0)))
            for a, b in zip(nodes, nodes[1:]):
                topology.link(a, b, Relationship.PROVIDER)
            network = topology.build_network(seed=0, timing=FAST_TIMING)
            for a, b in zip(nodes, nodes[1:]):
                install_fib(network, a, PFX, b)
            install_fib(network, nodes[-1], PFX, nodes[-2])  # and back
            plane = ForwardingPlane(network, topology)
            oracle = HopChainPlane(network, topology)
            assert plane.snapshot_path(nodes[0], ADDR) == oracle.snapshot_path(nodes[0], ADDR)


def _traced_cell(deployment, monkeypatch, plane_class, prober_class):
    monkeypatch.setattr(rig_module, "ForwardingPlane", plane_class)
    monkeypatch.setattr(rig_module, "Prober", prober_class)
    rigs = []

    class KeptRig(RunRig):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rigs.append(self)

    monkeypatch.setattr("repro.core.experiment.RunRig", KeptRig)
    recorder = telemetry.TraceRecorder()
    with telemetry.using(telemetry.Telemetry(tracer=recorder)):
        experiment = FailoverExperiment(
            deployment.topology, deployment,
            FailoverConfig(probe_duration=60.0, targets_per_site=40),
            use_checkpoint=True,
        )
        result = experiment.run_site(ReactiveAnycast(), "sea1")
    (rig,) = rigs
    # Host time is the one field allowed to differ.
    events = [
        replace(event, wall_s=0.0) if hasattr(event, "wall_s") else event
        for event in recorder.events
    ]
    return result, rig.prober.logs, events


def test_a_forked_cell_traces_what_the_hop_chain_traced(monkeypatch, deployment):
    """One reactive-anycast x sea1 cell, probed by each design: the same
    trace events in the same order (host wall times aside), the same
    probe records, the same outcomes."""
    flight = _traced_cell(deployment, monkeypatch, ForwardingPlane, Prober)
    chain = _traced_cell(deployment, monkeypatch, HopChainPlane, HopChainProber)
    assert flight[0].outcomes == chain[0].outcomes
    assert flight[1] == chain[1]
    assert flight[2] == chain[2]
