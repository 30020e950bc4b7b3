"""Shared fixtures.

Heavy artefacts (the default topology, deployments, catchments) are
session-scoped: they are deterministic for a fixed seed, and many test
modules only read them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.route import Route, Update
from repro.bgp.session import SessionTiming
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.testbed import build_deployment

from tests.stream_oracle import LoopStream


#: Timing with no pacing and negligible jitter: logic tests that assert
#: routing outcomes (not timing) converge in a handful of simulated
#: seconds with this.
FAST_TIMING = SessionTiming(latency=0.01, jitter=0.0, mrai=0.0, busy_prob=0.0)

#: A small but structurally complete topology for integration tests.
SMALL_PARAMS = TopologyParams(
    seed=7,
    n_tier1=4,
    n_transit_per_region=2,
    n_regional_per_region=1,
    n_eyeball_per_region=6,
    n_stub_per_region=1,
    n_university_per_region=2,
    n_re_backbone=2,
    n_hypergiant=2,
    transit_providers=2,
)


def heard(sender, prefix, as_path, origin_node="x", med=0) -> Route:
    """A route as ``sender`` advertises it. LOCAL_PREF 0: whoever imports
    it assigns its own (``repro.bgp.policy.imported``)."""
    return Route(prefix, tuple(as_path), sender, 0, origin_node, med)


def announcement(sender, prefix, as_path, origin_node="x", med=0) -> Update:
    return Update(sender, prefix, heard(sender, prefix, as_path, origin_node, med), 0)


def withdrawal(sender, prefix) -> Update:
    return Update(sender, prefix, None, 0)


def counter_values(telemetry) -> dict[str, int]:
    """A live telemetry's counters, name -> value."""
    return {name: counter.value for name, counter in telemetry.counters.items()}


def web_clients(topology, count: int) -> list[str]:
    """The first ``count`` web-client AS nodes: the head of a scenario
    runner's default target set."""
    return [info.node_id for info in topology.web_client_ases()[:count]]


def install_fib(network, node, prefix, next_hop) -> None:
    """Point ``node``'s FIB entry for ``prefix`` at ``next_hop`` (``node``
    itself: delivered there; None: no entry) the way the router does --
    through its Loc-RIB and ``_install_fib``, the one FIB write that bumps
    ``route_version`` and re-walks the packets in the air. A bare
    ``fib.insert`` would leave both stale."""
    router = network.router(node)
    if next_hop is None:
        router.loc_rib.pop(prefix, None)
    else:
        learned_from = None if next_hop == node else next_hop
        router.loc_rib[prefix] = Route(prefix, (), learned_from, 0, node)
    router._install_fib(prefix)


@pytest.fixture(scope="session")
def small_topology():
    return generate_topology(SMALL_PARAMS)


@pytest.fixture(scope="session")
def deployment():
    """Default-size deployment with the eight paper sites."""
    return build_deployment()


@pytest.fixture(scope="session")
def topology(deployment):
    return deployment.topology


@pytest.fixture()
def fast_timing():
    return FAST_TIMING


@pytest.fixture()
def loop_stream(monkeypatch):
    """Workload engines draw their requests from the per-candidate loop
    (``tests/stream_oracle.py``), so a record taken on that stream
    replays value for value."""
    monkeypatch.setattr("repro.workload.engine.RequestStream", LoopStream)


def build_line_network(n: int, seed: int = 0, timing: SessionTiming | None = None) -> BgpNetwork:
    """A provider chain r0 <- r1 <- ... (r_{i+1} is r_i's provider)."""
    net = BgpNetwork(seed=seed, default_timing=timing or FAST_TIMING)
    for i in range(n):
        net.add_router(f"r{i}", 100 + i)
    for i in range(n - 1):
        net.connect(f"r{i}", f"r{i + 1}", Relationship.PROVIDER)
    return net


def hand_chunk(engine, arrivals):
    """A hand-made stream chunk for ``engine``: ``arrivals`` is a list of
    ⟨t, client node id⟩ in arrival order; returns the ⟨times, client
    indices⟩ arrays ``RequestStream.batches()`` would yield. Feed it by
    patching ``batches`` before ``engine.start``, or hand it straight to
    ``engine._book``."""
    times = np.array([t for t, _ in arrivals], dtype=np.float64)
    clients = np.array([engine.clients.index(c) for _, c in arrivals], dtype=np.intp)
    return times, clients
