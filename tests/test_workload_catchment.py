"""The walk memo the workload reads its catchment from: correctness and
node-scoped invalidation (``ForwardingPlane.walk_from``)."""

import random

import pytest

from repro.checkpoint.codec import restore_network, rewind_network, snapshot_network
from repro.core.controller import CdnController
from repro.core.techniques import ReactiveAnycast
from repro.dataplane.forwarding import ForwardingPlane, delivery_verdict
from repro.topology.testbed import PROBE_SOURCE, SPECIFIC_PREFIX, SUPERPREFIX

from tests.conftest import FAST_TIMING, install_fib


def converged_plane(deployment, seed=5):
    network = deployment.topology.build_network(seed=seed, timing=FAST_TIMING)
    controller = CdnController(
        network=network,
        deployment=deployment,
        technique=ReactiveAnycast(),
        prefix=SPECIFIC_PREFIX,
        superprefix=SUPERPREFIX,
        detection_delay=1.0,
    )
    controller.deploy("sea1")
    network.converge()
    return ForwardingPlane(network, deployment.topology), controller


def landing_site(plane, deployment, client):
    walk = plane.walk_from(client, PROBE_SOURCE)
    return delivery_verdict(walk.delivered_to, walk.reason, deployment)[0]


class TestResolution:
    def test_matches_uncached_walk(self, deployment):
        plane, _ = converged_plane(deployment)
        for info in deployment.topology.web_client_ases()[:10]:
            walk = plane.walk_from(info.node_id, PROBE_SOURCE)
            path = [info.node_id]
            delivered_to, reason = plane._walk(PROBE_SOURCE, path, {})
            assert (walk.path, walk.delivered_to, walk.reason) == (
                tuple(path), delivered_to, reason
            )
            assert walk.latencies is None  # nothing has flown it

    def test_hot_path_is_cached(self, deployment):
        plane, _ = converged_plane(deployment)
        client = deployment.topology.web_client_ases()[0].node_id
        first = plane.walk_from(client, PROBE_SOURCE)
        assert plane.misses == 1
        for _ in range(100):
            assert plane.walk_from(client, PROBE_SOURCE) is first
        assert plane.misses == 1
        assert plane.hits == 100
        assert plane.invalidations == 0


def fresh_walk(plane, start):
    """⟨path, delivered node, drop reason⟩ of an un-memoised walk."""
    path = [start]
    delivered_to, reason = plane._walk(PROBE_SOURCE, path, {})
    return tuple(path), delivered_to, reason


def as_tuple(walk):
    return walk.path, walk.delivered_to, walk.reason


class TestInvalidation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_write_drops_exactly_the_walks_that_read_it(self, deployment, seed):
        """Over seeded random FIB writes: every entry left equals a fresh
        walk, and an entry whose path avoids the written node is the
        very object it was before."""
        plane, _ = converged_plane(deployment)
        network = plane.network
        rng = random.Random(seed)
        nodes = sorted(network.nodes())
        starts = rng.sample(nodes, 80)
        kept = dropped = 0
        for _ in range(60):
            for start in starts:
                plane.walk_from(start, PROBE_SOURCE)
            before = dict(plane._memo)
            node = rng.choice(nodes)
            prefix = rng.choice([SPECIFIC_PREFIX, SUPERPREFIX])
            install_fib(network, node, prefix, rng.choice(
                [None, node, *sorted(network.neighbors(node))]
            ))
            for key, walk in before.items():
                if node in walk.path:
                    assert key not in plane._memo
                    dropped += 1
                else:
                    assert plane._memo[key] is walk
                    kept += 1
            for (start, _), walk in plane._memo.items():
                assert as_tuple(walk) == fresh_walk(plane, start)
        assert kept and dropped  # both branches ran

    def test_a_write_off_every_path_drops_nothing(self, deployment):
        plane, _ = converged_plane(deployment)
        network = plane.network
        clients = [i.node_id for i in deployment.topology.web_client_ases()[:5]]
        walks = [plane.walk_from(client, PROBE_SOURCE) for client in clients]
        untouched = next(
            node for node in sorted(network.nodes())
            if all(node not in walk.path for walk in walks)
        )
        install_fib(network, untouched, SPECIFIC_PREFIX, None)
        assert [plane.walk_from(c, PROBE_SOURCE) for c in clients] == walks
        assert (plane.misses, plane.invalidations) == (len(clients), 0)

    def test_a_rewound_fork_never_serves_a_walk_from_before(self, deployment):
        """The fork is restored, walked, moved and walked again, then
        rewound: its plane answers from the rewound FIBs."""
        network = deployment.topology.build_network(seed=5, timing=FAST_TIMING)
        with network:
            network.announce("site:sea1", SPECIFIC_PREFIX)
            network.converge()
            snapshot = snapshot_network(network)
        with restore_network(snapshot) as fork:
            plane = ForwardingPlane(fork, deployment.topology)
            starts = sorted(fork.nodes())
            restored = {s: as_tuple(plane.walk_from(s, PROBE_SOURCE)) for s in starts}
            fork.withdraw_all("site:sea1")
            fork.converge()
            moved = {s: as_tuple(plane.walk_from(s, PROBE_SOURCE)) for s in starts}
            assert moved != restored
            rewind_network(fork, snapshot)
            rewound = {s: as_tuple(plane.walk_from(s, PROBE_SOURCE)) for s in starts}
            assert rewound == {s: fresh_walk(plane, s) for s in starts} == restored

    def test_fib_install_bumps_route_version(self, deployment):
        plane, controller = converged_plane(deployment)
        network = plane.network
        before = network.route_version
        assert before > 0  # convergence installed plenty of FIB entries
        controller.fail_site("sea1")
        network.converge()
        assert network.route_version > before

    def test_reroute_changes_cached_answer(self, deployment):
        plane, controller = converged_plane(deployment)
        # A client whose requests land at the deployed specific site.
        client = next(
            info.node_id
            for info in deployment.topology.web_client_ases()
            if landing_site(plane, deployment, info.node_id) == "sea1"
        )
        controller.fail_site("sea1")
        plane.network.converge()
        after = landing_site(plane, deployment, client)
        assert plane.invalidations >= 1
        assert after != "sea1"

    def test_stable_version_never_invalidates(self, deployment):
        plane, _ = converged_plane(deployment)
        clients = [i.node_id for i in deployment.topology.web_client_ases()[:8]]
        for _ in range(3):
            for client in clients:
                plane.walk_from(client, PROBE_SOURCE)
        assert plane.invalidations == 0
        assert plane.misses == len(clients)
