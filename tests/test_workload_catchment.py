"""The walk memo the workload reads its catchment from: correctness and
route-version invalidation (``ForwardingPlane.walk_from``)."""

from repro.core.controller import CdnController
from repro.core.techniques import ReactiveAnycast
from repro.dataplane.forwarding import ForwardingPlane, delivery_verdict
from repro.topology.testbed import PROBE_SOURCE, SPECIFIC_PREFIX, SUPERPREFIX

from tests.conftest import FAST_TIMING


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


class TestInvalidation:
    def test_every_version_bump_invalidates(self, deployment):
        """Property: any route_version move flushes the whole memo."""
        plane, _ = converged_plane(deployment)
        clients = [i.node_id for i in deployment.topology.web_client_ases()[:5]]
        for client in clients:
            plane.walk_from(client, PROBE_SOURCE)
        assert len(plane._memo) == len(clients)
        network = plane.network
        for step in range(1, 6):
            network.route_version += 1
            plane.walk_from(clients[0], PROBE_SOURCE)
            # The memo restarted from empty: only the one re-walked entry.
            assert len(plane._memo) == 1
            assert plane.invalidations == step
            for client in clients[1:]:
                plane.walk_from(client, PROBE_SOURCE)

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
