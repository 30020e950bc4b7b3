"""Property tests on randomly generated topologies.

These are the strongest correctness checks in the suite: for arbitrary
seeded Internet-like topologies, the dynamic BGP simulator must
converge, produce loop-free forwarding, respect valley-free export, and
agree with the settled single-origin answer.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bgp.policy import LOCAL_PREF
from repro.net.addr import IPv4Prefix
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.propagation import path_to
from repro.topology.relationships import AsClass

from tests.conftest import FAST_TIMING

PFX = IPv4Prefix.parse("184.164.244.0/24")

params_strategy = st.builds(
    TopologyParams,
    seed=st.integers(min_value=0, max_value=10_000),
    n_tier1=st.integers(min_value=3, max_value=6),
    n_transit_per_region=st.integers(min_value=1, max_value=3),
    n_regional_per_region=st.integers(min_value=0, max_value=2),
    n_eyeball_per_region=st.integers(min_value=2, max_value=6),
    n_university_per_region=st.integers(min_value=1, max_value=3),
    n_re_backbone=st.integers(min_value=2, max_value=3),
    n_hypergiant=st.integers(min_value=1, max_value=2),
)

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRandomTopologyProperties:
    @SETTINGS
    @given(params_strategy)
    def test_convergence_and_loop_freedom(self, params):
        """Announcing a prefix anywhere converges to loop-free
        forwarding: following FIB next hops always terminates."""
        topology = generate_topology(params)
        network = topology.build_network(seed=params.seed, timing=FAST_TIMING)
        origin = topology.web_client_ases()[0].node_id
        network.announce(origin, PFX)
        network.converge(max_seconds=3600.0)
        assert network.engine.pending == 0
        address = PFX.address(1)
        for node in network.nodes():
            hops = 0
            current = node
            while True:
                next_hop = network.next_hop(current, address)
                if next_hop is None or next_hop == current:
                    break
                current = next_hop
                hops += 1
                assert hops <= 64, f"forwarding loop from {node}"

    @SETTINGS
    @given(params_strategy)
    def test_dynamic_matches_static_solver(self, params):
        """Converged route class (the LOCAL_PREF of the next hop's
        relationship), AS-path length and next hop equal the one-origin
        solve's path at every AS."""
        topology = generate_topology(params)
        origin = topology.web_client_ases()[-1].node_id
        network = topology.build_network(seed=params.seed + 1, timing=FAST_TIMING)
        network.announce(origin, PFX)
        network.converge()
        for node in topology.ases:
            if node == origin:
                continue
            dynamic = network.router(node).best_route(PFX)
            path = path_to(topology, node, origin)
            if path is None:
                assert dynamic is None, node
                continue
            assert dynamic is not None, node
            assert len(dynamic.as_path) == len(path) - 1, node
            assert dynamic.learned_from == path[1], node
            assert dynamic.local_pref == LOCAL_PREF[topology.adjacency[node][path[1]]], node

    @SETTINGS
    @given(params_strategy)
    def test_withdrawal_always_cleans_up(self, params):
        """After withdrawing the only origin, no AS retains a route --
        path hunting always terminates with full removal."""
        topology = generate_topology(params)
        network = topology.build_network(seed=params.seed + 2, timing=FAST_TIMING)
        origin = topology.by_class(AsClass.HYPERGIANT)[0].node_id
        network.announce(origin, PFX)
        network.converge()
        network.withdraw(origin, PFX)
        network.converge()
        for node in network.nodes():
            assert network.router(node).best_route(PFX) is None, node

    @SETTINGS
    @given(params_strategy)
    def test_anycast_catchment_partition(self, params):
        """With several origins, every AS with a route maps to exactly
        one origin, and all origins that can win somewhere do."""
        topology = generate_topology(params)
        network = topology.build_network(seed=params.seed + 3, timing=FAST_TIMING)
        clients = topology.web_client_ases()
        origins = [clients[0].node_id, clients[len(clients) // 2].node_id]
        for origin in origins:
            network.announce(origin, PFX)
        network.converge()
        for node in network.nodes():
            route = network.router(node).best_route(PFX)
            assert route is not None, f"{node} lost reachability under anycast"
            assert route.origin_node in origins
