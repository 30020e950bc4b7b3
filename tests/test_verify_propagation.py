"""Symbolic propagation: engine unit tests and the agreement criterion.

The load-bearing test here is the matrix one: for every registered
technique and every choice of specific site, the symbolic fixed point
(:func:`repro.topology.propagation.settled_catchment`) must assign every
web client to exactly the site the event simulation's converged Loc-RIBs
and its FIB walk assign it. That equality is what licenses the verifier
and the settled-catchment measurements to reason about plans without
running the engine.
"""

import json
from pathlib import Path

import pytest

from repro.core.plan import Origination, apply_plan
from repro.core.techniques import TECHNIQUES, technique_by_name
from repro.dataplane.forwarding import ForwardingPlane, delivery_verdict
from repro.measurement.catchment import catchment_from_network
from repro.topology.generator import TopologyParams
from repro.topology.propagation import (
    SymbolicGraph,
    ambiguous_ties,
    propagate,
    settled_catchment,
)
from repro.topology.static_routes import StaticRoutes
from repro.topology.testbed import PROBE_SOURCE, SPECIFIC_PREFIX, build_deployment
from repro.verify import world_from_dict

FIXTURES = Path(__file__).parent / "fixtures" / "verify"

#: the worlds the agreement matrix runs on: the 208-AS testbed at three
#: seeds, and the parameter set of the benchmark's wide topology (343
#: ASes with the eight default sites, 357 with the benchmark's 22)
WORLDS = (
    TopologyParams(seed=42),
    TopologyParams(seed=5),
    TopologyParams(seed=7),
    TopologyParams(
        seed=42, n_tier1=8, n_transit_per_region=5, n_regional_per_region=5,
        n_eyeball_per_region=24, n_stub_per_region=6, n_university_per_region=6,
        transit_providers=4, regional_providers=3,
    ),
)


def load_fixture_world(name: str):
    path = FIXTURES / f"{name}.json"
    return world_from_dict(json.loads(path.read_text()), source=str(path))


@pytest.fixture(scope="module")
def clean_world():
    return load_fixture_world("clean")


class TestPropagate:
    def test_fixed_point_reaches_clients(self, clean_world):
        graph = SymbolicGraph.from_topology(clean_world.topology)
        result = propagate(
            graph,
            [Origination(node="site:x", prefix=SPECIFIC_PREFIX)],
            SPECIFIC_PREFIX,
        )
        assert result.stable
        assert result.origin_of("c1") == "site:x"
        assert result.origin_of("c2") == "site:x"

    def test_prepend_lengthens_exported_path(self, clean_world):
        graph = SymbolicGraph.from_topology(clean_world.topology)
        plain = propagate(
            graph, [Origination(node="site:x", prefix=SPECIFIC_PREFIX)],
            SPECIFIC_PREFIX,
        )
        prepended = propagate(
            graph,
            [Origination(node="site:x", prefix=SPECIFIC_PREFIX, prepend=2)],
            SPECIFIC_PREFIX,
        )
        assert len(prepended.best["c1"].as_path) == len(plain.best["c1"].as_path) + 2

    def test_neighbor_scoping_limits_export(self, clean_world):
        graph = SymbolicGraph.from_topology(clean_world.topology)
        scoped = propagate(
            graph,
            [Origination(node="site:x", prefix=SPECIFIC_PREFIX,
                         neighbors=frozenset())],
            SPECIFIC_PREFIX,
        )
        assert scoped.stable
        # the origin holds its local route; nobody else hears it
        assert set(scoped.best) == {"site:x"}

    def test_carried_links_and_reached(self, clean_world):
        graph = SymbolicGraph.from_topology(clean_world.topology)
        result = propagate(
            graph, [Origination(node="site:x", prefix=SPECIFIC_PREFIX)],
            SPECIFIC_PREFIX,
        )
        assert frozenset(("site:x", "p1")) in result.carried_links()
        assert {"p1", "t1", "t2", "p2", "c1", "c2"} <= result.reached()

    def test_unknown_origin_node_raises(self, clean_world):
        graph = SymbolicGraph.from_topology(clean_world.topology)
        with pytest.raises(KeyError):
            propagate(
                graph, [Origination(node="nope", prefix=SPECIFIC_PREFIX)],
                SPECIFIC_PREFIX,
            )

    def test_dispute_wheel_is_detected_not_looped(self):
        world = load_fixture_world("bad_dispute_wheel")
        graph = SymbolicGraph.from_topology(world.topology, world.preferences)
        result = propagate(
            graph, [Origination(node="site:x", prefix=SPECIFIC_PREFIX)],
            SPECIFIC_PREFIX,
        )
        assert not result.stable
        assert set(result.oscillating) == {"w0", "w1", "w2"}

    def test_settled_catchment_refuses_an_oscillation(self, monkeypatch):
        """No stable state means no catchment to report: the caller gets
        the prefix and the oscillating nodes, not a snapshot of a flap."""
        world = load_fixture_world("bad_dispute_wheel")
        graph = SymbolicGraph.from_topology(world.topology, world.preferences)
        monkeypatch.setattr(SymbolicGraph, "from_topology", lambda topology: graph)
        plan = [Origination(node="site:x", prefix=SPECIFIC_PREFIX)]
        with pytest.raises(ValueError, match=r"184\.164\.244\.0/24 .*w0, w1, w2"):
            settled_catchment(world.deployment, plan)

    def test_preference_override_changes_selection(self, clean_world):
        graph = SymbolicGraph.from_topology(
            clean_world.topology, {"c1": {"p1": 50}}
        )
        result = propagate(
            graph, [Origination(node="site:x", prefix=SPECIFIC_PREFIX)],
            SPECIFIC_PREFIX,
        )
        assert result.candidates["c1"]["p1"].local_pref == 50
        assert result.candidates["c2"]["p2"].local_pref == 100  # provider default

    def test_ambiguous_ties_detects_final_tiebreak(self):
        world = load_fixture_world("bad_ambiguous")
        graph = SymbolicGraph.from_topology(world.topology)
        plan = world.techniques[0].originations(
            world.deployment, "x", world.prefix, world.superprefix
        )
        result = propagate(graph, plan, world.prefix)
        assert result.stable
        ties = ambiguous_ties(result, "c")
        assert len(ties) == 1
        assert ties[0].origin_node != result.best["c"].origin_node


class TestAgreementMatrix:
    """The differential guard the three catchment regimes rest on.

    Settled plans are answered by the symbolic fixed point, live runs by
    the FIB walk, and the simulator's Loc-RIBs are the reference both
    are held to: on a converged network all three must name the same
    site for every client, for every registered technique and specific
    site, before and after that site fails.
    """

    @staticmethod
    def simulated(deployment, plan, clients):
        """⟨Loc-RIB read, FIB-walk landing⟩ once ``plan`` has converged."""
        network = deployment.topology.build_network(seed=0)
        apply_plan(network, plan)
        network.converge()
        reads = [
            catchment_from_network(network, deployment, prefix, clients)
            for prefix in sorted({o.prefix for o in plan}, key=lambda p: -p.length)
        ]
        rib = {
            c: next((read[c] for read in reads if read[c] is not None), None)
            for c in clients
        }
        plane = ForwardingPlane(network, deployment.topology)
        fib = {
            c: delivery_verdict(plane.snapshot_path(c, PROBE_SOURCE), deployment)[0]
            for c in clients
        }
        return rib, fib

    def test_every_technique_and_site_agrees(self):
        mismatches = []
        for params in WORLDS:
            deployment = build_deployment(params=params)
            clients = [info.node_id for info in deployment.topology.web_client_ases()]
            #: many ⟨technique, site, state⟩ cells share a plan (anycast's
            #: ignores the site): simulate each distinct plan once
            checked: set[frozenset[Origination]] = set()
            for name in sorted(TECHNIQUES):
                technique = technique_by_name(name)
                for site in deployment.site_names:
                    for down in ((), (site,)):
                        plan = technique.originations(deployment, site, down=down)
                        if frozenset(plan) in checked:
                            continue
                        checked.add(frozenset(plan))
                        settled = settled_catchment(deployment, plan, clients)
                        rib, fib = self.simulated(deployment, plan, clients)
                        wrong = [c for c in clients if not settled[c] == rib[c] == fib[c]]
                        if wrong:
                            mismatches.append((params.seed, name, site, down, wrong[:3]))
        assert not mismatches, mismatches

    def test_closed_form_matches_single_origin_fixed_point(self):
        """The two static solvers that stay (``docs/architecture.md``):
        closed-form ``StaticRoutes`` and the symbolic fixed point pick
        the same next hop at every AS toward a single origin."""
        for params in (WORLDS[0], WORLDS[-1]):
            topology = build_deployment(params=params).topology
            graph = SymbolicGraph.from_topology(topology)
            destinations = [info.node_id for info in topology.web_client_ases()][::9][:12]
            assert len(destinations) >= 10
            for dest in destinations:
                static = StaticRoutes(topology, dest)
                result = propagate(graph, [Origination(dest, SPECIFIC_PREFIX)], SPECIFIC_PREFIX)
                assert result.stable
                for node in topology.ases:
                    route = static.route(node)
                    best = result.best.get(node)
                    if node == dest:
                        continue
                    assert (route.next_hop if route else None) == (
                        best.learned_from if best else None
                    ), (params.seed, dest, node)
