"""Symbolic propagation: engine unit tests and the agreement criterion.

The load-bearing test here is the matrix one: for every technique in the
Figure-2 roster and every choice of specific site, the symbolic fixed
point :func:`repro.verify.propagation.propagate` computes must assign
every web client to exactly the site the event simulation's converged
catchment assigns it. That equality is what licenses the verifier to
reason about plans without running the engine.
"""

import json
from pathlib import Path

import pytest

from repro.core.plan import apply_plan
from repro.core.techniques import technique_by_name
from repro.measurement.catchment import catchment_from_network
from repro.topology.generator import TopologyParams
from repro.topology.testbed import (
    SPECIFIC_PREFIX,
    SUPERPREFIX,
    build_deployment,
)
from repro.verify import (
    Origination,
    SymbolicGraph,
    ambiguous_ties,
    propagate,
    world_from_dict,
)

FIXTURES = Path(__file__).parent / "fixtures" / "verify"

#: the Figure 2 sweep roster (sweep_cmd.DEFAULT_TECHNIQUES)
MATRIX_TECHNIQUES = (
    "anycast",
    "reactive-anycast",
    "proactive-prepending",
    "proactive-superprefix",
    "combined",
)


def load_fixture_world(name: str):
    path = FIXTURES / f"{name}.json"
    return world_from_dict(json.loads(path.read_text()), source=str(path))


@pytest.fixture(scope="module")
def deployment():
    return build_deployment(params=TopologyParams(seed=42))


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

    def test_preference_override_changes_selection(self, clean_world):
        graph = SymbolicGraph.from_topology(
            clean_world.topology, {"c1": {"p1": 50}}
        )
        assert graph.local_pref("c1", "p1") == 50
        assert graph.local_pref("c2", "p2") == 100  # provider default

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
    """Symbolic fixed point == simulated catchment, across the matrix."""

    def test_every_technique_and_site_agrees(self, deployment):
        graph = SymbolicGraph.from_topology(deployment.topology)
        clients = [info.node_id for info in deployment.topology.web_client_ases()]
        mismatches = []
        for name in MATRIX_TECHNIQUES:
            technique = technique_by_name(name)
            for site in deployment.site_names:
                plan = technique.originations(
                    deployment, site, SPECIFIC_PREFIX, SUPERPREFIX
                )
                result = propagate(graph, plan, SPECIFIC_PREFIX)
                assert result.stable, f"{name}/{site} did not stabilize"
                symbolic = {
                    c: deployment.site_of_node(result.best[c].origin_node)
                    if c in result.best else None
                    for c in clients
                }
                network = deployment.topology.build_network(seed=0)
                apply_plan(network, plan)
                network.converge()
                simulated = catchment_from_network(
                    network, deployment, SPECIFIC_PREFIX, clients
                )
                wrong = [c for c in clients if symbolic[c] != simulated[c]]
                if wrong:
                    mismatches.append((name, site, wrong[:3]))
        assert not mismatches, mismatches
