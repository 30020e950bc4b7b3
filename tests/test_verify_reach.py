"""VER203 / VER224 read one valley-free BFS: the differential against the
fixed point they replaced, and the gate's cost as exact counts.

``valley_free_reach`` answers "can this origination reach any client"
without selecting a best path. The reference is the parent's
``check_site_dark`` over one single-origin ``propagate`` per origination
(``tests/verify_oracle.py``): on Gao-Rexford worlds the two must give the
same verdict per ⟨site, prefix⟩, and under ``preferences`` overrides the
BFS may only reach *more* (``docs/static-analysis.md``, "Soundness
caveats").
"""

import functools
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core.plan import Origination
from repro.core.techniques import TECHNIQUES, ProactivePrepending, techniques_named
from repro.topology import propagation
from repro.topology.generator import generate_topology
from repro.topology.geo import REGIONS
from repro.topology.propagation import SymbolicGraph, propagate, spvp, valley_free_reach
from repro.topology.testbed import (
    SPECIFIC_PREFIX,
    SUPERPREFIX,
    SiteSpec,
    build_deployment,
    default_site_specs,
)
from repro.verify import VerifyWorld, plans, verify_world, world_from_dict
from repro.verify.world import DEFAULT_TECHNIQUE_NAMES
from tests import verify_oracle
from tests.test_verify_propagation import FIXTURES, WORLDS

WIDE_PARAMS = WORLDS[-1]
SEEDS = (42, 7, 5)
#: the fixtures ``load_world`` accepts (the rest are refused at load)
LOADABLE = sorted(
    path.stem for path in FIXTURES.glob("*.json") if not path.stem.startswith("malformed")
)


def wide_deployment(seed):
    """The benchmark's gate world (``bench/workloads.py``): the wide
    parameter set with the eight default sites plus one site on each
    region's two extra transits -- 357 ASes, 22 sites."""
    topology = generate_topology(replace(WIDE_PARAMS, seed=seed))
    specs = list(default_site_specs())
    for region in REGIONS:
        for i in (1, 2):
            if f"tr-{region}-{i}" in topology.ases:
                specs.append(SiteSpec(f"x{region}{i}", region, providers=(f"tr-{region}-{i}",)))
    return build_deployment(topology=topology, specs=specs)


def memo_reach(graph):
    return functools.cache(functools.partial(valley_free_reach, graph))


def dark_by_both(world, technique_name, plan):
    """⟨shipped findings, oracle findings⟩ of VER224 for one plan."""
    graph = SymbolicGraph.from_topology(world.topology, world.preferences)
    shipped = list(plans.check_site_dark(world, technique_name, plan, memo_reach(graph)))
    oracle = list(verify_oracle.check_site_dark(
        world, technique_name, plan, functools.partial(verify_oracle.fixed_point_alone, graph)
    ))
    return [f.format() for f in shipped], [f.format() for f in oracle]


# ----------------------------------------------------------------------
# Generated worlds


@st.composite
def gao_rexford_worlds(draw, with_preferences):
    """⟨world document, a plan of scoped / unscoped site originations,
    originations at transit ASes⟩. Provider edges only point from a lower-numbered AS to a
    higher one, so the customer hierarchy is acyclic; peer and collector
    edges are unconstrained; sites attach as ``build_deployment`` attaches
    them (providers and peers, no customers)."""
    n = draw(st.integers(3, 7))
    nodes = [f"n{i}" for i in range(n)]
    links = []
    for i in range(n):
        for j in range(i + 1, n):
            rel = draw(st.sampled_from((None, None, "customer", "customer", "peer", "collector")))
            if rel is not None:
                links.append({"a": nodes[i], "b": nodes[j], "rel": rel})
    clients = draw(st.sets(st.sampled_from(nodes), min_size=1))
    sites = []
    for index in range(draw(st.integers(1, 4))):
        providers = draw(st.sets(st.sampled_from(nodes), max_size=2))
        peers = draw(st.sets(st.sampled_from(nodes), max_size=2)) - providers
        sites.append({"name": f"s{index}", "providers": sorted(providers), "peers": sorted(peers)})
    document = {
        "ases": [
            {"node": node, "asn": 100 + i, "tags": ["web-clients"] if node in clients else []}
            for i, node in enumerate(nodes)
        ],
        "links": links,
        "sites": sites,
    }
    neighbors = {node: set() for node in nodes}
    for link in links:
        if link["rel"] != "collector":
            neighbors[link["a"]].add(link["b"])
            neighbors[link["b"]].add(link["a"])
    for site in sites:
        attached = neighbors[f"site:{site['name']}"] = {*site["providers"], *site["peers"]}
        for node in attached:
            neighbors[node].add(f"site:{site['name']}")
    if with_preferences:
        document["preferences"] = {
            node: {
                neighbor: draw(st.integers(50, 350))
                for neighbor in sorted(draw(st.sets(st.sampled_from(sorted(adjacent)))))
            }
            for node, adjacent in neighbors.items() if adjacent and not node.startswith("site:")
        }

    def origination(node, prefix):
        scope = draw(st.none() | st.sets(st.sampled_from(sorted(neighbors[node]) + ["n0"])))
        return Origination(
            node, prefix, draw(st.integers(0, 3)), None if scope is None else frozenset(scope)
        )

    plan = [
        origination(f"site:{site['name']}", prefix)
        for site in sites
        for prefix in sorted(draw(st.sets(st.sampled_from((SPECIFIC_PREFIX, SUPERPREFIX)), min_size=1)))
    ]
    #: announcements from ASes that have customers of their own, which no
    #: site has: a scoped one must not leak back out through its origin
    transit = [origination(node, SPECIFIC_PREFIX) for node in draw(st.sets(st.sampled_from(nodes)))]
    return document, plan, transit


class TestGeneratedWorlds:
    @settings(max_examples=150, deadline=None)
    @given(gao_rexford_worlds(with_preferences=False))
    def test_same_verdict_per_site_and_prefix(self, case):
        document, plan, transit = case
        world = world_from_dict(document)
        shipped, oracle = dark_by_both(world, "generated", plan)
        assert shipped == oracle
        graph = SymbolicGraph.from_topology(world.topology)
        for origination in (*plan, *transit):
            alone = verify_oracle.fixed_point_alone(graph, origination)
            reach = valley_free_reach(graph, origination.node, origination.neighbors)
            if origination.node.startswith("site:"):
                # sibling sites hear the route but refuse it: one ASN, so an AS-path loop
                reach = {n for n in reach if n == origination.node or not n.startswith("site:")}
            assert alone.stable and reach == set(alone.best), origination

    @settings(max_examples=150, deadline=None)
    @given(gao_rexford_worlds(with_preferences=False))
    def test_pass_matches_spvp(self, case):
        """The rank-ordered pass ``propagate`` runs without overrides
        against synchronous SPVP, called directly: the same best routes
        and Adj-RIB-In, for the whole plan with the transit
        announcements and for each origination alone."""
        document, plan, transit = case
        graph = SymbolicGraph.from_topology(world_from_dict(document).topology)
        originations = [*plan, *transit]
        for announced in (originations, *([o] for o in originations)):
            for prefix in sorted({o.prefix for o in announced}):
                settled = propagate(graph, announced, prefix)
                reference = spvp(graph, announced, prefix)
                assert reference.stable and settled.rounds == 0
                assert settled.best == reference.best, (announced, prefix)
                assert settled.candidates == reference.candidates, (announced, prefix)

    @settings(max_examples=150, deadline=None)
    @given(gao_rexford_worlds(with_preferences=True))
    def test_reach_bounds_the_fixed_point_under_overrides(self, case):
        """A preference override can make an AS select (and so export) a
        less exportable route than the one the BFS follows: the BFS is
        then an upper bound, never a lower one."""
        document, plan, transit = case
        world = world_from_dict(document)
        graph = SymbolicGraph.from_topology(world.topology, world.preferences)
        for origination in (*plan, *transit):
            alone = verify_oracle.fixed_point_alone(graph, origination)
            reach = valley_free_reach(graph, origination.node, origination.neighbors)
            assert reach >= set(alone.best), origination


class TestReachSemantics:
    """The mutations the differential must catch, as direct cases."""

    DOCUMENT = {
        "ases": [
            {"node": "up", "asn": 1}, {"node": "side", "asn": 2},
            {"node": "above-side", "asn": 3, "tags": ["web-clients"]},
            {"node": "below-side", "asn": 4, "tags": ["web-clients"]},
            {"node": "below-up", "asn": 5, "tags": ["web-clients"]},
            {"node": "top", "asn": 6},
        ],
        "links": [
            {"a": "top", "b": "up", "rel": "customer"},
            {"a": "above-side", "b": "side", "rel": "customer"},
            {"a": "side", "b": "below-side", "rel": "customer"},
            {"a": "up", "b": "below-up", "rel": "customer"},
        ],
        "sites": [{"name": "x", "providers": ["up"], "peers": ["side"]}],
    }

    @pytest.fixture(scope="class")
    def graph(self):
        return SymbolicGraph.from_topology(world_from_dict(self.DOCUMENT).topology)

    def test_a_peer_hop_ends_the_ascent(self, graph):
        reach = valley_free_reach(graph, "site:x", None)
        assert "below-side" in reach and "above-side" not in reach

    def test_the_scope_filters_the_first_hop_only(self, graph):
        assert valley_free_reach(graph, "site:x", frozenset()) == {"site:x"}
        assert valley_free_reach(graph, "site:x", frozenset({"side"})) == {
            "site:x", "side", "below-side",
        }
        assert valley_free_reach(graph, "site:x", frozenset({"up"})) == {
            "site:x", "up", "below-up", "top",
        }

    def test_the_scope_holds_when_the_route_comes_back_to_its_origin(self, graph):
        """``up`` announces to its provider only: what comes back down
        from ``top`` is its own route, which it does not hand its
        customers."""
        scoped = Origination("up", SPECIFIC_PREFIX, 0, frozenset({"top"}))
        reach = valley_free_reach(graph, "up", scoped.neighbors)
        assert reach == {"up", "top"}
        assert reach == set(verify_oracle.fixed_point_alone(graph, scoped).best)


# ----------------------------------------------------------------------
# Real inputs


def real_worlds():
    """⟨world builder, scoped originations its plans hold⟩."""
    for name in LOADABLE:
        yield pytest.param(
            lambda name=name: world_from_dict(
                json.loads((FIXTURES / f"{name}.json").read_text()), source=name
            ),
            0, id=f"fixture-{name}",
        )
    for seed in SEEDS:
        yield pytest.param(
            lambda seed=seed: VerifyWorld(
                build_deployment(params=replace(WORLDS[0], seed=seed)),
                techniques_named(sorted(TECHNIQUES)),
            ),
            0, id=f"testbed-{seed}",
        )
        yield pytest.param(
            lambda seed=seed: VerifyWorld(wide_deployment(seed), techniques_named(sorted(TECHNIQUES))),
            0, id=f"wide-{seed}",
        )
        yield pytest.param(
            lambda seed=seed: VerifyWorld(
                build_deployment(params=replace(WORLDS[0], seed=seed)),
                [ProactivePrepending(3, restrict_to_shared_neighbors=True)],
            ),
            8 * 7, id=f"scoped-prepending-{seed}",
        )


@pytest.mark.parametrize("build, scoped", real_worlds())
def test_real_worlds_keep_every_verdict(build, scoped):
    """Every technique × specific site of the world: shipped VER224 ==
    the per-origination fixed point (memoised here per origination, or
    the wide worlds alone would solve ~2000 of them)."""
    world = build()
    graph = SymbolicGraph.from_topology(world.topology, world.preferences)
    reach = memo_reach(graph)
    alone = functools.cache(functools.partial(verify_oracle.fixed_point_alone, graph))
    specifics = [world.specific_site] if world.specific_site else world.sites()
    seen_scoped = 0
    for technique in world.techniques:
        for specific in specifics:
            plan = technique.originations(
                world.deployment, specific, world.prefix, world.superprefix
            )
            seen_scoped += sum(o.neighbors is not None for o in plan)
            shipped = list(plans.check_site_dark(world, technique.name, plan, reach))
            oracle = list(verify_oracle.check_site_dark(world, technique.name, plan, alone))
            assert [f.format() for f in shipped] == [f.format() for f in oracle]
    assert seen_scoped == scoped


# ----------------------------------------------------------------------
# The gate's cost, as counts


class TestGateCost:
    """A check that drifts back onto per-origination fixed points fails
    here instead of costing the wide gate 1.6 s silently."""

    @staticmethod
    def gate(world, monkeypatch):
        """⟨verify.propagations, the ⟨prefix, participating originations⟩
        of every ``propagate`` call⟩ of one ``verify_world(world)``."""
        calls = []
        real = propagation.propagate

        def counting(graph, originations, prefix):
            originations = list(originations)
            calls.append((prefix, frozenset(o for o in originations if o.prefix == prefix)))
            return real(graph, originations, prefix)

        monkeypatch.setattr(propagation, "propagate", counting)
        tel = telemetry.Telemetry()
        with telemetry.using(tel):
            verify_world(world)
        return tel.counters["verify.propagations"].value, calls

    @staticmethod
    def planned(world, failed):
        """The ⟨prefix, originations⟩ the world's techniques plan (and,
        with ``failed``, re-plan once the specific site is down)."""
        specific = world.chosen_specific_site()
        keys = set()
        for technique in world.techniques:
            for down in ((), (specific,)) if failed else ((),):
                plan = technique.originations(
                    world.deployment, specific, world.prefix, world.superprefix, down=set(down)
                )
                for prefix in {o.prefix for o in plan}:
                    keys.add((prefix, frozenset(o for o in plan if o.prefix == prefix)))
        return keys

    @pytest.mark.parametrize("build, expected", [
        pytest.param(lambda: VerifyWorld(build_deployment(), techniques_named(DEFAULT_TECHNIQUE_NAMES)),
                     4, id="testbed-verify-roster"),
        pytest.param(lambda: VerifyWorld(build_deployment(), techniques_named((
            "anycast", "reactive-anycast", "proactive-prepending",
            "proactive-superprefix", "combined"))), 4, id="testbed-compare-roster"),
        pytest.param(lambda: VerifyWorld(wide_deployment(42), techniques_named((
            "anycast", "proactive-med", "proactive-prepending", "proactive-superprefix"))),
            5, id="wide-benchmark-roster"),
    ])
    def test_one_fixed_point_per_distinct_planned_prefix(self, build, expected, monkeypatch):
        world = build()
        propagations, calls = self.gate(world, monkeypatch)
        assert propagations == len(calls) == expected
        assert sorted(calls, key=repr) == sorted(self.planned(world, failed=False), key=repr)

    def test_failure_plans_are_solved_only_for_a_timeline(self, monkeypatch):
        from repro.faults import load_fault_plan, timeline

        plan = load_fault_plan(Path(__file__).parent.parent / "examples" / "faultplan.json")
        world = VerifyWorld(
            build_deployment(), techniques_named(DEFAULT_TECHNIQUE_NAMES), timeline=timeline(plan)
        )
        propagations, calls = self.gate(world, monkeypatch)
        assert propagations == len(calls) == 7
        assert sorted(calls, key=repr) == sorted(self.planned(world, failed=True), key=repr)
