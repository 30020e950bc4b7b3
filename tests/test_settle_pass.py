"""The one rank-ordered pass and the one site -> client latency memo.

``topology/propagation.py::_settle`` carries offers as tuples read from
``SymbolicGraph.offer_tables`` and builds a ``Route`` only where a
caller needs one. It must settle every node on exactly the route the
pass it replaced picks (``tests/settle_oracle.py``: a ``Route`` per
offer, ``exported`` / ``imported`` per offer): for every single origin
on the testbed and on the benchmark's wide world, for every technique's
plan through ``solve_plan``, and on generated worlds whose plans carry
MED, prepending and scope.

``Topology.settled_latency`` is the one "latency of the settled path"
answer: target selection, ``SiteRttTable`` and the forwarding plane's
requests read it, and a set-up solves each client once and walks each
⟨site, client⟩ path once, however many config seeds and selection modes
ask.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.policy import Relationship
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import TECHNIQUES, technique_by_name
from repro.dataplane.forwarding import ForwardingPlane
from repro.measurement.hitlist import RTT_LIMIT_MS
from repro.measurement.performance import SiteRttTable
from repro.topology import propagation
from repro.topology.generator import Topology, TopologyParams, generate_topology
from repro.topology.geo import REGIONS
from repro.topology.propagation import SymbolicGraph, path_to, solve_plan
from repro.topology.testbed import SiteSpec, build_deployment, default_site_specs
from repro.verify import world_from_dict

from tests import settle_oracle
from tests.test_verify_reach import gao_rexford_worlds

#: the benchmark's wide parameter set (``bench/workloads.py``)
WIDE_PARAMS = TopologyParams(
    n_tier1=8, n_transit_per_region=5, n_regional_per_region=5,
    n_eyeball_per_region=24, n_stub_per_region=6, n_university_per_region=6,
    transit_providers=4, regional_providers=3,
)


def wide_deployment(seed: int):
    """The benchmark's wide world: the eight default sites plus one on
    each region's extra transits (22 sites, 357 ASes at seed 42)."""
    topology = generate_topology(replace(WIDE_PARAMS, seed=seed))
    specs = list(default_site_specs())
    for region in REGIONS:
        for i in (1, 2):
            node = f"tr-{region}-{i}"
            if node in topology.ases:
                specs.append(SiteSpec(name=f"x{region}{i}", region=region, providers=(node,)))
    return build_deployment(topology=topology, specs=specs)


WORLDS = [
    pytest.param(lambda: build_deployment(params=TopologyParams(seed=42)), id="testbed-42"),
    pytest.param(lambda: build_deployment(params=TopologyParams(seed=7)), id="testbed-7"),
    pytest.param(lambda: wide_deployment(42), id="wide-42"),
    pytest.param(lambda: wide_deployment(7), id="wide-7"),
]


def oracle_best(graph, table, originations, prefix):
    origins = {o.node: o for o in originations if o.prefix == prefix}
    return settle_oracle.settle(graph, table, origins, prefix)


class TestOneOrigin:
    @pytest.mark.parametrize("build", WORLDS)
    def test_every_single_origin_settles_as_the_oracle(self, build):
        """Every AS as the lone origin: the same route at every node,
        settled in the same order, and ``path_to``'s next hops read off
        it."""
        topology = build().topology
        graph = SymbolicGraph.from_topology(topology)
        table = settle_oracle.fanout(graph)
        origin = propagation._TO_EVERY_NEIGHBOR
        prefix = propagation._ANY_PREFIX
        for dest in topology.ases:
            settled = propagation._settle(graph, {dest: origin}, prefix)
            reference = settle_oracle.settle(graph, table, {dest: origin}, prefix)
            routes = {node: propagation._route(prefix, offer) for node, offer in settled.items()}
            assert list(routes.items()) == list(reference.items()), dest
            for node, route in reference.items():
                path = path_to(topology, node, dest)
                assert path[1:2] == ([route.learned_from] if node != dest else [])


def technique_roster():
    """Every registered technique, prepending at depths 3 and 5 and
    scoped to shared neighbors at 3."""
    roster = [technique_by_name(name) for name in sorted(TECHNIQUES)
              if name != "proactive-prepending"]
    roster += [technique_by_name("proactive-prepending", prepend=depth) for depth in (3, 5)]
    roster.append(technique_by_name(
        "proactive-prepending", prepend=3, restrict_to_shared_neighbors=True
    ))
    return roster


class TestPlans:
    @pytest.mark.parametrize("build", WORLDS[:3])
    def test_every_technique_plan_settles_as_the_oracle(self, build):
        """Every technique x site x ⟨normal, failed⟩ plan through
        ``solve_plan``: the best route at every node equals the oracle's."""
        deployment = build()
        graph = SymbolicGraph.from_topology(deployment.topology)
        table = settle_oracle.fanout(graph)
        solved: dict = {}
        for technique in technique_roster():
            for site in deployment.site_names:
                for down in ((), (site,)):
                    plan = technique.originations(deployment, site, down=down)
                    for prefix, result in solve_plan(graph, plan, solved).items():
                        last = {o.node: o for o in plan if o.prefix == prefix}.values()
                        assert result.best == oracle_best(graph, table, last, prefix), (
                            technique.name, site, down, prefix,
                        )

    def test_med_decides_a_tie_at_a_shared_neighbor(self, monkeypatch):
        """No testbed or wide site shares a neighbor with another, so
        ``proactive-med``'s MEDs never meet there. Two sites behind one
        provider do meet: their offers tie on rank, the MEDs differ, and
        the pass hands them to ``select_best``, which takes the lower
        MED over the lower sender."""
        world = world_from_dict({
            "ases": [
                {"node": "p", "asn": 100, "region": "us-east"},
                {"node": "c", "asn": 1001, "region": "us-east", "tags": ["web-clients"]},
            ],
            "links": [{"a": "p", "b": "c", "rel": "customer"}],
            "sites": [
                {"name": "a", "region": "us-east", "providers": ["p"]},
                {"name": "b", "region": "us-east", "providers": ["p"]},
            ],
        })
        graph = SymbolicGraph.from_topology(world.topology)
        plan = technique_by_name("proactive-med").originations(world.deployment, "b", down=())
        calls = []
        select_best = propagation.select_best
        monkeypatch.setattr(
            propagation, "select_best", lambda routes: calls.append(routes) or select_best(routes)
        )
        (prefix, result), = solve_plan(graph, plan, {}).items()
        assert len(calls) == 1 and len({route.med for route in calls[0]}) == 2
        assert result.best["p"].origin_node == result.best["c"].origin_node == "site:b"
        assert result.best == oracle_best(graph, settle_oracle.fanout(graph), plan, prefix)


@st.composite
def worlds_with_meds(draw):
    """A generated Gao-Rexford world and its plan plus transit
    originations, each with a drawn MED (None or 0-3) on top of its
    drawn prepend and scope."""
    document, plan, transit = draw(gao_rexford_worlds(with_preferences=False))
    meds = st.none() | st.integers(0, 3)
    return document, [replace(o, med=draw(meds)) for o in (*plan, *transit)]


class TestGeneratedWorlds:
    @settings(max_examples=150, deadline=None)
    @given(worlds_with_meds())
    def test_multi_origin_plans_settle_as_the_oracle(self, case):
        document, originations = case
        graph = SymbolicGraph.from_topology(world_from_dict(document).topology)
        table = settle_oracle.fanout(graph)
        for announced in (originations, *([o] for o in originations)):
            for prefix, result in solve_plan(graph, announced, {}).items():
                last = {o.node: o for o in announced if o.prefix == prefix}.values()
                assert result.best == oracle_best(graph, table, last, prefix), (announced, prefix)


def reference_latency(topology, src, dest):
    path = path_to(topology, src, dest)
    return None if path is None else topology.path_latency(path)


class TestLatencyMemo:
    def test_every_reader_agrees_with_the_settled_path(self):
        """On every testbed ⟨site, client⟩: the plane's request latency,
        the RTT table and the proximity filter all read twice the
        latency of ``path_to``'s path."""
        deployment = build_deployment()
        topology = deployment.topology
        clients = [info.node_id for info in topology.web_client_ases()]
        table = SiteRttTable(topology, deployment)
        with topology.build_network(seed=0) as network:
            plane = ForwardingPlane(network, topology)
            for site in deployment.site_names:
                node = deployment.site_node(site)
                for client in clients:
                    expected = reference_latency(topology, node, client)
                    assert plane.latency_to_client(node, client) == expected
                    rtt = None if expected is None else 2.0 * expected * 1000.0
                    assert table.rtt_ms(client, site) == rtt
        experiment = FailoverExperiment(topology, deployment, FailoverConfig())
        candidates = [entry.node for entry in experiment.hitlist.responsive_web_clients()]
        for site in deployment.site_names:
            node = deployment.site_node(site)
            nearby = [
                client for client in candidates
                if (latency := reference_latency(topology, node, client)) is not None
                and 2.0 * latency * 1000.0 <= RTT_LIMIT_MS
            ]
            selection = experiment.selection_for(site)
            assert selection.nearby == len(nearby)
            assert set(selection.targets.values()) <= set(nearby)

    def test_a_new_link_changes_the_memoised_answer(self):
        deployment = build_deployment()
        topology = deployment.topology
        site = deployment.site_node(deployment.site_names[0])
        client = max(
            (info.node_id for info in topology.web_client_ases()),
            key=lambda node: topology.settled_latency(site, node) or 0.0,
        )
        before = topology.settled_latency(site, client)
        topology.link(site, client, Relationship.PEER)
        after = topology.settled_latency(site, client)
        assert path_to(topology, site, client) == [site, client]
        assert after == topology.path_latency([site, client]) != before


class TestSetUpCounts:
    def test_a_two_seed_two_mode_set_up_solves_and_walks_each_pair_once(self, monkeypatch):
        """The benchmark's wide-fork set-up shape: two config seeds, both
        selection modes, every site. Exactly one one-origin solve per
        distinct client destination and one walk per ⟨site, client⟩,
        counted, not timed."""
        deployment = wide_deployment(42)
        topology = deployment.topology
        solves, walks = [], []
        settle, path_latency = propagation._settle, Topology.path_latency

        def counted_settle(graph, origins, prefix):
            if list(origins.values()) == [propagation._TO_EVERY_NEIGHBOR]:
                solves.extend(origins)
            return settle(graph, origins, prefix)

        def counted_walk(self, path):
            walks.append((path[0], path[-1]))
            return path_latency(self, path)

        monkeypatch.setattr(propagation, "_settle", counted_settle)
        monkeypatch.setattr(Topology, "path_latency", counted_walk)
        asked = set()
        for seed in (42, 43):
            experiment = FailoverExperiment(
                topology, deployment, FailoverConfig(seed=seed, targets_per_site=3)
            )
            for mode in ("beyond-anycast", "anycast-catchment"):
                for site in deployment.site_names:
                    experiment.selection_for(site, mode=mode)
            clients = [entry.node for entry in experiment.hitlist.responsive_web_clients()]
            asked |= {(deployment.site_node(site), c)
                      for site in deployment.site_names for c in clients}
        assert sorted(solves) == sorted({client for _, client in asked})
        assert len(walks) == len(set(walks))
        assert set(walks) == {
            (site, client) for site, client in asked if path_to(topology, site, client)
        }
