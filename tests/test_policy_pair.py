"""``policy.exported`` / ``imported`` / ``relayed`` against the code they
replaced (``tests/policy_oracle.py``: the parent's ``_build_export``, the
import half of ``receive``, ``propagate()``'s ``export()`` and import
block, and its ``valley_free_reach``, verbatim).

One generated case is one export over one session: a sender that either
originates the prefix (prepend, neighbor scope, MED) or learned it over
some relationship, a session of any relationship to a receiver whose ASN
may sit in the path, and -- for the symbolic engine -- a ``preferences``
override on the receiver. Both engines must get the oracle's fields out
of the same two calls.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bgp import router as bgp_router
from repro.bgp.policy import (
    LOCAL_ORIGIN_PREF,
    LOCAL_PREF,
    Relationship,
    exported,
    imported,
    relayed,
)
from repro.bgp.route import Route
from repro.core.plan import Origination
from repro.topology.propagation import SymbolicGraph, valley_free_reach
from repro.topology.testbed import SPECIFIC_PREFIX as PFX
from repro.verify import world_from_dict
from tests import policy_oracle as oracle
from tests.test_verify_reach import gao_rexford_worlds

ROUTED = (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER)
SENDER_ASN = 10
ASNS = st.integers(1, 6)  # small, so the receiver's ASN often is in the path


@st.composite
def exports(draw):
    """One ⟨selected route, origination config, session, receiver⟩ case."""
    export_over = draw(st.sampled_from(tuple(Relationship)))
    receiver_asn = draw(ASNS)
    case = {
        "export_over": export_over,
        "receiver_asn": receiver_asn,
        # the receiver's own view of the session; what `connect` builds
        # is the inverse, a hand-wired graph may hold anything
        "import_over": draw(st.sampled_from((export_over.inverse(), *Relationship))),
        "override": draw(st.none() | st.integers(50, 350)),
        "prepend": draw(st.integers(0, 5)),
        "scope": draw(st.sampled_from((None, frozenset({"r", "x"}), frozenset({"x"}), frozenset()))),
        "med": draw(st.sampled_from((None, 0, 0, 70))),
        "has_config": draw(st.booleans()),
    }
    if draw(st.booleans()):
        case["best"] = Route(PFX, (), None, LOCAL_ORIGIN_PREF, "s")
        case["learned_over"] = None
        case["has_config"] = case["has_config"] or draw(st.booleans())
    else:
        # split horizon: the route may have come from the very neighbor
        # the export is for, and then over that session's relationship
        via = draw(st.sampled_from(("l", "l", "r")))
        learned_over = draw(st.sampled_from(ROUTED))
        if via == "r":
            learned_over = export_over if export_over in ROUTED else learned_over
            case["export_over"] = export_over = learned_over
            case["import_over"] = export_over.inverse()
        path = tuple(draw(st.lists(ASNS, min_size=1, max_size=4)))
        case["best"] = Route(PFX, path, via, LOCAL_PREF[learned_over], "o", draw(st.sampled_from((0, 33))))
        case["learned_over"] = learned_over
    return case


def wire_fields(route: Route):
    return route.prefix, route.as_path, route.learned_from, route.origin_node, route.med


class TestTheEventEngine:
    """What ``BgpRouter._export`` / ``receive`` compute, against the
    parent's ``_build_export`` + the import half of ``receive``."""

    @settings(max_examples=600, deadline=None)
    @given(exports())
    def test_same_update_and_same_stored_route(self, case):
        best, export_over = case["best"], case["export_over"]
        med = case["med"] or 0  # OriginConfig has no "unset"
        sessions = {
            "l": oracle.StubSession("l", case["learned_over"] or Relationship.PEER),
            "r": oracle.StubSession("r", export_over),
        }
        has_config = case["has_config"]
        old = oracle.EventRouter(
            "s", SENDER_ASN, sessions,
            {PFX: oracle.OriginConfig(case["prepend"], case["scope"], med)} if has_config else {},
        )
        update = old._build_export(sessions["r"], PFX, best)

        config = bgp_router.OriginConfig(case["prepend"], case["scope"], med) if has_config else None
        via = sessions.get(best.learned_from)
        heard = exported(
            best, "s", SENDER_ASN, config, via.relationship if via else None, "r", export_over,
        )
        if isinstance(update, oracle.Withdrawal):
            assert heard is None
            return
        assert heard is not None
        assert wire_fields(heard) == (
            update.prefix, update.as_path, update.sender, update.origin_node, update.med
        )
        if export_over is Relationship.COLLECTOR:
            return  # a collector logs the path and stores nothing
        receiver = oracle.EventRouter(
            "r", case["receiver_asn"], {"s": oracle.StubSession("s", export_over.inverse())}, {}
        )
        stored = receiver.receive_import(update)
        kept = imported(heard, case["receiver_asn"], export_over.inverse())
        assert kept == stored
        if kept is not None:
            assert kept is heard  # an update is the route it carries

    def test_a_missing_route_is_nothing_to_hear(self):
        router = bgp_router.BgpRouter("s", SENDER_ASN)
        session = oracle.StubSession("r", Relationship.PEER)
        assert router.offer(session, PFX, None) is None


class TestTheSymbolicEngine:
    """The two calls ``propagate()`` makes per ⟨node, neighbor⟩, against
    its old nested ``export()`` and import block."""

    @settings(max_examples=600, deadline=None)
    @given(exports())
    def test_same_candidate(self, case):
        best = case["best"]
        graph = SymbolicGraph(
            asn={"s": SENDER_ASN, "l": 99, "r": case["receiver_asn"]},
            adjacency={
                "s": {"l": case["learned_over"] or Relationship.PEER, "r": case["export_over"]},
                "r": {"s": case["import_over"]},
                "l": {},
            },
            preferences={"r": {"s": case["override"]}} if case["override"] is not None else {},
        )
        origins = (
            {"s": Origination("s", PFX, case["prepend"], case["scope"], case["med"])}
            if case["has_config"] else {}
        )
        advertised = oracle.symbolic_export(graph, origins, {"s": best}, PFX, "s", "r")
        candidate = oracle.symbolic_import(graph, PFX, "r", "s", advertised)

        # propagate()'s lines, verbatim
        node, neighbor, route = "r", "s", best
        links = graph.adjacency[neighbor]
        heard = exported(
            route, neighbor, graph.asn[neighbor], origins.get(neighbor),
            links.get(route.learned_from), node, links[node],
        )
        kept = None
        if heard is not None:
            kept = imported(
                heard, graph.asn[node], graph.adjacency[node][neighbor],
                graph.preferences.get(node, {}).get(neighbor),
            )
        if advertised is None:
            assert heard is None
        else:
            assert wire_fields(heard) == wire_fields(advertised)
        assert kept == candidate


class TestReach:
    """``valley_free_reach`` over ``relayed`` equals the two-state BFS."""

    def test_relayed_is_the_pair_without_the_routes(self):
        """Every ⟨learned over, export over⟩: ``relayed`` says a route
        moves exactly when ``exported`` offers one and ``imported`` keeps
        it, and names the relationship the far end then learned it over."""
        for learned_over in (None, *ROUTED):
            for export_over in Relationship:
                best = (
                    Route(PFX, (), None, LOCAL_ORIGIN_PREF, "s") if learned_over is None
                    else Route(PFX, (7,), "l", LOCAL_PREF[learned_over], "o")
                )
                heard = exported(
                    best, "s", SENDER_ASN, bgp_router.OriginConfig(), learned_over, "r", export_over
                )
                kept = heard and imported(heard, 99, export_over.inverse())
                step = relayed(learned_over, export_over)
                assert (step is not None) == (kept is not None), (learned_over, export_over)
                if step is not None:
                    assert step is export_over.inverse()
                    assert kept.local_pref == LOCAL_PREF[step]

    @settings(max_examples=150, deadline=None)
    @given(gao_rexford_worlds(with_preferences=False))
    def test_same_reach_on_generated_worlds(self, case):
        document, plan, transit = case
        graph = SymbolicGraph.from_topology(world_from_dict(document).topology)
        for origination in (*plan, *transit):
            for scope in (origination.neighbors, None):
                assert valley_free_reach(graph, origination.node, scope) == (
                    oracle.valley_free_reach(graph, origination.node, scope)
                ), (origination, scope)

    def test_same_reach_on_the_testbed(self, deployment):
        graph = SymbolicGraph.from_topology(deployment.topology)
        for site in deployment.site_names:
            node = deployment.site_node(site)
            first = frozenset(sorted(graph.adjacency[node])[:1])
            for scope in (None, first, frozenset()):
                assert valley_free_reach(graph, node, scope) == (
                    oracle.valley_free_reach(graph, node, scope)
                )
