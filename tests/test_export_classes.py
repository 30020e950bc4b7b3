"""Export policy runs once per relationship class, and every session still
hears what its own :meth:`BgpRouter.offer` says.

``BgpRouter._export`` evaluates ``policy.exported`` for the first session
of each relationship that passes split horizon and the origination's
neighbor scope, and sends that one route to the rest of the class. Held
here against the per-session ``offer`` on converged networks: the four
wide-matrix techniques (plain, MED and prepended origins, the covering
/23), scoped prepending, and scoped prepending with a scope that admits
some of each site's neighbors and not others -- before and after the
specific site withdraws.
"""

from dataclasses import replace

import pytest

from repro.bgp.session import DEFAULT_INTERNET_TIMING, Session
from repro.core.plan import apply_plan
from repro.core.techniques import ProactivePrepending, technique_by_name

SITE = "sea1"
SCOPED = ProactivePrepending(3, restrict_to_shared_neighbors=True)

#: case id -> (technique, whether to widen its empty scopes to every
#: other neighbor of the origin, so the scope check splits a class)
CASES = {
    name: (technique_by_name(name), False)
    for name in ("anycast", "proactive-med", "proactive-prepending", "proactive-superprefix")
}
CASES["scoped-prepending"] = (SCOPED, False)
CASES["partly-scoped-prepending"] = (SCOPED, True)


def assert_every_session_heard_its_offer(network, last_sent) -> int:
    """After convergence the last route each session was sent is the
    router's per-session offer of its Loc-RIB route, for every prefix.
    Returns how many of those offers are a route."""
    prefixes = {prefix for _, prefix in last_sent}
    offered = 0
    for router in network.routers.values():
        for session in router.sessions.values():
            for prefix in prefixes:
                offer = router.offer(session, prefix, router.loc_rib.get(prefix))
                assert last_sent.get((session, prefix)) == offer, (session.local, session.remote, prefix)
                offered += offer is not None
    return offered


@pytest.mark.parametrize("case", CASES)
def test_each_session_hears_its_own_offer(monkeypatch, deployment, case):
    last_sent = {}
    send = Session.send

    def recording_send(session, prefix, route, cause):
        last_sent[session, prefix] = route
        return send(session, prefix, route, cause)

    monkeypatch.setattr(Session, "send", recording_send)
    technique, widen = CASES[case]
    plan = technique.originations(deployment, SITE)
    if widen:
        adjacency = deployment.topology.adjacency
        plan = [
            o if o.neighbors is None
            else replace(o, neighbors=frozenset(sorted(adjacency[o.node])[::2]))
            for o in plan
        ]
        assert any(o.neighbors for o in plan)
    with deployment.topology.build_network(seed=3, timing=DEFAULT_INTERNET_TIMING) as network:
        apply_plan(network, plan)
        network.converge()
        assert assert_every_session_heard_its_offer(network, last_sent) > 0
        # Scoped backups reach nobody on this testbed (no two sites share
        # a neighbor), so after the withdrawal there may be nothing left.
        network.withdraw_all(deployment.site_node(SITE))
        network.converge()
        assert_every_session_heard_its_offer(network, last_sent)
