"""Tests for the Figure-1 announcement behaviour of each technique."""

import pytest

from repro.core.controller import CdnController
from repro.core.plan import apply_plan
from repro.core.techniques import (
    TECHNIQUES,
    Anycast,
    Combined,
    ProactivePrepending,
    ProactiveSuperprefix,
    ReactiveAnycast,
    ShedDns,
    ShedPrepend,
    ShedWithdraw,
    Technique,
    Unicast,
    technique_by_name,
)
from repro.topology.testbed import SPECIFIC_PREFIX, SUPERPREFIX

from tests.conftest import FAST_TIMING


@pytest.fixture()
def setup(deployment):
    net = deployment.topology.build_network(seed=2, timing=FAST_TIMING)
    return deployment, net


def originated(net, deployment, site):
    return set(net.router(deployment.site_node(site)).originated_prefixes())


def deploy(technique: Technique, deployment, net, site="sea1"):
    apply_plan(net, technique.originations(deployment, site))
    net.converge()


P24, P23 = SPECIFIC_PREFIX, SUPERPREFIX
_ANYCAST_ROWS = (
    [("specific", P24, 0, None), ("other", P24, 0, None)],
    [("other", P24, 0, None)],
)
#: Figure 1 (the repro.core.techniques docstring), literally: technique
#: -> (normal rows, rows once the specific site is down); a row is
#: ⟨site role, prefix, prepend, MED⟩ and MED None means "unset"
FIGURE_1 = {
    "unicast": ([("specific", P24, 0, None)], []),
    "anycast": _ANYCAST_ROWS,
    "proactive-superprefix": (
        [("specific", P24, 0, None), ("specific", P23, 0, None), ("other", P23, 0, None)],
        [("other", P23, 0, None)],
    ),
    "reactive-anycast": ([("specific", P24, 0, None)], [("other", P24, 0, None)]),
    "proactive-prepending-3": (
        [("specific", P24, 0, None), ("other", P24, 3, None)],
        [("other", P24, 3, None)],
    ),
    "proactive-med-100": (
        [("specific", P24, 0, 0), ("other", P24, 0, 100)],
        [("other", P24, 0, 100)],
    ),
    "combined": (
        [("specific", P24, 0, None), ("specific", P23, 0, None), ("other", P23, 0, None)],
        [("other", P23, 0, None), ("other", P24, 0, None)],
    ),
    "shed-prepend-5": _ANYCAST_ROWS,
    "shed-withdraw": (
        [("specific", P24, 0, None), ("specific", P23, 0, None),
         ("other", P24, 0, None), ("other", P23, 0, None)],
        [("other", P24, 0, None), ("other", P23, 0, None)],
    ),
    "shed-dns": _ANYCAST_ROWS,
}


class TestFigure1GoldenTable:
    """Every registered technique x every testbed site against the
    literal matrix above."""

    @staticmethod
    def rows_by_site(deployment, plan):
        rows = {site: set() for site in deployment.site_names}
        for o in plan:
            assert o.neighbors is None
            rows[deployment.site_of_node(o.node)].add((o.prefix, o.prepend, o.med))
        return rows

    @pytest.mark.parametrize("factory", TECHNIQUES.values())
    def test_plans_equal_figure_1(self, deployment, factory):
        technique = factory()
        for specific in deployment.site_names:
            plans = (
                technique.originations(deployment, specific),
                technique.originations(deployment, specific, down={specific}),
            )
            for expected, plan in zip(FIGURE_1[technique.name], plans):
                assert len(set(plan)) == len(plan)
                assert self.rows_by_site(deployment, plan) == {
                    site: {
                        row[1:] for row in expected
                        if (row[0] == "specific") == (site == specific)
                    }
                    for site in deployment.site_names
                }, (technique.name, specific)

    def test_table_covers_the_registry(self):
        assert set(FIGURE_1) == {factory().name for factory in TECHNIQUES.values()}


class TestNormalOperationAnnouncements:
    """Each row of Figure 1, 'before specific site fails' column."""

    def test_unicast(self, setup):
        dep, net = setup
        deploy(Unicast(), dep, net)
        assert originated(net, dep, "sea1") == {SPECIFIC_PREFIX}
        assert originated(net, dep, "ams") == set()

    def test_anycast(self, setup):
        dep, net = setup
        deploy(Anycast(), dep, net)
        for site in dep.site_names:
            assert originated(net, dep, site) == {SPECIFIC_PREFIX}

    def test_proactive_superprefix(self, setup):
        dep, net = setup
        deploy(ProactiveSuperprefix(), dep, net)
        assert originated(net, dep, "sea1") == {SPECIFIC_PREFIX, SUPERPREFIX}
        assert originated(net, dep, "ams") == {SUPERPREFIX}

    def test_reactive_anycast_before_failure(self, setup):
        dep, net = setup
        deploy(ReactiveAnycast(), dep, net)
        assert originated(net, dep, "sea1") == {SPECIFIC_PREFIX}
        assert originated(net, dep, "ams") == set()

    def test_proactive_prepending(self, setup):
        dep, net = setup
        deploy(ProactivePrepending(3), dep, net)
        specific = net.router(dep.site_node("sea1"))
        assert specific.origins.get(SPECIFIC_PREFIX).prepend == 0
        other = net.router(dep.site_node("ams"))
        assert other.origins.get(SPECIFIC_PREFIX).prepend == 3

    def test_combined(self, setup):
        dep, net = setup
        deploy(Combined(), dep, net)
        assert originated(net, dep, "sea1") == {SPECIFIC_PREFIX, SUPERPREFIX}
        assert originated(net, dep, "ams") == {SUPERPREFIX}


class TestFailureReactions:
    """'After specific site fails' column of Figure 1."""

    def run_failure(self, technique, dep, net, site="sea1"):
        deploy(technique, dep, net, site)
        net.withdraw_all(dep.site_node(site))
        apply_plan(net, technique.originations(dep, site, down={site}))
        net.converge()

    def test_reactive_anycast_announces_everywhere(self, setup):
        dep, net = setup
        self.run_failure(ReactiveAnycast(), dep, net)
        assert originated(net, dep, "sea1") == set()
        for site in dep.site_names:
            if site != "sea1":
                assert SPECIFIC_PREFIX in originated(net, dep, site)

    def test_passive_techniques_do_nothing_new(self, setup):
        dep, _ = setup
        failed = dep.site_node("sea1")
        for technique in (Unicast(), Anycast(), ProactiveSuperprefix(), ProactivePrepending(3)):
            survivors = [o for o in technique.originations(dep, "sea1") if o.node != failed]
            assert list(technique.originations(dep, "sea1", down={"sea1"})) == survivors

    def test_combined_announces_specific_after_failure(self, setup):
        dep, net = setup
        self.run_failure(Combined(), dep, net)
        assert originated(net, dep, "ams") == {SUPERPREFIX, SPECIFIC_PREFIX}


class TestPrependedScopeRestriction:
    def test_restricted_announcement_scope(self, setup):
        """With the §4 refinement on, other sites export the prepended
        route only to neighbors shared with the specific site."""
        dep, net = setup
        technique = ProactivePrepending(3, restrict_to_shared_neighbors=True)
        deploy(technique, dep, net, "sea1")
        sea1_neighbors = set(net.neighbors(dep.site_node("sea1")))
        for site in dep.site_names:
            if site == "sea1":
                continue
            config = net.router(dep.site_node(site)).origins.get(SPECIFIC_PREFIX)
            assert config.neighbors is not None
            assert config.neighbors <= sea1_neighbors


class TestTable2Attributes:
    def test_tradeoff_matrix_matches_paper(self):
        expected = {
            "proactive-prepending": ("medium", "high", "low"),
            "reactive-anycast": ("high", "high", "high"),
            "proactive-superprefix": ("high", "medium", "low"),
            "anycast": ("low", "high", "low"),
            "unicast": ("high", "low", "low"),
        }
        for name, (control, availability, risk) in expected.items():
            technique = technique_by_name(name)
            assert technique.tradeoff.control == control, name
            assert technique.tradeoff.availability == availability, name
            assert technique.tradeoff.risk == risk, name

    def test_full_control_flags(self):
        assert Unicast().full_control
        assert ReactiveAnycast().full_control
        assert ProactiveSuperprefix().full_control
        assert not Anycast().full_control
        assert not ProactivePrepending(3).full_control

    def test_anycast_selection_mode(self):
        assert Anycast().selection_mode == "anycast-catchment"
        assert Unicast().selection_mode == "beyond-anycast"


class TestShedTechniques:
    """The load-shedding family: announcement shape and overload reactions."""

    def fresh_net(self, deployment):
        return deployment.topology.build_network(seed=2, timing=FAST_TIMING)

    def controller(self, deployment, net, technique):
        controller = CdnController(
            network=net, deployment=deployment, technique=technique,
            prefix=SPECIFIC_PREFIX, superprefix=SUPERPREFIX, detection_delay=0.0,
        )
        controller.deploy("sea1")
        net.converge()
        return controller

    def overload(self, controller, site):
        controller.site_overloaded(site)
        controller.network.converge()  # the reaction runs off the engine

    @pytest.mark.parametrize("factory", TECHNIQUES.values())
    def test_base_plus_specific_matches_normal(self, deployment, factory):
        """Every registered technique x site, not only the shed family:
        checkpoint forking applies the derived base plan and then deploys
        the normal plan on top (re-originating the per-site delta); the
        origin tables must equal a cold deploy's exactly."""
        technique = factory()
        for site in deployment.site_names:
            normal = self.fresh_net(deployment)
            apply_plan(normal, technique.originations(deployment, site))
            forked = self.fresh_net(deployment)
            apply_plan(forked, technique.base_plan(deployment))
            apply_plan(forked, technique.originations(deployment, site))
            for name in deployment.site_names:
                node = deployment.site_node(name)
                assert (
                    normal.router(node).origins
                    == forked.router(node).origins
                ), (technique.name, site, name)

    def test_shed_prepend_reoriginates_with_prepend(self, setup):
        dep, net = setup
        controller = self.controller(dep, net, ShedPrepend(prepend=4))
        self.overload(controller, "msn")
        assert net.router(dep.site_node("msn")).origins.get(SPECIFIC_PREFIX).prepend == 4
        controller.site_overload_cleared("msn")
        assert net.router(dep.site_node("msn")).origins.get(SPECIFIC_PREFIX).prepend == 0

    def test_shed_withdraw_pulls_specific_keeps_cover(self, setup):
        dep, net = setup
        controller = self.controller(dep, net, ShedWithdraw())
        assert originated(net, dep, "msn") == {SPECIFIC_PREFIX, SUPERPREFIX}
        self.overload(controller, "msn")
        assert originated(net, dep, "msn") == {SUPERPREFIX}
        controller.site_overload_cleared("msn")
        assert originated(net, dep, "msn") == {SPECIFIC_PREFIX, SUPERPREFIX}

    def test_shed_dns_fraction_and_nudge(self, setup):
        dep, net = setup
        technique = ShedDns(fraction=0.4, prepend=1)
        assert technique.shed_dns_fraction == 0.4
        controller = self.controller(dep, net, technique)
        self.overload(controller, "msn")
        assert net.router(dep.site_node("msn")).origins.get(SPECIFIC_PREFIX).prepend == 1

    def test_passive_techniques_have_inert_overload_hooks(self, setup):
        dep, net = setup
        controller = self.controller(dep, net, Anycast())
        before = {s: dict(net.router(dep.site_node(s)).origins) for s in dep.site_names}
        self.overload(controller, "msn")
        after = {s: dict(net.router(dep.site_node(s)).origins) for s in dep.site_names}
        assert after == before

    def test_validation(self):
        with pytest.raises(ValueError):
            ShedPrepend(0)
        with pytest.raises(ValueError):
            ShedDns(fraction=0.0)
        with pytest.raises(ValueError):
            ShedDns(fraction=1.5)


class TestFactory:
    def test_all_registered(self):
        assert set(TECHNIQUES) == {
            "unicast", "anycast", "proactive-superprefix",
            "reactive-anycast", "proactive-prepending", "proactive-med",
            "combined", "shed-prepend", "shed-withdraw", "shed-dns",
        }

    def test_by_name_with_kwargs(self):
        technique = technique_by_name("proactive-prepending", prepend=5)
        assert technique.name == "proactive-prepending-5"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            technique_by_name("dns-only")

    def test_prepend_validation(self):
        with pytest.raises(ValueError):
            ProactivePrepending(0)
