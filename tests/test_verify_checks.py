"""The VER2xx checks against the known-bad fixture worlds.

Each fixture under ``tests/fixtures/verify/`` exhibits exactly one
violation class; the parametrized test asserts the verifier reports
exactly that code and nothing else — catching both missed detections
and collateral false positives in one assertion.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bgp.damping import DampingConfig
from repro.core.techniques import techniques_named
from repro.faults import Action, Brownout, FaultPlan, timeline
from repro.topology.testbed import build_deployment
from repro.verify import (
    CHECKS,
    DEFAULT_TECHNIQUE_NAMES,
    all_checks,
    default_world,
    load_world,
    resolve_codes,
    verify_world,
    world_from_dict,
)
from repro.verify.disputes import max_suppression_seconds

FIXTURES = Path(__file__).parent / "fixtures" / "verify"

#: fixture stem -> the exact finding codes the verifier must report
EXPECTED = {
    "clean": frozenset(),
    "bad_gao_cycle": frozenset({"VER201"}),
    "bad_core_partition": frozenset({"VER202"}),
    "bad_client_unreachable": frozenset({"VER203"}),
    "bad_dispute_wheel": frozenset({"VER211"}),
    "bad_prepend": frozenset({"VER212"}),
    "bad_damping": frozenset({"VER213"}),
    "bad_dead_prefix": frozenset({"VER221"}),
    "bad_superprefix": frozenset({"VER222"}),
    "bad_ambiguous": frozenset({"VER223"}),
    "bad_site_dark": frozenset({"VER224"}),
    "bad_fault_unknown": frozenset({"VER231"}),
    "bad_fault_vacuous": frozenset({"VER232"}),
    "bad_plan_vacuous": frozenset({"VER233"}),
    "bad_over_capacity": frozenset({"VER241"}),
    "bad_capacity_unknown": frozenset({"VER242"}),
    "bad_capacity_vacuous": frozenset({"VER243"}),
}


def test_fixture_set_covers_every_check():
    covered = frozenset().union(*EXPECTED.values())
    assert covered == frozenset(CHECKS), "add a fixture for each new check"


def test_no_stray_fixtures():
    """Every fixture is a verdict pinned above or a ``malformed_*``
    document that does not load (``tests/test_fields.py`` runs those)."""
    stems = {path.stem for path in FIXTURES.glob("*.json")}
    assert {stem for stem in stems if not stem.startswith("malformed_")} == set(EXPECTED)


@pytest.mark.parametrize("stem", sorted(EXPECTED))
def test_fixture_reports_exactly_its_codes(stem):
    world = load_world(FIXTURES / f"{stem}.json")
    report = verify_world(world)
    assert {f.code for f in report.findings} == EXPECTED[stem]


def test_findings_carry_fixture_path_as_source():
    path = FIXTURES / "bad_gao_cycle.json"
    report = verify_world(load_world(path))
    assert all(f.source == str(path) for f in report.findings)


def test_blocking_semantics_follow_severity():
    errors = verify_world(load_world(FIXTURES / "bad_gao_cycle.json"))
    warnings = verify_world(load_world(FIXTURES / "bad_damping.json"))
    assert not errors.ok
    assert warnings.ok and warnings.findings


class TestProfiles:
    def test_strict_only_checks_silent_without_opt_in(self):
        data = json.loads((FIXTURES / "bad_ambiguous.json").read_text())
        data["strict"] = False
        report = verify_world(world_from_dict(data))
        assert report.findings == []

    def test_caller_strict_overrides_world(self):
        data = json.loads((FIXTURES / "bad_ambiguous.json").read_text())
        data["strict"] = False
        report = verify_world(world_from_dict(data), strict=True)
        assert {f.code for f in report.findings} == {"VER223"}

    def test_ignore_mirrors_noqa(self):
        world = load_world(FIXTURES / "bad_gao_cycle.json")
        assert verify_world(world, ignore={"VER201"}).findings == []

    def test_select_keeps_only_requested(self):
        world = load_world(FIXTURES / "bad_gao_cycle.json")
        assert verify_world(world, select={"VER202"}).findings == []
        assert len(verify_world(world, select={"VER201"}).findings) == 1


@pytest.mark.parametrize("name", ["shed-prepend", "shed-dns"])
def test_prepend_check_reads_the_normal_plan(name):
    """VER212 is about the prepend the *normal* plan carries; the shed
    family prepends only as an overload reaction, so the bad_prepend
    world must come out clean under them."""
    data = json.loads((FIXTURES / "bad_prepend.json").read_text())
    data["technique"] = name
    del data["prepend"]
    assert "VER212" not in {f.code for f in verify_world(world_from_dict(data)).findings}


@pytest.mark.parametrize("name, superprefix, flagged", [
    pytest.param("proactive-superprefix", "184.164.244.0/24", True,
                 id="proactive-superprefix-equal"),
    pytest.param("combined", "184.164.244.0/24", True, id="combined-equal"),
    # shed-withdraw announces the /23 too: the check follows the plan
    pytest.param("shed-withdraw", "10.0.0.0/23", True, id="shed-withdraw-uncovered"),
    pytest.param("shed-withdraw", "184.164.244.0/24", True, id="shed-withdraw-equal"),
    # plans that never announce the superprefix have no geometry to get wrong
    pytest.param("anycast", "10.0.0.0/23", False, id="anycast-skipped"),
])
def test_superprefix_geometry_follows_the_plan(name, superprefix, flagged):
    """VER222 is the one statement of "the superprefix must strictly
    cover the specific prefix", for every plan that announces it."""
    data = json.loads((FIXTURES / "bad_superprefix.json").read_text())
    data["techniques"] = [name]
    data["superprefix"] = superprefix
    codes = {f.code for f in verify_world(world_from_dict(data)).findings}
    assert ("VER222" in codes) == flagged


class TestTimelineTargets:
    """VER231 / VER233 read every timeline entry, whichever way it was
    written (they cover what PRE101 / PRE104 said about ``-e`` only)."""

    def findings(self, **timeline_kwargs):
        world = replace(
            load_world(FIXTURES / "clean.json"),
            timeline=timeline(**timeline_kwargs), duration=100.0,
        )
        return [(f.code, f.message) for f in verify_world(world).findings]

    @pytest.mark.parametrize("written, label", [
        pytest.param({"plan": None, "events": [Action(10.0, "fail", "nosuch")]},
                     "scenario event (fail:nosuch@10)", id="event"),
        pytest.param({"plan": FaultPlan(faults=(
                         Brownout(at=10.0, site="nosuch", down_for=5.0),))},
                     "faults[0] (brownout)", id="plan-brownout"),
    ])
    def test_unknown_site_is_ver231_in_any_spelling(self, written, label):
        found = self.findings(**written)
        assert [code for code, _ in found] == ["VER231"]  # once per entry
        assert found[0][1].startswith(f"{label}: unknown site 'nosuch'")

    def test_known_site_is_clean(self):
        site = load_world(FIXTURES / "clean.json").sites()[0]
        assert self.findings(plan=None, events=[Action(10.0, "fail", site)]) == []

    def test_event_at_or_after_the_end_is_ver233(self):
        site = load_world(FIXTURES / "clean.json").sites()[0]
        found = self.findings(plan=None, events=[Action(100.0, "fail", site)])
        assert [code for code, _ in found] == ["VER233"]
        assert "fires at t=100s >= the 100s" in found[0][1]


def _testbed_world():
    """``repro verify``'s default world: the testbed at seed 42, full roster."""
    return default_world(build_deployment(), techniques_named(DEFAULT_TECHNIQUE_NAMES))


class TestDefaultWorld:
    def test_shipped_testbed_verifies_clean(self):
        """Acceptance: zero findings on the shipped deployment, full roster."""
        report = verify_world(_testbed_world())
        assert report.findings == []

    def test_testbed_strict_profile_flags_only_ambiguity(self):
        report = verify_world(_testbed_world(), strict=True)
        assert report.ok  # warnings only
        assert {f.code for f in report.findings} == {"VER223"}


class TestWorldSchema:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'nope'"):
            world_from_dict({"ases": [], "nope": 1})

    def test_ases_required(self):
        with pytest.raises(ValueError, match="'ases'"):
            world_from_dict({})

    def test_unknown_relationship_rejected(self):
        with pytest.raises(ValueError, match="unknown relationship"):
            world_from_dict({
                "ases": [{"node": "a", "asn": 1}, {"node": "b", "asn": 2}],
                "links": [{"a": "a", "b": "b", "rel": "frenemy"}],
            })

    def test_preferences_must_name_neighbors(self):
        with pytest.raises(ValueError, match="not a neighbor"):
            world_from_dict({
                "ases": [{"node": "a", "asn": 1}, {"node": "b", "asn": 2}],
                "preferences": {"a": {"b": 250}},
            })

    def test_technique_and_techniques_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            world_from_dict({
                "ases": [{"node": "a", "asn": 1}],
                "technique": "anycast",
                "techniques": ["anycast"],
            })

    def test_load_world_prefixes_errors_with_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(ValueError, match=str(path)):
            load_world(path)


class TestCatalogue:
    def test_codes_are_unique_and_ver_prefixed(self):
        codes = [check.code for check in all_checks()]
        assert len(codes) == len(set(codes))
        assert all(code.startswith("VER2") for code in codes)

    def test_resolve_codes_accepts_codes_and_names(self):
        assert resolve_codes(["VER201", "dispute-wheel"]) == {"VER201", "VER211"}

    def test_resolve_codes_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown verify check"):
            resolve_codes(["VER999"])


def test_max_suppression_matches_cisco_defaults():
    # half_life 900s, ceiling 12000, reuse 750: 900 * log2(16) = 3600s
    assert max_suppression_seconds(DampingConfig()) == pytest.approx(3600.0)
