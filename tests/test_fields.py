"""Outside input is declared once (``repro.fields``): the reader, the
auditor, and documents generated from the rows themselves.

``tests/row_documents.py`` builds a strategy from a row set: a document
the rows accept, then at most one mutation. Here it runs over all four
documents a user writes; nothing it generates may end in anything but a
``ValueError`` from the loader, and whatever loads goes through both
stages of the pre-run gate without raising.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import preflight_run
from repro.analysis.preflight import RUN_SHAPE
from repro.cli import main
from repro.core.techniques import TECHNIQUES
from repro.faults.plan import FAULT_KINDS, PLAN_FIELDS, FaultPlan, timeline
from repro.fields import Field, read, violations
from repro.topology.geo import REGIONS
from repro.topology.relationships import AsClass
from repro.verify import load_world, verify_world
from repro.verify.world import WORLD_FIELDS, world_from_dict
from repro.workload import CapacityProfile, builtin_profile
from repro.workload.capacity import CAPACITY_FIELDS, capacity_from_dict
from repro.workload.profile import PROFILE_FIELDS, SHAPE_FIELDS, profile_from_dict

from tests.row_documents import mutated

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

ROWS = (
    Field("name", str, required=True),
    Field("rate", lo=0, lo_open=True, code="X1", why="nothing would happen"),
    Field("share", lo=0, hi=1, hi_open=True, code="X2"),
    Field("count", int, lo=1),
    Field("limit", nullable=True, lo=0),
    Field("on", bool),
    Field("tags", [str]),
    Field("per_site", {str: float}, lo=0, code="X3"),
    Field("steps", [{"hop": (Field("to", str, required=True),), "wait": (Field("s"),)}]),
    Field("nested", (Field("depth", int),)),
    Field("anything", object),
)


class TestRead:
    def test_present_keys_come_back_typed(self):
        parsed = read(ROWS, {
            "name": "x", "rate": 5, "limit": None, "on": True, "tags": ["a"],
            "per_site": {"s": 2}, "steps": [{"kind": "wait", "s": 1}],
            "nested": {"depth": 3}, "anything": [1, {"k": None}],
        })
        assert parsed == {
            "name": "x", "rate": 5.0, "limit": None, "on": True, "tags": ["a"],
            "per_site": {"s": 2.0}, "steps": [{"kind": "wait", "s": 1.0}],
            "nested": {"depth": 3}, "anything": [1, {"k": None}],
        }
        assert isinstance(parsed["rate"], float)

    @pytest.mark.parametrize("data, message", [
        ([], "doc.json: document must be an object, got []"),
        ({}, "doc.json: missing required key 'name'"),
        ({"name": "x", "nope": 1}, "doc.json: unknown key 'nope'; have name, rate, "),
        ({"name": 5}, "doc.json: name must be a string, got 5"),
        ({"name": "x", "rate": True}, "doc.json: rate must be a number, got True"),
        ({"name": "x", "rate": None}, "doc.json: rate must be a number, got None"),
        ({"name": "x", "count": 1.0}, "doc.json: count must be an integer, got 1.0"),
        ({"name": "x", "on": 1}, "doc.json: on must be a boolean, got 1"),
        ({"name": "x", "tags": "a"}, "doc.json: tags must be a list, got 'a'"),
        ({"name": "x", "tags": ["a", 2]}, "doc.json: tags[1] must be a string, got 2"),
        ({"name": "x", "per_site": {"s": "2"}},
         "doc.json: per_site['s'] must be a number, got '2'"),
        ({"name": "x", "nested": {"depth": "3"}},
         "doc.json: nested.depth must be an integer, got '3'"),
        ({"name": "x", "steps": [{"kind": "jump"}]},
         "doc.json: steps[0]: unknown kind 'jump'; have hop, wait"),
        ({"name": "x", "steps": [{"kind": ["hop"]}]},
         "doc.json: steps[0]: unknown kind ['hop']; have hop, wait"),
        ({"name": "x", "steps": [{"kind": "hop"}]},
         "doc.json: steps[0]: missing required key 'to'"),
        ({"name": "x", "steps": [{"kind": "wait", "to": "y"}]},
         "doc.json: steps[0]: unknown key 'to'; have s"),
    ])
    def test_anything_else_is_a_value_error_naming_the_key(self, data, message):
        with pytest.raises(ValueError) as refusal:
            read(ROWS, data, "doc.json")
        assert str(refusal.value).startswith(message)

    def test_an_integer_past_the_float_range_reads_as_infinite(self):
        parsed = read(ROWS, json.loads('{"name": "x", "rate": 1%s}' % ("0" * 400)))
        assert parsed["rate"] == math.inf
        assert [m for _, m in violations(ROWS, parsed)] == ["rate inf is not finite"]


class TestViolations:
    def messages(self, record):
        return [(row.code, message) for row, message in violations(ROWS, record)]

    def test_one_template_per_bound_kind(self):
        assert self.messages({"rate": 0.0, "share": 1.0, "count": 0, "limit": -2.5}) == [
            ("X1", "rate 0 is not positive; nothing would happen"),
            ("X2", "share 1 is outside [0, 1)"),
            ("", "count 0 is outside [1, inf)"),
            ("", "limit -2.5 is negative"),
        ]

    def test_non_finite_reports_once_and_without_the_consequence(self):
        record = {"rate": -math.inf, "share": math.nan, "per_site": {"b": math.inf, "a": -1.0}}
        assert self.messages(record) == [
            ("X1", "rate -inf is not finite"),
            ("X2", "share nan is not finite"),
            ("X3", "per_site['a'] -1 is negative"),
            ("X3", "per_site['b'] inf is not finite"),
        ]

    def test_absent_and_null_state_nothing(self):
        assert self.messages({"limit": None}) == []

    def test_objects_are_read_by_attribute(self):
        profile = dataclasses.replace(builtin_profile("constant"), base_rps=0.0)
        assert [row.code for row, _ in violations(PROFILE_FIELDS, profile)] == ["PRE140"]


# ----------------------------------------------------------------------
# Documents generated from the rows (tests/row_documents.py)

BASE = load_world(FIXTURES / "verify" / "clean.json")
OPEN = CapacityProfile(name="open", default_rps=1e6)
NODES = sorted(BASE.topology.ases)

WORLD_SAMPLES = {
    "node": NODES, "a": NODES, "b": NODES, "providers": NODES, "peers": NODES,
    "class": [c.value for c in AsClass], "region": sorted(REGIONS),
    "rel": ["customer", "provider", "peer"], "tags": ["web-clients"],
    "techniques": sorted(TECHNIQUES), "technique": sorted(TECHNIQUES),
    "name": ["x", "y"], "specific_site": ["x", "y"], "suppress": ["VER223"],
    "prefix": ["184.164.244.0/24"], "superprefix": ["184.164.244.0/23"],
    "faults_path": [str(ROOT / "examples" / "faultplan.json")],
    "faults": [{"faults": []}, {"faults": [{"kind": "session_reset", "at": 1, "a": "t1", "b": "t2"}]}],
    "workload": ["constant", {"name": "w", "base_rps": 50}],
    "capacity": [250, {"site_rps": {"x": 40.0}}],
}


def gate_profile(doc):
    profile = profile_from_dict(doc, "doc")
    return dataclasses.replace(BASE, workload=profile, capacity=OPEN, duration=60.0)


def gate_capacity(doc):
    capacity = capacity_from_dict(doc, "doc")
    return dataclasses.replace(
        BASE, workload=builtin_profile("constant"), capacity=capacity, duration=60.0
    )


def gate_plan(doc):
    plan = FaultPlan.from_dict(doc)
    return dataclasses.replace(BASE, timeline=timeline(plan), capacity=OPEN, duration=60.0)


DOCUMENTS = {
    "workload": (PROFILE_FIELDS, {}, gate_profile),
    "capacity": (CAPACITY_FIELDS, {}, gate_capacity),
    "faults": (PLAN_FIELDS, {"a": NODES, "b": NODES, "node": NODES, "site": ["x", "y"]}, gate_plan),
    "world": (WORLD_FIELDS, WORLD_SAMPLES, world_from_dict),
}


#: built once: composing the strategies costs more than drawing from them
MUTATED = {name: mutated(rows, samples) for name, (rows, samples, _) in DOCUMENTS.items()}


def through_the_gate(world) -> set[str]:
    """Both stages, called as :func:`repro.cli.common.gate` calls them."""
    report = preflight_run(
        world.deployment, prefix=world.prefix, events=world.timeline,
        duration=world.duration, detection_delay=world.detection_delay,
        recovery_grace=world.recovery_grace, workload=world.workload,
        capacity=world.capacity,
    )
    verify_world(world)
    return {finding.code for finding in report.findings}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_generated_documents_end_in_a_value_error_or_a_verdict(name, data):
    rows, _, load = DOCUMENTS[name]
    doc, how, row = data.draw(MUTATED[name])
    if how == "none":
        # the strategy's other half: what it calls valid, the type pass
        # accepts (a world or a plan may still name a node that is not
        # there, or break a cross-field rule)
        assert set(read(rows, doc)) == set(doc)
    try:
        world = load(doc)
    except ValueError:
        return
    # a structural mutation never loads ...
    assert how in ("none", "value"), (how, row, doc)
    # ... what loads never raises at the gate, and a mutated value is
    # refused there under its row's code (the loaders that check values
    # themselves -- fault and damping constructors, a world's duration --
    # have already raised)
    codes = through_the_gate(world)
    if how == "value":
        assert row.code and row.code in codes, (row, doc, codes)


# ----------------------------------------------------------------------
# The shrunk documents that used to end in a traceback (or a clean verdict)

MALFORMED_WORLDS = sorted((FIXTURES / "verify").glob("malformed_*.json"))
MALFORMED_PLAN = FIXTURES / "faults" / "malformed_site_list.json"


WRONG_TYPE = r"^{}: \S+ must be an? (string|number|integer|list), got .*\n$"


@pytest.mark.parametrize("argv, line", [
    *(pytest.param(
        ["verify", str(path)],
        "^{}: duration inf is not finite\n$" if path.stem.endswith("nonfinite") else WRONG_TYPE,
        id=f"verify-{path.stem}",
    ) for path in MALFORMED_WORLDS),
    *(pytest.param(
        [command, "--faults", str(MALFORMED_PLAN)], "^cannot load fault plan: " + WRONG_TYPE[1:],
        id=f"{command}-faults",
    ) for command in ("verify", "scenario", "drill")),
])
def test_malformed_documents_exit_2_with_one_line(argv, line, capsys):
    assert len(MALFORMED_WORLDS) == 7
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(line.format(re.escape(argv[-1])), captured.err), captured.err


def test_nan_damping_is_refused_at_load():
    with pytest.raises(ValueError, match="half_life nan is not finite"):
        world_from_dict({"ases": [], "damping": {"half_life": math.nan}})


# ----------------------------------------------------------------------
# Docs cannot drift from the rows


@pytest.mark.parametrize("doc, rows", [
    ("workload.md", PROFILE_FIELDS),
    *(("workload.md", rows) for rows in SHAPE_FIELDS.values()),
    ("load.md", CAPACITY_FIELDS),
    *(("faults.md", fault.FIELDS) for fault in FAULT_KINDS.values()),
    ("static-analysis.md", RUN_SHAPE),
])
def test_every_row_is_in_the_table_that_documents_it(doc, rows):
    """A row's field name (as code) and its finding code both appear on
    one table line of the page that documents the field."""
    lines = [
        line for line in (ROOT / "docs" / doc).read_text().splitlines()
        if line.lstrip().startswith("|")
    ]
    for row in rows:
        named = [line for line in lines if f"`{row.name}`" in line]
        assert named, f"docs/{doc}: no table row names `{row.name}`"
        assert any(row.code in line for line in named), (
            f"docs/{doc}: `{row.name}` is not documented under {row.code}"
        )
