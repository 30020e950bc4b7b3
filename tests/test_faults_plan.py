"""Tests for declarative fault plans (validation + JSON round-trip)."""

import json
import re

import pytest
from hypothesis import given, strategies as st

from repro.cli import main
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FibDelay,
    LinkFlap,
    MessageLoss,
    PartialSiteFailure,
    SessionReset,
    load_fault_plan,
)
from repro.faults.plan import PLAN_FIELDS

from tests.row_documents import mutated


JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
#: plan-shaped documents: what the plan's own rows accept, then at most
#: one mutation of a type, a value, a key or a kind
PLAN_SHAPED = mutated(PLAN_FIELDS, {}).map(lambda drawn: drawn[0])


def full_plan() -> FaultPlan:
    return FaultPlan(
        seed=42,
        faults=(
            LinkFlap(at=1.0, a="r0", b="r1", down_for=5.0, repeat=2, period=20.0),
            SessionReset(at=2.0, a="r1", b="r2"),
            MessageLoss(at=3.0, a="r0", b="r1", duration=10.0, loss_prob=0.5),
            FibDelay(at=4.0, node="r2", duration=10.0, extra_delay=2.0),
            PartialSiteFailure(at=5.0, node="r1", fraction=0.5, down_for=5.0),
        ),
    )


#: :func:`full_plan` as a plan file spells it
FULL_PLAN_DOC = {"seed": 42, "faults": [
    {"kind": "link_flap", "at": 1.0, "a": "r0", "b": "r1", "down_for": 5.0, "repeat": 2,
     "period": 20.0},
    {"kind": "session_reset", "at": 2.0, "a": "r1", "b": "r2"},
    {"kind": "message_loss", "at": 3.0, "a": "r0", "b": "r1", "duration": 10.0,
     "loss_prob": 0.5},
    {"kind": "fib_delay", "at": 4.0, "node": "r2", "duration": 10.0, "extra_delay": 2.0},
    {"kind": "partial_site_failure", "at": 5.0, "node": "r1", "fraction": 0.5,
     "down_for": 5.0},
]}


class TestValidation:
    def test_all_kinds_registered(self):
        assert set(FAULT_KINDS) == {
            "link_flap", "session_reset", "message_loss", "fib_delay",
            "partial_site_failure", "brownout",
        }

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="at -1 is negative"):
            SessionReset(at=-1.0, a="r0", b="r1")

    def test_link_flap_needs_both_ends(self):
        with pytest.raises(ValueError, match="link_flap needs 'b'"):
            LinkFlap(at=0.0, a="r0")

    def test_link_flap_overlapping_repeats_rejected(self):
        with pytest.raises(ValueError, match="period"):
            LinkFlap(at=0.0, a="r0", b="r1", down_for=10.0, repeat=3, period=5.0)

    def test_message_loss_zero_probabilities_rejected(self):
        with pytest.raises(ValueError, match="does nothing"):
            MessageLoss(at=0.0, a="r0", b="r1")

    def test_message_loss_probability_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MessageLoss(at=0.0, a="r0", b="r1", loss_prob=1.5)

    def test_fib_delay_requires_positive_extra(self):
        with pytest.raises(ValueError, match="extra_delay"):
            FibDelay(at=0.0, node="r0", extra_delay=0.0)

    def test_partial_fraction_must_be_partial(self):
        with pytest.raises(ValueError, match="fraction"):
            PartialSiteFailure(at=0.0, node="r0", fraction=1.0)
        with pytest.raises(ValueError, match="fraction"):
            PartialSiteFailure(at=0.0, node="r0", fraction=0.0)


class TestSerialization:
    def test_a_plan_file_reads_to_its_plan(self):
        assert FaultPlan.from_json(json.dumps(FULL_PLAN_DOC)) == full_plan()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match=r"faults\[0\]: unknown kind 'meteor_strike'"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "meteor_strike", "at": 1.0}]}
            )

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'color'"):
            FaultPlan.from_dict({"faults": [], "color": "red"})

    def test_bad_field_reports_index_and_kind(self):
        with pytest.raises(ValueError, match=r"faults\[0\] \(link_flap\)"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "link_flap", "at": 1.0, "a": "r0",
                             "b": "r1", "down_for": -1.0}]}
            )

    @pytest.mark.parametrize("shape, key", [
        pytest.param({"seed": None}, "seed", id="seed-null"),
        pytest.param({"seed": "7"}, "seed", id="seed-string"),
        pytest.param({"faults": 5}, "faults", id="faults-int"),
        pytest.param({"faults": {"kind": "brownout"}}, "faults", id="faults-object"),
        pytest.param({"faults": [{"kind": ["x"], "at": 1}]}, "kind", id="kind-unhashable"),
        pytest.param({"faults": [{"kind": "link_flap", "at": 1, "a": "x", "b": "y",
                                  "repeat": 1.5, "period": 20}]}, "faults[0]", id="repeat-float"),
    ])
    def test_malformed_shape_names_the_key(self, shape, key, tmp_path, capsys):
        """Wrongly-typed values end as ``cannot load fault plan: PATH:
        message`` (exit 2) on every command that takes a plan, not a
        traceback."""
        with pytest.raises(ValueError, match=re.escape(key)):
            FaultPlan.from_dict(shape)
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(shape))
        for command in ("scenario", "drill", "verify"):
            assert main([command, "--faults", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"cannot load fault plan: {path}: ") and key in err

    @given(st.one_of(JSON_VALUES, PLAN_SHAPED))
    def test_arbitrary_json_raises_only_value_error(self, data):
        try:
            plan = FaultPlan.from_dict(data)
        except ValueError:
            return
        # Whatever loads also expands: the scheduler never meets an
        # entry the constructor would have refused.
        assert all(edge.at >= 0 for edge in plan.actions())

    def test_empty_plan(self):
        plan = FaultPlan.from_dict({})
        assert len(plan) == 0
        assert plan.seed == 0


class TestLoading:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(FULL_PLAN_DOC), encoding="utf-8")
        assert load_fault_plan(path) == full_plan()

    def test_invalid_json_mentions_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ValueError, match="broken.json"):
            load_fault_plan(path)

    def test_example_plan_parses(self):
        from pathlib import Path

        example = Path(__file__).resolve().parent.parent / "examples" / "faultplan.json"
        plan = load_fault_plan(example)
        assert len(plan) == 6

    def test_plans_are_picklable(self):
        """Plans ride inside RotationDrill into sweep worker processes."""
        import pickle

        plan = full_plan()
        assert pickle.loads(pickle.dumps(plan)) == plan
