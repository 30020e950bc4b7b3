"""Workload profiles: shapes, loading, and PRE14x pre-flight checks."""

import json
import pathlib

import pytest

from repro.analysis.findings import Severity
from repro.analysis.preflight import check_workload
from repro.workload import (
    BUILTIN_PROFILES,
    PROFILE_SCHEMA,
    RateShape,
    WorkloadProfile,
    builtin_profile,
    load_profile,
    profile_from_dict,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "workload"


class TestRateShapes:
    def test_constant(self):
        shape = RateShape(kind="constant", factor=2.5)
        assert shape.value_at(0.0) == 2.5
        assert shape.value_at(1e6) == 2.5
        assert shape.peak() == 2.5

    def test_diurnal_oscillates_within_bounds(self):
        shape = RateShape(kind="diurnal", amplitude=0.5, period_s=100.0)
        values = [shape.value_at(t) for t in range(0, 100, 5)]
        assert max(values) > 1.2 and min(values) < 0.8
        assert all(v <= shape.peak() + 1e-12 for v in values)

    def test_flash_crowd_ramp_peak_decay(self):
        shape = RateShape(
            kind="flash-crowd", peak_multiplier=4.0,
            peak_at_s=100.0, ramp_s=20.0, decay_s=50.0,
        )
        assert shape.value_at(0.0) == 1.0
        assert shape.value_at(79.9) == 1.0
        assert shape.value_at(90.0) == pytest.approx(2.5)
        assert shape.value_at(100.0) == pytest.approx(4.0)
        assert shape.value_at(125.0) == pytest.approx(2.5)
        assert shape.value_at(151.0) == 1.0
        assert shape.peak() == 4.0

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown rate shape"):
            RateShape(kind="bogus").value_at(0.0)


class TestProfile:
    def test_rate_is_product_of_shapes(self):
        profile = WorkloadProfile(
            name="x", base_rps=100.0,
            shapes=(
                RateShape(kind="constant", factor=2.0),
                RateShape(kind="constant", factor=3.0),
            ),
        )
        assert profile.rate(0.0) == 600.0
        assert profile.max_rate() == 600.0

    def test_expected_requests_constant(self):
        profile = WorkloadProfile(name="x", base_rps=10.0)
        assert profile.expected_requests(100.0) == pytest.approx(1000.0)

    def test_builtins_resolve(self):
        for name in BUILTIN_PROFILES:
            profile = builtin_profile(name)
            assert profile.name == name
            assert not check_workload(profile)

    def test_unknown_builtin_raises(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_profile("bogus")

    def test_to_dict_roundtrip(self):
        profile = builtin_profile("flash-crowd")
        clone = profile_from_dict(profile.to_dict())
        assert clone == profile


class TestLoading:
    def test_load_builtin_name(self):
        assert load_profile("diurnal").name == "diurnal"

    def test_load_json_file(self):
        profile = load_profile("examples/workload_flashcrowd.json")
        assert profile.name == "flashcrowd-example"
        assert profile.shapes[0].kind == "flash-crowd"
        assert not check_workload(profile)

    def test_missing_file_raises(self):
        with pytest.raises(ValueError, match="neither a builtin"):
            load_profile("no/such/profile.json")

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_profile(str(path))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'rps'"):
            profile_from_dict({"name": "x", "rps": 5})

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            profile_from_dict({"schema": "other/9", "name": "x"})

    def test_bool_is_not_numeric(self):
        with pytest.raises(ValueError, match="must be a number"):
            profile_from_dict({"name": "x", "base_rps": True})

    def test_out_of_range_values_load(self):
        # Value sanity is preflight's job, not the parser's.
        profile = profile_from_dict({"name": "x", "base_rps": -5.0})
        assert profile.base_rps == -5.0


class TestPreflight:
    def test_known_bad_fixture_yields_stable_codes(self):
        profile = load_profile(str(FIXTURES / "bad_negative_rate.json"))
        findings = check_workload(profile)
        codes = {f.code for f in findings}
        assert codes == {"PRE140", "PRE141", "PRE144"}
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_nonfinite_fixture_is_refused_field_by_field(self):
        """NaN fails every ``<=`` range check and +inf passes them, so
        non-finite values get their own finding under the field's code."""
        profile = load_profile(str(FIXTURES / "bad_nonfinite.json"))
        findings = check_workload(profile, duration=300.0)
        assert [(f.code, f.message) for f in findings] == [
            ("PRE140", "base_rps inf is not finite"),
            ("PRE141", "zipf_s nan is not finite"),
            ("PRE142", "tick_s nan is not finite"),
            ("PRE144", "peak_multiplier inf is not finite"),
            ("PRE144", "decay_s nan is not finite"),
        ]
        assert all(f.severity is Severity.ERROR for f in findings)

    @pytest.mark.parametrize("field, code", [
        ("base_rps", "PRE140"), ("zipf_s", "PRE141"), ("surge_weight", "PRE141"),
        ("think_time_s", "PRE142"), ("tick_s", "PRE142"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_every_float_field_must_be_finite(self, field, code, value):
        profile = WorkloadProfile(name="x", **{field: value})
        assert code in [f.code for f in check_workload(profile, duration=60.0)]

    def test_shape_fields_must_be_finite(self):
        shapes = (
            RateShape(kind="constant", factor=float("inf")),
            RateShape(kind="diurnal", period_s=float("nan"), phase_s=float("-inf")),
        )
        codes = [f.code for f in check_workload(WorkloadProfile(name="x", shapes=shapes))]
        assert codes == ["PRE140", "PRE144", "PRE144"]

    def test_fixture_schema_tag_current(self):
        data = json.loads((FIXTURES / "bad_negative_rate.json").read_text())
        assert data["schema"] == PROFILE_SCHEMA

    def test_bad_tick_and_think(self):
        profile = WorkloadProfile(name="x", tick_s=0.0, think_time_s=-1.0)
        codes = [f.code for f in check_workload(profile)]
        assert codes == ["PRE142", "PRE142"]

    def test_unknown_shape_kind(self):
        profile = WorkloadProfile(name="x", shapes=(RateShape(kind="wat"),))
        codes = [f.code for f in check_workload(profile)]
        assert codes == ["PRE143"]

    def test_zipf_and_catalogue_errors(self):
        """PRE141 is every popularity row: the client Zipf exponent and
        the surge weight (a profile has no content catalogue)."""
        profile = WorkloadProfile(name="x", zipf_s=0.0, surge_weight=-1.0)
        codes = [f.code for f in check_workload(profile)]
        assert codes == ["PRE141", "PRE141"]

    def test_volume_warning_only_when_valid(self):
        big = WorkloadProfile(name="x", base_rps=1e6)
        findings = check_workload(big, duration=600.0)
        assert [f.code for f in findings] == ["PRE145"]
        assert findings[0].severity is Severity.WARNING
        # A malformed profile never reaches the volume estimate.
        bad = WorkloadProfile(name="x", base_rps=-1e6)
        assert [f.code for f in check_workload(bad, duration=600.0)] == ["PRE140"]

    def test_none_profile_is_clean(self):
        assert check_workload(None) == []
