"""Engine-level tests: noqa forms, selection, reporters, self-check."""

import json
from pathlib import Path

from repro.analysis import (
    PARSE_ERROR_CODE,
    RULES,
    LintEngine,
    render_json,
    render_text,
    resolve_codes,
)
from repro.analysis import rules

REPO_ROOT = Path(__file__).resolve().parent.parent

HAZARD = "import random\nrng = random.Random()\nvalue = random.random()\n"


class TestNoqa:
    def test_blanket_noqa_suppresses_all(self):
        source = "rng = random.Random(hash(x))  # repro: noqa\n"
        assert LintEngine().lint_source(source) == []

    def test_coded_noqa_is_selective(self):
        source = (
            "import time\n"
            "t0 = time.time()  # repro: noqa[DET001]\n"  # wrong code
        )
        assert [f.code for f in LintEngine().lint_source(source)] == ["DET004"]

    def test_multiple_codes(self):
        source = "x = random.Random(hash(y))  # repro: noqa[DET003, DET001]\n"
        assert LintEngine().lint_source(source) == []

    def test_noqa_only_covers_its_line(self):
        source = (
            "a = random.Random()  # repro: noqa[DET001]\n"
            "b = random.Random()\n"
        )
        findings = LintEngine().lint_source(source)
        assert [(f.code, f.line) for f in findings] == [("DET001", 2)]

    def test_case_insensitive_directive(self):
        source = "rng = random.Random()  # REPRO: NOQA[det001]\n"
        assert LintEngine().lint_source(source) == []


class TestSelection:
    def test_select_restricts_rules(self):
        engine = LintEngine(select={"DET001"})
        assert [f.code for f in engine.lint_source(HAZARD)] == ["DET001"]

    def test_ignore_removes_rules(self):
        engine = LintEngine(ignore={"DET001"})
        assert [f.code for f in engine.lint_source(HAZARD)] == ["DET002"]

    def test_resolve_codes_accepts_names_and_codes(self):
        assert resolve_codes(["det001", "module-random"]) == {"DET001", "DET002"}

    def test_resolve_codes_rejects_unknown(self):
        try:
            resolve_codes(["DET999"])
        except ValueError as error:
            assert "DET999" in str(error)
        else:
            raise AssertionError("expected ValueError")


class TestEngineMechanics:
    def test_syntax_error_is_a_finding(self):
        findings = LintEngine().lint_source("def broken(:\n")
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]

    def test_findings_sorted_by_position(self):
        source = "b = random.random()\na = random.Random()\n"
        findings = LintEngine().lint_source(source)
        assert [f.line for f in findings] == [1, 2]

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text("import random\nrandom.seed(1)\n")
        findings = LintEngine().lint_paths([tmp_path])
        assert [f.code for f in findings] == ["DET002"]
        assert findings[0].source.endswith("bad.py")

    def test_missing_file_is_a_finding(self, tmp_path):
        findings = LintEngine().lint_paths([tmp_path / "nope.py"])
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]


class TestReporters:
    def test_text_report_positions_and_summary(self):
        findings = LintEngine().lint_source(HAZARD, path="x.py")
        text = render_text(findings)
        assert "x.py:2" in text
        assert "DET001" in text
        assert "2 finding(s)" in text

    def test_text_report_clean(self):
        assert render_text([]) == "no findings"

    def test_json_report_round_trips(self):
        findings = LintEngine().lint_source(HAZARD, path="x.py")
        payload = json.loads(render_json(findings))
        assert payload["count"] == 2
        assert payload["errors"] == 2
        assert {f["code"] for f in payload["findings"]} == {"DET001", "DET002"}


class TestSelfCheck:
    def test_src_repro_lints_clean(self):
        """The shipped tree must stay clean under its own linter (the
        same gate CI applies)."""
        findings = LintEngine().lint_paths([REPO_ROOT / "src" / "repro"])
        assert findings == [], "\n" + render_text(findings)

    def test_every_rule_class_has_its_own_code(self):
        """``register`` keys a rule by its code, so a second rule under
        one code would replace the first."""
        classes = [
            value for value in vars(rules).values()
            if isinstance(value, type) and issubclass(value, rules.LintRule)
            and value is not rules.LintRule
        ]
        assert sorted(classes, key=lambda cls: cls.code) == sorted(
            RULES.values(), key=lambda cls: cls.code
        )

    def test_rule_catalogue_is_documented(self):
        """Every rule code appears in docs/static-analysis.md."""
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        for code in RULES:
            assert code in doc, f"rule {code} missing from docs/static-analysis.md"
