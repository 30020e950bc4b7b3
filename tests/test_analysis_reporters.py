"""Reporters and the finding model: ordering, byte-stability, tallies."""

import json

from repro.analysis.findings import Finding, FindingCollector, Severity
from repro.analysis.reporters import render_json, render_text


def finding(code="DET001", source="a.py", line=1, col=0,
            severity=Severity.ERROR, message="m"):
    return Finding(code=code, message=message, severity=severity,
                   source=source, line=line, col=col)


class TestSeverity:
    def test_error_blocks_warning_advises(self):
        assert Severity.ERROR.blocking
        assert not Severity.WARNING.blocking

    def test_collector_ok_tracks_blocking_only(self):
        collector = FindingCollector()
        collector.extend([finding(severity=Severity.WARNING)])
        assert collector.ok and collector.findings and not collector.errors
        collector.extend([finding()])
        assert not collector.ok and len(collector.errors) == 1


class TestSortKey:
    def test_orders_by_position_then_code_then_message(self):
        unsorted = [
            finding(source="b.py", line=1),
            finding(source="a.py", line=9),
            finding(source="a.py", line=2, code="DET005"),
            finding(source="a.py", line=2, code="DET001", message="z"),
            finding(source="a.py", line=2, code="DET001", message="a"),
        ]
        ordered = sorted(unsorted, key=Finding.sort_key)
        assert [(f.source, f.line, f.code, f.message) for f in ordered] == [
            ("a.py", 2, "DET001", "a"),
            ("a.py", 2, "DET001", "z"),
            ("a.py", 2, "DET005", "m"),
            ("a.py", 9, "DET001", "m"),
            ("b.py", 1, "DET001", "m"),
        ]

    def test_positionless_findings_sort_before_positioned(self):
        preflightish = Finding(code="PRE101", message="m", source="scenario")
        assert preflightish.sort_key() < finding(source="scenario").sort_key()


class TestRenderText:
    def test_empty_says_no_findings(self):
        assert render_text([]) == "no findings"

    def test_zero_files_checked_is_explicit(self):
        text = render_text([], files_checked=0)
        assert "0 file(s) checked" in text and "no findings" in text

    def test_counts_split_by_severity(self):
        text = render_text([finding(), finding(severity=Severity.WARNING, line=2)])
        assert "2 finding(s): 1 error(s), 1 warning(s)" in text

    def test_output_independent_of_input_order(self):
        items = [finding(line=3), finding(line=1), finding(source="z.py")]
        assert render_text(items) == render_text(list(reversed(items)))


class TestRenderJson:
    def test_payload_shape(self):
        payload = json.loads(render_json(
            [finding(), finding(severity=Severity.WARNING, line=2)],
            files_checked=7,
        ))
        assert payload["count"] == 2
        assert payload["errors"] == 1
        assert payload["warnings"] == 1
        assert payload["files_checked"] == 7
        assert payload["findings"][0]["code"] == "DET001"

    def test_files_checked_omitted_by_default(self):
        payload = json.loads(render_json([finding()]))
        assert "files_checked" not in payload

    def test_byte_stable_across_input_order(self):
        items = [
            finding(source="b.py", line=4),
            finding(source="a.py", line=2, code="DET005"),
            finding(source="a.py", line=2, code="DET001"),
        ]
        assert render_json(items) == render_json(list(reversed(items)))

    def test_findings_emitted_in_sort_key_order(self):
        items = [finding(source="b.py"), finding(source="a.py")]
        payload = json.loads(render_json(items))
        assert [f["source"] for f in payload["findings"]] == ["a.py", "b.py"]
