"""CLI tests for the observability trio: explain, report, profile.

Unit-level tests drive the commands on synthetic files; the end-to-end
test records a real ``failover --trace --profile`` run and pushes its
outputs through all three commands plus the filtered summarizer.
"""

from __future__ import annotations

import gc
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.obs import EventProfiler, LEDGER_SCHEMA
from repro.telemetry import (
    BgpUpdateSent,
    FibInstalled,
    PhaseEnd,
    PhaseStart,
    ProbeLost,
    ProbeReply,
    ProbeSent,
    RootCause,
    write_jsonl,
)

PREFIX = "184.164.254.0/24"


def write_trace(path):
    """A minimal but complete trace: one chain, one outage."""
    events = [
        PhaseStart(t=0.0, name="fail-probe", tags={"technique": "anycast", "site": "sea1"}),
        RootCause(t=10.0, cause=1, action="site-fail", target="sea1"),
        BgpUpdateSent(
            t=11.0, sender="site:sea1", receiver="tr-0", prefix=PREFIX,
            update="withdraw", cause=1,
        ),
        FibInstalled(t=12.0, node="tr-0", prefix=PREFIX, next_hop=None, cause=1),
        ProbeSent(t=10.0, target="10.0.0.1", seq=0),
        ProbeLost(t=10.5, target="10.0.0.1", seq=0, reason="no-route"),
        ProbeSent(t=20.0, target="10.0.0.1", seq=1),
        ProbeReply(t=20.1, target="10.0.0.1", seq=1, site="msn"),
    ]
    write_jsonl(path, events)
    return path


def write_profile(path):
    profiler = EventProfiler()
    profiler.record_callback("Session._mrai_expired", 0.5)
    profiler.record_phase(PhaseEnd(t=0.0, name="fail-probe", wall_s=1.0, sim_s=120.0))
    path.write_text(json.dumps(profiler.state()))
    return path


class TestParser:
    def test_obs_commands_registered(self):
        parser = build_parser()
        for argv in (
            ["explain", "t.jsonl"],
            ["report", "t.jsonl"],
            ["profile", "p.json"],
        ):
            assert callable(parser.parse_args(argv).func)

    def test_explain_filters_parse(self):
        args = build_parser().parse_args(
            ["explain", "t.jsonl", "--prefix", PREFIX, "--site", "sea1"]
        )
        assert args.prefix == PREFIX
        assert args.site == "sea1"

    def test_report_json_flag(self):
        args = build_parser().parse_args(["report", "t.jsonl", "--json", "-"])
        assert args.json_path == "-"

    def test_profile_top_flag(self):
        assert build_parser().parse_args(["profile", "p.json", "--top", "3"]).top == 3


class TestExplain:
    def test_resolves_chain(self, capsys, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl")
        assert main(["explain", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cause 1: site-fail sea1" in out
        assert "withdrawal" in out

    def test_no_matching_chain_exits_one(self, capsys, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl")
        assert main(["explain", str(trace), "--site", "nowhere"]) == 1
        assert "0 causal chain(s)" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["explain", str(tmp_path / "absent.jsonl")]) == 2

    def test_invalid_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["explain", str(bad)]) == 2


class TestReport:
    def test_renders_ledger(self, capsys, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl")
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "availability ledger" in out
        assert "anycast" in out

    def test_json_to_file(self, capsys, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl")
        out_path = tmp_path / "ledger.json"
        assert main(["report", str(trace), "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == LEDGER_SCHEMA
        assert doc["total_user_seconds_lost"] == 10.0

    def test_json_to_stdout_is_pure_json(self, capsys, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl")
        assert main(["report", str(trace), "--json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_outages"] == 1

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2


class TestUnreadableTrace:
    @pytest.mark.parametrize("command", [["explain"], ["report"], ["trace", "summarize"]])
    def test_reason_goes_to_stderr(self, capsys, tmp_path, command):
        """Every trace consumer reads through one helper: a missing or
        corrupt file exits 2 with the reason on stderr, stdout empty
        (``trace summarize`` used to print it on stdout)."""
        corrupt = tmp_path / "bad.jsonl"
        corrupt.write_text("not json\n")
        for path, reason in (
            (tmp_path / "absent.jsonl", "no such trace file"),
            (corrupt, "unreadable trace"),
        ):
            assert main([*command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert reason in captured.err

    @pytest.mark.parametrize("command", [["explain"], ["report"], ["trace", "summarize"]])
    @pytest.mark.parametrize(
        "record, reason",
        [
            ("[1, 2]", "a trace event must be an object, got list"),
            ('{"kind": "phase_end", "t": 0}', "phase_end event: PhaseEnd.__init__() missing"),
            ('{"kind": "nope", "t": 0}', "unknown trace event kind 'nope'"),
        ],
        ids=["not-an-object", "missing-field", "unknown-kind"],
    )
    def test_a_malformed_record_names_its_line(self, capsys, tmp_path, command, record, reason):
        """Valid JSON that is not an event is one stderr line naming the
        file and line, exit 2 -- not a traceback."""
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "site_failed", "t": 1.0, "site": "msn"}\n' + record + "\n")
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"unreadable trace: {path}:2: {reason}")
        assert captured.err.count("\n") == 1


class TestProfileCommand:
    def test_renders_profile(self, capsys, tmp_path):
        path = write_profile(tmp_path / "p.json")
        assert main(["profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "_mrai_expired" in out
        assert "fail-probe" in out

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["profile", str(tmp_path / "absent.json")]) == 2

    def test_invalid_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["profile", str(bad)]) == 2

    def test_wrong_schema_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"something": "else"}))
        assert main(["profile", str(bad)]) == 2

    @pytest.mark.parametrize(
        "document, reason",
        [
            (
                {"callbacks": {"x": {"count": 1}}},
                "callbacks['x'].wall_s must be a number, got None",
            ),
            (
                {"callbacks": [], "phases": {}},
                "callbacks must be a table of named entries, got list",
            ),
            (
                {"callbacks": {}, "phases": {"p": {"runs": 1}}},
                "phases['p'].wall_s must be a number, got None",
            ),
        ],
        ids=["callback-without-wall", "callbacks-not-a-table", "phase-without-wall"],
    )
    def test_a_malformed_table_is_one_line(self, capsys, tmp_path, document, reason):
        """The file is read through the profiler's own fold: a table that
        is not ``{name: {field: number}}`` is a finding, exit 2."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert main(["profile", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"unreadable profile: {reason}\n"

    def test_a_file_without_tags_renders(self, capsys, tmp_path):
        """A /1 profile (no per-phase ``tags``) still reads: no note lines."""
        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            "schema": "repro.profile/1",
            "callbacks": {},
            "phases": {"fork-restore": {"runs": 2, "wall_s": 0.5, "sim_s": 0.0}},
        }))
        assert main(["profile", str(old)]) == 0
        out = capsys.readouterr().out
        assert "  fork-restore               2" in out
        assert "rewound" not in out


class TestEndToEnd:
    """One recorded run feeds every observability command."""

    @pytest.fixture(scope="class")
    def recorded_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("obs")
        trace, profile = tmp / "run.jsonl", tmp / "run-profile.json"
        code = main([
            "failover", "-t", "reactive-anycast", "-s", "msn",
            "--targets", "4", "--duration", "60",
            "--trace", str(trace), "--profile", str(profile),
        ])
        assert code == 0
        return trace, profile

    def test_explain_resolves_failover(self, capsys, recorded_run):
        trace, _ = recorded_run
        assert main(["explain", str(trace), "--site", "msn"]) == 0
        out = capsys.readouterr().out
        assert "site-fail msn" in out
        assert "fib-install" in out

    def test_report_accounts_downtime(self, capsys, recorded_run):
        trace, _ = recorded_run
        assert main(["report", str(trace), "--json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == LEDGER_SCHEMA
        assert "reactive-anycast" in doc["techniques"]

    def test_profile_renders_run(self, capsys, recorded_run):
        _, profile = recorded_run
        state = json.loads(profile.read_text())
        assert state["callbacks"], "profile JSON should attribute callbacks"
        assert main(["profile", str(profile), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "engine callbacks" in out
        assert "phases" in out
        # The run's collector passes are a row of the same artefact, and
        # the hook that counted them left with the run.
        assert state["collector"] and "collector" in out
        assert not [h for h in gc.callbacks if "watch_collector" in h.__qualname__]

    def test_summarize_filters_narrow_the_trace(self, capsys, recorded_run):
        trace, _ = recorded_run
        assert main([
            "trace", "summarize", str(trace), "--kind", "bgp_update_sent",
        ]) == 0
        out = capsys.readouterr().out
        assert "filtered to" in out
        assert "bgp_update_sent" in out


def phase_notes(text: str) -> dict[str, list[str]]:
    """Phase name -> the note lines printed under its row of the phase
    table."""
    notes: dict[str, list[str]] = {}
    rows = text.split("\nphase timings", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    for line in rows:
        if line.startswith("    "):
            notes[phase].append(line)
        else:
            phase = line.split()[0]
            notes[phase] = []
    return notes


def test_profile_and_trace_summarize_print_the_same_notes(capsys, tmp_path):
    """One serial sweep, traced and profiled: both readers fold the same
    ``PhaseEnd`` records, so the lines under each phase's row agree."""
    trace, profile = tmp_path / "sweep.jsonl", tmp_path / "sweep-profile.json"
    assert main([
        "sweep", "-t", "anycast", "proactive-superprefix", "--sites", "msn", "sea1", "ams",
        "--targets", "4", "--duration", "60", "--no-progress", "-o", str(tmp_path / "s.json"),
        "--trace", str(trace), "--profile", str(profile),
    ]) == 0
    capsys.readouterr()
    assert main(["profile", str(profile)]) == 0
    from_profile = phase_notes(capsys.readouterr().out)
    assert main(["trace", "summarize", str(trace)]) == 0
    from_trace = phase_notes(capsys.readouterr().out)
    assert from_profile == from_trace
    (fork,) = from_trace["fork-restore"]
    (replies,) = from_trace["fail-probe"]
    restored, rewound, routers = map(int, re.fullmatch(
        r"    (\d+) restored, (\d+) rewound \((\d+) routers reloaded\)", fork
    ).groups())
    assert restored + rewound == 6 and rewound >= 1 and routers > 0
    flown, quiet = map(int, re.fullmatch(r"    (\d+) replies flown, (\d+) quiet", replies).groups())
    assert flown > 0 and quiet > 0
