"""Inputs the program no longer reads end in one message and exit 2.

A run keeps only what some result reads: the trace is always the whole
run (no ``--trace-limit``, no ``trace_meta`` line), ``lint`` and
``verify`` schedule no event and so take ``--metrics`` alone, and a
request carries no content id (no ``n_contents`` / ``content_zipf_s``
profile keys). Each of those old inputs is refused with one line, never
a traceback.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.workload.profile import builtin_profile, load_profile

#: every subcommand that took ``--trace-limit``
TRACE_LIMIT_COMMANDS = ("failover", "compare", "sweep", "drill", "scenario", "lint", "verify")


def usage_error(capsys, argv: list[str]) -> str:
    with pytest.raises(SystemExit) as usage:
        build_parser().parse_args(argv)
    assert usage.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("command", TRACE_LIMIT_COMMANDS)
def test_trace_limit_is_a_usage_error(capsys, command):
    err = usage_error(capsys, [command, "--trace-limit", "40"])
    assert "unrecognized arguments: --trace-limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ("lint", "verify"))
@pytest.mark.parametrize("flag", ("--trace", "--profile"))
def test_lint_and_verify_take_only_metrics(capsys, command, flag):
    err = usage_error(capsys, [command, flag, "out"])
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("argv", (
    ["report", "TRACE"], ["explain", "TRACE", "--site", "sea1"], ["trace", "summarize", "TRACE"],
), ids=["report", "explain", "trace-summarize"])
def test_a_trace_meta_line_is_refused(capsys, tmp_path, argv):
    """A file written by a bounded recorder says it is incomplete; no
    reader takes it for a whole run."""
    trace = tmp_path / "bounded.jsonl"
    trace.write_text(
        json.dumps({"kind": "trace_meta", "t": 0.0, "recorded": 1755, "dropped": 1715}) + "\n"
        + json.dumps({"kind": "site_failed", "t": 30.0, "site": "sea1"}) + "\n"
    )
    assert main([str(trace) if arg == "TRACE" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"unreadable trace: {trace}:1: unknown trace event kind 'trace_meta'"
    ]


@pytest.mark.parametrize("key, value", (("n_contents", 1000), ("content_zipf_s", 0.8)))
def test_a_profile_with_a_content_key_is_refused(capsys, tmp_path, key, value):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({**builtin_profile("flash-crowd").to_dict(), key: value}))
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        load_profile(str(path))
    assert main(["workload", str(path), "--sample", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("cannot load workload profile: ") and repr(key) in line
