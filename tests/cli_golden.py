"""A golden record of the ``repro`` command line.

Two parts, both under ``tests/fixtures/cli/``:

* ``options.json`` -- the option table of ``repro`` and of every
  subcommand: option strings, dest, default, type name, choices, nargs,
  required and argument group, in parser order. Unlike ``--help`` text
  it does not depend on the Python version.
* ``argv/*.txt`` -- stdout, stderr and exit status of one cheap argv per
  subcommand (plus a few refusals), run in-process, with temporary paths
  and host-time text masked.

``tests/test_cli_golden.py`` compares a fresh record with the committed
one. After a deliberate change to the command line, rewrite it with::

    PYTHONPATH=src python -m tests.cli_golden
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from repro.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures" / "cli"
#: a small ``--profile`` document, so ``repro profile`` prints no host time
PROFILE = "tests/fixtures/cli/profile.json"

#: id -> argv; ``{tmp}`` is a scratch directory shared by the whole
#: record, so the failover run's trace feeds the trace readers below it
ARGVS: dict[str, list[str]] = {
    "topology": ["topology", "--sites"],
    "seed-verbose-control-scoped": ["--seed", "7", "-v", "control", "--prepends", "3",
                                    "--scoped"],
    "failover": ["failover", "-t", "anycast", "-s", "msn", "--targets", "3",
                 "--duration", "20", "--trace", "{tmp}/t.jsonl", "--metrics"],
    "failover-unknown-site": ["failover", "-s", "lhr"],
    "failover-silent": ["failover", "-t", "anycast", "-s", "msn", "--targets", "3",
                        "--duration", "20", "--silent", "--detection-delay", "5",
                        "--profile", "{tmp}/p.json"],
    "failover-zero-targets": ["failover", "--targets", "0"],
    "failover-unwritable-trace": ["failover", "-s", "msn", "--trace", "{tmp}/t.jsonl/sub.jsonl"],
    "failover-nan-duration-no-check": ["failover", "-s", "msn", "--duration", "nan",
                                       "--no-check"],
    "compare": ["compare", "--sites", "msn", "--targets", "3", "--duration", "20"],
    "compare-no-checkpoint": ["compare", "--sites", "msn", "--targets", "3", "--duration", "20",
                              "--no-checkpoint"],
    "compare-cell-timeout-nan": ["compare", "--cell-timeout", "nan"],
    "compare-workload": ["compare", "--sites", "msn", "--targets", "3", "--duration", "20",
                         "--workload", "constant"],
    "sweep": ["sweep", "-t", "anycast", "proactive-prepending", "--prepend", "2",
              "--sites", "msn", "sea1", "--targets", "3", "--duration", "20",
              "-o", "{tmp}/s.json"],
    "sweep-bad-workload": ["sweep", "--workload", "nosuch", "-o", "{tmp}/s.json"],
    "sweep-workers": ["sweep", "-t", "anycast", "--sites", "msn", "sea1", "--targets", "3",
                      "--duration", "20", "--workers", "2", "--cell-timeout", "60",
                      "--no-progress", "-o", "{tmp}/w.json"],
    "control": ["control", "--prepends", "3"],
    "appendix": ["appendix", "withdrawal"],
    "drill": ["drill", "-t", "anycast", "--clients", "3", "--deadline", "20"],
    "drill-check-invariants": ["drill", "-t", "anycast", "--clients", "3", "--deadline", "20",
                               "--check-invariants"],
    "drill-missing-plan": ["drill", "--faults", "{tmp}/absent.json"],
    "drill-missing-capacity": ["drill", "--capacity", "{tmp}/absent.json"],
    "playbook": ["playbook", "--drain", "ams", "--levels", "0", "3"],
    "scenario": ["scenario", "-t", "anycast", "-s", "msn", "-e", "fail:msn@10",
                 "--duration", "30", "--faults", "tests/fixtures/faults/one_timeline.json"],
    "scenario-drain": ["scenario", "-t", "anycast", "-s", "msn", "-e", "drain:msn@5",
                       "-e", "undrain:msn@15", "--duration", "30"],
    "scenario-refused": ["scenario", "-e", "recover:sea1@60", "--duration", "90"],
    "scenario-grace-nan": ["scenario", "-e", "fail:msn@10", "--duration", "30", "--grace", "nan"],
    "configgen": ["configgen", "-t", "reactive-anycast", "--site", "ams"],
    "configgen-out-dir": ["configgen", "-t", "reactive-anycast", "--site", "ams",
                          "-o", "{tmp}/bird"],
    "configgen-unknown-specific-site": ["configgen", "--specific-site", "nosuch"],
    "trace": ["trace", "summarize", "{tmp}/t.jsonl", "--top", "3"],
    "trace-kind": ["trace", "summarize", "{tmp}/t.jsonl", "--kind", "probe_lost"],
    "trace-negative-top": ["trace", "summarize", "{tmp}/t.jsonl", "--top", "-2"],
    "trace-prefix": ["trace", "summarize", "{tmp}/t.jsonl", "--prefix", "184.164.244.0/24",
                     "--top", "2"],
    "trace-missing": ["trace", "summarize", "{tmp}/absent.jsonl"],
    "trace-unreadable": ["trace", "summarize", "{tmp}/w.json"],
    "explain": ["explain", "{tmp}/t.jsonl", "--site", "msn"],
    "explain-prefix": ["explain", "{tmp}/t.jsonl", "--prefix", "184.164.244.0/24"],
    "report": ["report", "{tmp}/t.jsonl"],
    "report-json": ["report", "{tmp}/t.jsonl", "--json", "{tmp}/ledger.json"],
    "profile": ["profile", PROFILE, "--top", "3"],
    "profile-negative-top": ["profile", PROFILE, "--top", "-1"],
    "lint": ["lint", "--select", "DET011", "src/repro/topology"],
    "lint-list-rules": ["lint", "--list-rules"],
    "lint-unknown-rule": ["lint", "--select", "DET999"],
    "lint-ignore": ["lint", "--ignore", "DET011", "src/repro/topology"],
    "verify": ["verify", "-t", "anycast", "proactive-prepending", "--prepend", "5",
               "--duration", "100"],
    "verify-fixture": ["verify", "tests/fixtures/verify/bad_gao_cycle.json", "-f", "json"],
    "verify-select": ["verify", "--select", "VER203"],
    "verify-site-strict-ignore": ["verify", "-s", "msn", "--strict", "--ignore", "VER223"],
    "verify-capacity-unknown": ["verify", "tests/fixtures/verify/bad_capacity_unknown.json"],
    "verify-capacity-vacuous": ["verify", "tests/fixtures/verify/bad_capacity_vacuous.json"],
    "verify-fault-unknown": ["verify", "tests/fixtures/verify/bad_fault_unknown.json"],
    "verify-fault-vacuous": ["verify", "tests/fixtures/verify/bad_fault_vacuous.json"],
    "verify-plan-vacuous": ["verify", "tests/fixtures/verify/bad_plan_vacuous.json"],
    "verify-dispute-wheel": ["verify", "tests/fixtures/verify/bad_dispute_wheel.json"],
    "verify-damping": ["verify", "tests/fixtures/verify/bad_damping.json"],
    "verify-dead-prefix": ["verify", "tests/fixtures/verify/bad_dead_prefix.json"],
    "verify-superprefix": ["verify", "tests/fixtures/verify/bad_superprefix.json"],
    "verify-site-dark": ["verify", "tests/fixtures/verify/bad_site_dark.json"],
    "verify-list-checks": ["verify", "--list-checks"],
    "verify-missing-world": ["verify", "{tmp}/absent.json"],
    "verify-duration-nan": ["verify", "-t", "anycast", "--duration", "nan"],
    "verify-duration-inf": ["verify", "-t", "anycast", "--duration", "inf"],
    "verify-duration-negative": ["verify", "-t", "anycast", "--faults", "examples/faultplan.json",
                                 "--duration", "-5"],
    "workload": ["workload", "flash-crowd", "--sample", "3"],
    "workload-negative-sample": ["workload", "flash-crowd", "--sample", "-1"],
    "workload-diurnal": ["workload", "diurnal"],
    "workload-json": ["workload", "flash-crowd", "--json"],
    "workload-check": ["workload", "examples/workload_flashcrowd.json", "--check"],
}

#: host-time text: sweep's ``in 0.2s``, the wall histograms of the
#: ``--metrics`` dump
_HOST_TIME = (
    (re.compile(r" in \d+\.\d+s "), " in <wall>s "),
    (re.compile(r"(?m)^((?:engine\.callback_wall_us|phase\.\S+\.wall_s) +).*$"), r"\1<wall>"),
)
#: the wall total, wall mean and sim/wall columns of the phase table,
#: masked only for the argvs that print it from a live run (``profile``
#: reads a fixed fixture, so its golden pins them)
_PHASE_WALL = (
    re.compile(r"(?m)^(  \S+ +\d+ +)\d+\.\d{3}s +\d+\.\d{3}s( +\d+\.\ds) +\d+\.\dx$"),
    r"\1<wall>s <wall>s\2 <wall>x",
)
LIVE_PHASE_TABLES = {"trace"}


def _group_of(parser: argparse.ArgumentParser) -> dict[int, str]:
    return {
        id(action): group.title
        for group in parser._action_groups
        for action in group._group_actions
    }


def _rows(parser: argparse.ArgumentParser, name: str) -> list[dict]:
    groups = _group_of(parser)
    rows = []
    children = []
    for action in parser._actions:
        choices = action.choices
        if isinstance(choices, dict):
            children += list(choices.items())
            choices = list(choices)
        elif choices is not None:
            choices = list(choices)
        rows.append({
            "parser": name,
            "options": list(action.option_strings),
            "dest": action.dest,
            "default": repr(action.default),
            "type": getattr(action.type, "__name__", None),
            "choices": choices,
            "nargs": action.nargs,
            "required": action.required,
            "group": groups.get(id(action)),
        })
    for child_name, child in children:
        rows += _rows(child, f"{name} {child_name}")
    return rows


def option_table() -> list[dict]:
    """Every option of every parser under ``repro``, in parser order."""
    return _rows(build_parser(), "repro")


def run_argv(argv: list[str], tmp: str, live_phases: bool = False) -> str:
    """``$ repro ARGV``, the exit status, stdout and stderr, as one text
    (``live_phases``: its phase table comes from a live run)."""
    argv = [arg.format(tmp=tmp) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = str(main(argv))
        except SystemExit as usage:
            status = str(usage.code)
        except Exception as error:  # a traceback is a result worth recording
            status = f"raised {type(error).__name__}: {error}"
    text = (
        f"$ repro {' '.join(argv)}\n--- exit {status}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )
    text = text.replace(tmp, "<tmp>")
    for pattern, mask in _HOST_TIME + ((_PHASE_WALL,) if live_phases else ()):
        text = pattern.sub(mask, text)
    return text


def record() -> dict[str, str]:
    """id -> the record of each argv, run in ``ARGVS`` order (usage
    errors wrapped at 80 columns, whatever the terminal)."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with tempfile.TemporaryDirectory() as tmp:
            return {
                name: run_argv(argv, tmp, name in LIVE_PHASE_TABLES)
                for name, argv in ARGVS.items()
            }
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def write() -> None:
    (FIXTURES / "argv").mkdir(parents=True, exist_ok=True)
    rows = ",\n".join(json.dumps(row) for row in option_table())
    (FIXTURES / "options.json").write_text(f"[\n{rows}\n]\n")
    for name, text in record().items():
        (FIXTURES / "argv" / f"{name}.txt").write_text(text)


if __name__ == "__main__":
    write()
    sys.exit(0)
