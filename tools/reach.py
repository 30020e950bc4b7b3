#!/usr/bin/env python3
"""Which functions under ``src/repro`` does anything people run reach?

Five sources stand for "what people run":

* ``paper-table`` -- ``pytest benchmarks --benchmark-only``, which
  regenerates ``benchmarks/results.md``;
* ``cli-golden`` -- ``pytest tests/test_cli_golden.py``, one argv per
  subcommand plus the refusals;
* ``lint`` -- ``python -m repro.cli lint src/repro``;
* ``smoke`` -- every ``run:`` block of the smoke job in
  ``.github/workflows/ci.yml``, run by bash as CI runs it;
* ``bench`` -- ``bench/run.py --workload W --seconds 0.1 --trace 0|1``
  for every workload in ``bench/spec.py``.

Each runs in child interpreters on a copy of the working tree, with a
call hook installed by a generated ``sitecustomize.py`` that records
every code object entered. A function is reached when its code object
was entered by any process of the source; its lines are the lines of
its ``def`` (from the first decorator) to its end, less the lines of
the functions nested in it, so every function line of ``src/repro`` is
counted once.

The report gives the reach of each source and of their union, then
every unreached function by file. The exit status is 1 when a source
command fails, when an unreached function is not in :data:`KEPT`, or
when a :data:`KEPT` key names no function; 0 otherwise. Run it from
anywhere (about three minutes on two cores, mostly the bench batches)::

    python tools/reach.py

The hook has three traps to step round: pytest-benchmark clears the
tracer around every timed call (``PauseInstrumentation``), so the hook
keeps its own tracer whatever ``sys.settrace`` is asked for; forked pool
workers leave through ``os._exit``, where no ``atexit`` runs, so the
hook writes its record before ``os._exit`` too; and the smoke steps set
``PYTHONPATH=src`` themselves, so ``python`` on their ``PATH`` is a shim
that puts the hook directory back in front.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _kept(reason: str, *keys: str) -> dict[str, str]:
    return dict.fromkeys(keys, reason)


#: ``path::qualname`` (path under ``src``) -> why nothing run reaches it
#: and it stays anyway
KEPT: dict[str, str] = {
    **_kept(
        "Python protocol or debugging face: repr(), dir(), len(), int(), in, iter()",
        "repro/__init__.py::lazy_exports.__dir__",
        "repro/bgp/router.py::BgpRouter.__repr__",
        "repro/measurement/stats.py::Cdf.__repr__",
        "repro/net/addr.py::IPv4Address.__repr__",
        "repro/net/addr.py::IPv4Address.__int__",
        "repro/net/addr.py::IPv4Prefix.__repr__",
        "repro/net/lpm.py::LpmTable.__len__",
        "repro/net/lpm.py::LpmTable.__contains__",
        "repro/telemetry/metrics.py::Counter.__repr__",
        "repro/telemetry/metrics.py::Gauge.__repr__",
        "repro/telemetry/metrics.py::Histogram.__repr__",
        "repro/telemetry/trace.py::TraceRecorder.__iter__",
        "repro/topology/relationships.py::RelationshipDataset.__len__",
    ),
    **_kept(
        "a base every subclass overrides",
        "repro/analysis/rules.py::LintRule.check",
        "repro/faults/plan.py::FaultSpec.actions",
    ),
    **_kept(
        "the null backend's face of the Telemetry API: instrumented code calls the live one",
        "repro/telemetry/registry.py::NullTelemetry.counter",
        "repro/telemetry/registry.py::NullTelemetry.gauge",
        "repro/telemetry/registry.py::NullTelemetry.histogram",
        "repro/telemetry/registry.py::NullTelemetry.set_gauge",
        "repro/telemetry/registry.py::NullTelemetry.observe",
        "repro/telemetry/registry.py::NullTelemetry.emit",
    ),
    "repro/bgp/engine.py::CallbackError.__init__": "raised only when an event callback raises",
    "repro/fields.py::_refuse": "raised only on a malformed document",
    "repro/parallel/pool.py::map_cells.fail_cell": "runs only when a pool worker crashes or hangs",
    **_kept(
        "checkpoint of a damped network: no source forks a damped run",
        "repro/bgp/damping.py::RouteDamping.export_state",
        "repro/bgp/damping.py::RouteDamping.import_state",
    ),
    **_kept(
        "a snapshot read from bytes or a spawn-started worker: forked workers inherit theirs",
        "repro/bgp/route.py::Route.__setstate__",
        "repro/checkpoint/codec.py::NetworkSnapshot.loads",
        "repro/core/experiment.py::FailoverExperiment.__setstate__",
    ),
    "repro/bgp/network.py::BgpNetwork.fail_node": "a node fault: no source's plan fails a node",
    "repro/faults/injector.py::FaultInjector._fib_delay_start.delayed":
        "a fib-delay fault: no source's plan has one",
    "repro/dataplane/forwarding.py::ForwardingPlane.take":
        "a quiet window that opens with replies in the air (tests/test_probe_rounds.py)",
    "repro/obs/ledger.py::AvailabilityLedger.workload_by_technique":
        "repro report over a --workload trace",
    "repro/obs/provenance.py::CauseChain.prefixes": "repro explain --prefix",
    "repro/telemetry/trace.py::Run.label": "repro explain over a sweep's trace",
    "repro/verify/disputes.py::max_suppression_seconds":
        "VER213 on a damped world that sets a duration",
    **_kept(
        "sweep progress: a CLI sweep over --workers 2 or more",
        "repro/parallel/progress.py::ProgressPrinter.__init__",
        "repro/parallel/progress.py::ProgressPrinter.__call__",
        "repro/parallel/progress.py::ProgressPrinter.close",
    ),
    **_kept(
        "library API the tests build or inspect with; no command needs it",
        "repro/analysis/findings.py::FindingCollector.add",
        "repro/analysis/findings.py::FindingCollector.warnings",
        "repro/analysis/linter.py::lint_paths",
        "repro/bgp/collector.py::RouteCollector.peers",
        "repro/bgp/damping.py::RouteDamping.is_suppressed",
        "repro/bgp/damping.py::RouteDamping.penalty",
        "repro/bgp/engine.py::EventEngine.processed",
        "repro/bgp/engine.py::EventEngine.run_until_idle",
        "repro/bgp/network.py::BgpNetwork.add_provider",
        "repro/bgp/network.py::BgpNetwork.add_peering",
        "repro/bgp/network.py::BgpNetwork.neighbors",
        "repro/core/metrics.py::TargetOutcome.stabilized",
        "repro/core/scenarios.py::ScenarioReport.worst_bucket",
        "repro/core/scenarios.py::ScenarioRunner.drain",
        "repro/core/scenarios.py::ScenarioRunner.undrain",
        "repro/core/scenarios.py::ScenarioRunner.brownout",
        "repro/core/scenarios.py::ScenarioRunner.unbrownout",
        "repro/dataplane/forwarding.py::ForwardingPlane.forward",
        "repro/dataplane/traceroute.py::ReverseTraceroute.measure",
        "repro/faults/invariants.py::InvariantReport.ok",
        "repro/faults/invariants.py::InvariantReport.format_lines",
        "repro/faults/plan.py::FaultSpec.to_dict",
        "repro/faults/plan.py::FaultPlan.to_dict",
        "repro/faults/plan.py::FaultPlan.to_json",
        "repro/measurement/export.py::control_result_to_dict",
        "repro/measurement/export.py::load_json",
        "repro/net/addr.py::IPv4Prefix.of",
        "repro/net/addr.py::IPv4Prefix.supernet",
        "repro/net/lpm.py::LpmTable.clear",
        "repro/obs/profiler.py::callback_name",
        "repro/obs/provenance.py::CauseChain.t",
        "repro/telemetry/metrics.py::Histogram.observe_many",
        "repro/telemetry/metrics.py::Histogram.median",
        "repro/telemetry/registry.py::Telemetry.set_gauge",
        "repro/telemetry/trace.py::TraceRecorder.events_of",
        "repro/topology/geo.py::rtt_ms",
        "repro/topology/testbed.py::CdnDeployment.capacity_for",
        "repro/topology/testbed.py::CdnDeployment.site_info",
        "repro/verify/checks.py::all_checks",
        "repro/workload/capacity.py::CapacityProfile.to_dict",
        "repro/workload/profile.py::RateShape.to_dict",
        "repro/workload/profile.py::WorkloadProfile.to_dict",
    ),
}

HOOK = '''\
"""Record every code object entered; written out when the process ends."""
import atexit
import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
if _OUT:
    _seen = set()
    _settrace = sys.settrace
    _exit = os._exit

    def _tracer(frame, event, arg):
        _seen.add(frame.f_code)  # a global tracer hears only "call" events

    def _dump():
        codes = list(_seen)  # the tracer still runs and adds this frame's code
        _seen.clear()
        lines = {f"{os.path.abspath(code.co_filename)}\\t{code.co_firstlineno}\\n"
                 for code in codes if "repro" in code.co_filename}
        if lines:
            name = os.path.join(_OUT, f"{os.getpid()}-{os.urandom(4).hex()}")
            with open(name, "w") as out:
                out.writelines(lines)

    def _keep_tracer(function):
        _settrace(_tracer)

    def _exit_after_dump(code):
        _dump()
        _exit(code)

    sys.settrace = _keep_tracer
    threading.settrace(_tracer)
    os._exit = _exit_after_dump
    os.register_at_fork(after_in_child=_seen.clear)
    atexit.register(_dump)
    _settrace(_tracer)
'''

SHIM = '''\
#!/bin/sh
PYTHONPATH="{hook}${{PYTHONPATH:+:$PYTHONPATH}}" exec {python} "$@"
'''

#: what the copy of the tree leaves out
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".benchmarks", "*.egg-info")


@dataclass(frozen=True)
class Function:
    path: str  # under src, e.g. "repro/net/lpm.py"
    qualname: str
    first: int  # the code object's first line: the first decorator's
    lines: int  # its own lines, nested functions taken out

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def _first_line(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    return min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])


def functions(src: Path) -> list[Function]:
    """Every function defined under ``src/repro``, with its own lines."""
    found: list[Function] = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for file in sorted((src / "repro").rglob("*.py")):
        path = file.relative_to(src).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, defs):
                    qualname = f"{prefix}{child.name}"
                    own = set(range(_first_line(child), child.end_lineno + 1))
                    for inner in ast.walk(child):
                        if inner is not child and isinstance(inner, defs):
                            own -= set(range(_first_line(inner), inner.end_lineno + 1))
                    found.append(Function(path, qualname, _first_line(child), len(own)))
                    visit(child, f"{qualname}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(file.read_text(), filename=str(file)), "")
    return found


def smoke_steps(workflow: Path) -> list[tuple[str, str]]:
    """⟨name, script⟩ of every ``run:`` step of CI's smoke job but the install."""
    import yaml

    steps = yaml.safe_load(workflow.read_text())["jobs"]["smoke"]["steps"]
    return [(step["name"], step["run"]) for step in steps
            if "run" in step and "pip install" not in step["run"]]


def sources() -> dict[str, list[tuple[str, list[str]]]]:
    """source -> its commands, each ⟨label, argv⟩, run from the copy's root
    (``python`` is the shim that keeps the hook on the path)."""
    python = "python"
    sys.path.insert(0, str(REPO_ROOT / "bench"))
    import spec

    bench = [
        (f"{workload} --trace {trace}",
         [python, "bench/run.py", "--workload", workload, "--seconds", "0.1",
          "--trace", str(trace)])
        for workload in spec.WORKLOAD_NAMES for trace in (0, 1)
    ]
    smoke = [(name, ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script])
             for name, script in smoke_steps(REPO_ROOT / ".github/workflows/ci.yml")]
    return {
        "paper-table": [("pytest benchmarks", [python, "-m", "pytest", "benchmarks", "-q",
                                               "-p", "no:cacheprovider", "--benchmark-only"])],
        "cli-golden": [("pytest tests/test_cli_golden.py",
                        [python, "-m", "pytest", "tests/test_cli_golden.py", "-q",
                         "-p", "no:cacheprovider"])],
        "lint": [("repro lint src/repro", [python, "-m", "repro.cli", "lint", "src/repro"])],
        "smoke": smoke,
        "bench": bench,
    }


def reached(out: Path, src: Path) -> set[tuple[str, int]]:
    """⟨path under src, first line⟩ of every code object the dumps name."""
    seen: set[tuple[str, int]] = set()
    for dump in sorted(out.iterdir()):
        for line in dump.read_text().splitlines():
            filename, first = line.rsplit("\t", 1)
            try:
                path = Path(os.path.realpath(filename)).relative_to(src).as_posix()
            except ValueError:  # another "repro" on the path, not this tree
                continue
            seen.add((path, int(first)))
    return seen


def run_sources(work: Path, hook: Path) -> tuple[dict[str, set[tuple[str, int]]], list[str]]:
    """Run every source on the copy; its reach per source and the commands that failed."""
    shim = hook / "bin"
    shim.mkdir()
    (shim / "python").write_text(SHIM.format(hook=hook, python=sys.executable))
    (shim / "python").chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = f"{shim}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = os.pathsep.join([str(hook), str(work / "src"), str(work)])
    src = (work / "src").resolve()
    reach: dict[str, set[tuple[str, int]]] = {}
    failed: list[str] = []
    for source, commands in sources().items():
        out = hook / "out" / source
        out.mkdir(parents=True)
        started = time.perf_counter()
        for label, argv in commands:
            done = subprocess.run(argv, cwd=work, env={**env, "REACH_OUT": str(out)},
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                failed.append(f"{source}: {label} exited {done.returncode}")
                print(done.stdout[-4000:], file=sys.stderr)
        reach[source] = reached(out, src)
        print(f"ran {source}: {len(commands)} command(s) in "
              f"{time.perf_counter() - started:.0f} s", file=sys.stderr, flush=True)
    return reach, failed


def report(every: list[Function], reach: dict[str, set[tuple[str, int]]]) -> list[Function]:
    """Print the reach table and the unreached functions; return those not kept."""
    total = sum(f.lines for f in every)
    union = set().union(*reach.values())

    def row(name: str, seen: set[tuple[str, int]]) -> str:
        hit = [f for f in every if (f.path, f.first) in seen]
        lines = sum(f.lines for f in hit)
        return (f"{name:<12} {len(hit):>6} {len(every):>6} {lines:>7} {total:>7} "
                f"{100 * lines / total:>6.1f} %")

    print(f"{'source':<12} {'funcs':>6} {'of':>6} {'lines':>7} {'of':>7} {'reach':>8}")
    for name, seen in reach.items():
        print(row(name, seen))
    print(row("union", union))

    unreached = [f for f in every if (f.path, f.first) not in union]
    print(f"\nunreached: {len(unreached)} function(s), "
          f"{sum(f.lines for f in unreached)} line(s)")
    refused: list[Function] = []
    path = None
    for function in unreached:
        if function.path != path:
            path = function.path
            print(f"  {path}")
        reason = KEPT.get(function.key)
        if reason is None:
            refused.append(function)
        note = f"kept: {reason}" if reason is not None else "NOT KEPT"
        print(f"    {function.first:>5} {function.qualname} ({function.lines} lines) -- {note}")
    return refused


def main() -> int:
    every = functions(REPO_ROOT / "src")
    stale = sorted(set(KEPT) - {f.key for f in every})
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        work = Path(scratch) / "tree"
        shutil.copytree(REPO_ROOT, work, ignore=SKIP, symlinks=True)
        hook = Path(scratch) / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        reach, failed = run_sources(work, hook)
    refused = report(every, reach)
    for key in stale:
        print(f"KEPT names no function: {key}")
    for line in failed:
        print(f"source failed: {line}")
    if refused:
        print(f"\n{len(refused)} unreached function(s) not in KEPT: reach them from a "
              "command, the paper table, a bench workload or CI, or delete them")
    return 1 if refused or stale or failed else 0


if __name__ == "__main__":
    sys.exit(main())
