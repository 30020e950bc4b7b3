#!/usr/bin/env python3
"""Which functions, and which of their lines, under ``src/repro`` does
anything people run reach?

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
line tracer installed by a generated ``sitecustomize.py``: for every
``repro`` code object a process enters, it records the lines that run,
and it stops tracing a code object once all of its ``co_lines()`` have
run. A function is its code object, found by compiling each source file
(lambdas and comprehensions are not functions of their own); its lines
are that code object's lines. A function is reached when any process of
a source entered it; a line is reached when it ran in its function.

The report gives function and line reach of each source and of their
union, the unexecuted lines inside reached functions by file, every
unexecuted line of a :data:`TRIAGED` file by function, and every
unreached function by file. The exit status is 1 when a source command
fails, when an unreached function is not in :data:`KEPT` or a reached
one is, when a :data:`TRIAGED` file has an unexecuted line in a
function that :data:`UNRUN` does not list, when a :data:`KEPT` or
:data:`UNRUN` key names no function, or when the union's line reach is
below :data:`LINE_FLOOR`; 0 otherwise. Run it from anywhere (about five
minutes on two cores, mostly the bench batches)::

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

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

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
        "repro/bgp/collector.py::RouteCollector.peers",
        "repro/bgp/damping.py::RouteDamping.is_suppressed",
        "repro/bgp/damping.py::RouteDamping.penalty",
        "repro/bgp/engine.py::EventEngine.processed",
        "repro/bgp/engine.py::EventEngine.run_until_idle",
        "repro/bgp/network.py::BgpNetwork.neighbors",
        "repro/dataplane/forwarding.py::ForwardingPlane.forward",
        "repro/net/addr.py::IPv4Prefix.of",
        "repro/telemetry/trace.py::TraceRecorder.events_of",
    ),
}

#: the files whose every unexecuted line inside a reached function is
#: accounted for: its function is in :data:`UNRUN`
TRIAGED = frozenset({
    "repro/analysis/preflight.py",
    "repro/analysis/rules.py",
    "repro/checkpoint/codec.py",
    "repro/cli/common.py",
    "repro/faults/invariants.py",
    "repro/parallel/pool.py",
    "repro/verify/capacity.py",
    "repro/verify/plans.py",
    "repro/verify/vacuity.py",
    "repro/workload/profile.py",
})

#: ``path::qualname`` of a reached function in a :data:`TRIAGED` file ->
#: why its unexecuted lines stay
UNRUN: dict[str, str] = {
    "repro/analysis/preflight.py::check_events":
        "PRE105-PRE107 on a user timeline (-e, --faults): checks on outside input; the "
        "scenario-refused golden runs the recover row, tests/test_analysis_preflight.py the rest",
    "repro/analysis/preflight.py::check_topology":
        "PRE121 on an AS with no links: a check on what a library caller builds "
        "(tests/test_analysis_preflight.py); its lines are the function's where Python "
        "3.12 inlines the comprehension",
    "repro/analysis/preflight.py::check_prefix_plan":
        "PRE112: no command line can announce a prefix that misses the probe source; a "
        "check on what a library caller passes (tests/test_analysis_preflight.py)",
    "repro/analysis/preflight.py::check_deployment":
        "PRE122 / PRE123 on a broken deployment: checks on what a library caller builds "
        "(tests/test_analysis_preflight.py)",
    "repro/analysis/preflight.py::check_workload":
        "PRE143 (an unknown rate shape) and PRE145 (the volume ceiling) on a user profile: "
        "checks on outside input (tests/test_workload_profile.py)",
    "repro/analysis/preflight.py::check_capacity":
        "PRE153 on a capacity total below the workload's base rate: a check on outside "
        "input (tests/test_workload_capacity.py)",
    **_kept(
        "a finding, or a file outside the repro package: the lint source lints the shipped "
        "package, which CI holds clean (tests/test_analysis_rules.py trips each rule)",
        "repro/analysis/rules.py::UnseededRandom.check",
        "repro/analysis/rules.py::ModuleLevelRandom.check",
        "repro/analysis/rules.py::HashDerivedSeed.check",
        "repro/analysis/rules.py::SetIterationOrder.check",
        "repro/analysis/rules.py::FloatTimeEquality.check",
        "repro/analysis/rules.py::MutableDefaultArgument.check",
        "repro/analysis/rules.py::OsEntropy.check",
        "repro/analysis/rules.py::SetToSequence.check",
        "repro/analysis/rules.py::UnsortedFsIteration.check",
        "repro/analysis/rules.py::SingleCallSite.check",
        "repro/analysis/rules.py::NumpyTranscendental.check",
        "repro/analysis/rules.py::UnusedImport.check",
        "repro/analysis/rules.py::UndefinedAnnotationName.check",
        "repro/analysis/rules.py::UndefinedAnnotationName._visit",
    ),
    **_kept(
        "a code shape the shipped package does not hold -- a seed passed by keyword, a "
        "top-level try, an unparsable quoted annotation, __all__, a star import, Literal "
        "(tests/test_analysis_rules.py lints most of them)",
        "repro/analysis/rules.py::_call_args",
        "repro/analysis/rules.py::_module_level",
        "repro/analysis/rules.py::_used_names",
        "repro/analysis/rules.py::_module_bindings",
        "repro/analysis/rules.py::_annotation_names",
    ),
    "repro/checkpoint/codec.py::snapshot_network":
        "NotQuiescentError on queued events or a running MRAI timer (tests/test_update_path.py, "
        "tests/test_checkpoint_codec.py), and a damped router's state: no source forks a "
        "damped network (tests/test_checkpoint_codec.py)",
    "repro/checkpoint/codec.py::restore_network":
        "a snapshot of another schema, damping state without its config or a session without "
        "its link entry: checks on a snapshot read from bytes; a lossy link: no source forks "
        "one (tests/test_checkpoint_codec.py)",
    "repro/checkpoint/codec.py::rewind_network":
        "a reshaped network or a router the snapshot lacks: refusals of a misuse "
        "(tests/test_checkpoint_rewind.py)",
    "repro/checkpoint/codec.py::_load":
        "a damped router's state: no source forks a damped network "
        "(tests/test_checkpoint_codec.py)",
    "repro/cli/common.py::Prologue.pool":
        "the progress line of a parallel sweep prints host wall time and completion "
        "order, which no golden can hold",
    "repro/cli/common.py::Prologue.sweep":
        "a sweep cell that crashes or times out (tests/test_cli.py)",
    "repro/cli/common.py::print_result": "a result printed into a closed pipe (| head)",
    **_kept(
        "a violated invariant: no source's run breaks one "
        "(tests/test_faults_invariants.py breaks each on purpose)",
        "repro/faults/invariants.py::check_invariants",
        "repro/faults/invariants.py::_forwarding_loops",
        "repro/faults/invariants.py::_advertised_sync",
        "repro/faults/invariants.py::_rib_fib_coherence",
    ),
    "repro/parallel/pool.py::_pick_context": "a platform without fork starts spawn workers",
    "repro/parallel/pool.py::_run_one":
        "a cell that raises in a worker (tests/test_parallel_pool.py)",
    "repro/parallel/pool.py::_worker_main": "a parent that dies while its workers wait",
    "repro/parallel/pool.py::map_cells":
        "a refused timeout from a library caller (the CLI refuses it first), a cell that "
        "raises, a serial run with a progress callback, a crashed or timed-out worker, an "
        "interrupted sweep (tests/test_parallel_pool.py)",
    "repro/parallel/pool.py::map_cells.assign_or_retire":
        "a worker that died before its exit sentinel",
    "repro/parallel/pool.py::map_cells.record":
        "the progress line of a parallel sweep prints host wall time and completion order, "
        "which no golden can hold",
    "repro/parallel/pool.py::merge_telemetry":
        "a crashed cell under telemetry, and the cell-bracketed trace of a parallel "
        "--trace run, which no source writes (tests/test_parallel_pool.py)",
    "repro/verify/capacity.py::check_capacity_vacuity":
        "VER243 on a profile that limits no site or none below the peak: checks on outside "
        "input (tests/test_verify_checks.py); the verify-capacity-vacuous golden runs the first",
    "repro/verify/plans.py::check_dead_prefix":
        "a world with no web-client AS: a check on outside input; the verify-dead-prefix "
        "golden runs the finding",
    "repro/verify/plans.py::check_superprefix_cover":
        "VER222 on a superprefix equal to the specific prefix: a check on outside input "
        "(tests/test_verify_checks.py); the verify-superprefix golden runs the uncovered one",
    "repro/verify/vacuity.py::check_timeline":
        "VER231-VER233 on an empty plan, an unknown site or node, a missing link or an "
        "uncovered node: checks on outside input (tests/test_verify_checks.py); the "
        "verify-fault-* and verify-plan-vacuous goldens run the others",
    **_kept(
        "the constant shape only a JSON profile names, and an unknown kind past "
        "--no-check (PRE143 refuses it first): outside input (tests/test_workload_profile.py)",
        "repro/workload/profile.py::RateShape.value_at",
        "repro/workload/profile.py::RateShape.values_at",
        "repro/workload/profile.py::RateShape.peak",
    ),
    "repro/workload/profile.py::builtin_profile":
        "an unknown name from a library caller (bench/workloads.py calls it directly; "
        "load_profile checks the name first)",
    "repro/workload/profile.py::profile_from_dict":
        "a profile file of another schema: a check on outside input "
        "(tests/test_workload_profile.py)",
    "repro/workload/profile.py::load_profile":
        "a profile file that is not JSON: a check on outside input "
        "(tests/test_workload_profile.py)",
}

#: the union's line reach, in percent, below which the run fails: 87.2 %
#: was measured on Python 3.11 when line reach was first gated, less a
#: margin for what one Python version compiles to lines and another not
LINE_FLOOR = 85.0

HOOK = """\
\"\"\"Record the lines each repro code object runs; written out when the process ends.\"\"\"
import atexit
import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
if _OUT:
    _unseen = {}  # id(code) -> (code, its lines not yet run)
    _local = {}  # id(code) -> the local tracer of its frames
    _skip = {}  # id(code) -> code not traced: not repro's, or every line run
    _settrace = sys.settrace
    _exit = os._exit

    def _lines(code):
        return {line for _, _, line in code.co_lines() if line is not None}

    def _watch(code):
        # The local tracer of code's frames, or None when it is not traced
        # (the maps hold code, so no other object takes its id).
        key = id(code)
        if "repro" not in code.co_filename:
            _skip[key] = code
            return None
        unseen = _lines(code) - {code.co_firstlineno}  # the "call" event's line
        _unseen[key] = (code, unseen)
        if not unseen:
            _skip[key] = code
            return None

        def local(frame, event, arg):
            if event == "line":
                unseen.discard(frame.f_lineno)
                if not unseen:
                    _skip[key] = code
                    frame.f_trace = None  # a None return keeps a frame's tracer
                    return None
            return local

        _local[key] = local
        return local

    def _tracer(frame, event, arg):
        key = id(frame.f_code)
        if key in _skip:
            return None
        return _local.get(key) or _watch(frame.f_code)

    def _dump():
        records = [
            f"{os.path.abspath(code.co_filename)}\\t{code.co_firstlineno}\\t"
            + " ".join(map(str, sorted(_lines(code) - unseen | {code.co_firstlineno})))
            + "\\n"
            for code, unseen in list(_unseen.values())
        ]
        if records:
            name = os.path.join(_OUT, f"{os.getpid()}-{os.urandom(4).hex()}")
            with open(name, "w") as out:
                out.writelines(records)

    def _keep_tracer(function):
        _settrace(_tracer)

    def _exit_after_dump(code):
        _dump()
        _exit(code)

    sys.settrace = _keep_tracer
    threading.settrace(_tracer)
    os._exit = _exit_after_dump
    atexit.register(_dump)
    _settrace(_tracer)
"""

SHIM = """\
#!/bin/sh
PYTHONPATH="{hook}${{PYTHONPATH:+:$PYTHONPATH}}" exec {python} "$@"
"""

#: what the copy of the tree leaves out
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".benchmarks", "*.egg-info")

#: ⟨path under src, first line⟩ -> the lines that ran there
Reach = dict[tuple[str, int], set[int]]


@dataclass(frozen=True)
class Function:
    path: str  # under src, e.g. "repro/net/lpm.py"
    qualname: str
    first: int  # the code object's first line: the first decorator's
    lines: frozenset[int]  # its code object's lines

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def functions(src: Path) -> list[Function]:
    """Every function defined under ``src/repro``, from its compiled code."""
    found: list[Function] = []
    for file in sorted((src / "repro").rglob("*.py")):
        path = file.relative_to(src).as_posix()

        def visit(code: CodeType, prefix: str) -> None:
            for inner in code.co_consts:
                if not isinstance(inner, CodeType) or inner.co_name.startswith("<"):
                    continue  # lambdas and comprehensions belong to their function
                qualname = f"{prefix}{inner.co_name}"
                if inner.co_flags & CO_OPTIMIZED:
                    lines = frozenset(line for _, _, line in inner.co_lines() if line is not None)
                    found.append(Function(path, qualname, inner.co_firstlineno, lines))
                visit(inner, f"{qualname}.")  # a class body's qualname is its name

        visit(compile(file.read_text(), str(file), "exec"), "")
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


def reached(out: Path, src: Path) -> Reach:
    """The lines that ran in each code object of this tree the dumps name."""
    seen: Reach = {}
    for dump in sorted(out.iterdir()):
        for record in dump.read_text().splitlines():
            filename, first, lines = record.split("\t")
            try:
                path = Path(os.path.realpath(filename)).relative_to(src).as_posix()
            except ValueError:  # another "repro" on the path, not this tree
                continue
            seen.setdefault((path, int(first)), set()).update(map(int, lines.split()))
    return seen


def run_sources(work: Path, hook: Path) -> tuple[dict[str, Reach], list[str]]:
    """Run every source on the copy; its reach per source and the commands that failed."""
    shim = hook / "bin"
    shim.mkdir()
    (shim / "python").write_text(SHIM.format(hook=hook, python=sys.executable))
    (shim / "python").chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = f"{shim}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = os.pathsep.join([str(hook), str(work / "src"), str(work)])
    src = (work / "src").resolve()
    reach: dict[str, Reach] = {}
    failed: list[str] = []
    for source, commands in sources().items():
        out = hook / "out" / source
        out.mkdir(parents=True)
        started = time.perf_counter()
        for label, argv in commands:
            began = time.perf_counter()
            done = subprocess.run(argv, cwd=work, env={**env, "REACH_OUT": str(out)},
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                failed.append(f"{source}: {label} exited {done.returncode}")
                print(done.stdout[-4000:], file=sys.stderr)
            if source == "bench":  # each batch must stay inside bench/run.py's child timeout
                print(f"  {label}: {time.perf_counter() - began:.1f} s", file=sys.stderr)
        reach[source] = reached(out, src)
        print(f"ran {source}: {len(commands)} command(s) in "
              f"{time.perf_counter() - started:.0f} s", file=sys.stderr, flush=True)
    return reach, failed


def _ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5 9``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return " ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(every: list[Function], reach: dict[str, Reach]) -> list[str]:
    """Print the reach table, the unexecuted lines and the unreached
    functions; return what fails the run."""
    total = sum(len(f.lines) for f in every)
    union: Reach = {}
    for seen in reach.values():
        for key, lines in seen.items():
            union.setdefault(key, set()).update(lines)

    def row(name: str, seen: Reach) -> tuple[str, float]:
        hit = [f for f in every if (f.path, f.first) in seen]
        ran = sum(len(f.lines & seen[f.path, f.first]) for f in hit)
        return (f"{name:<12} {len(hit):>6} {len(every):>6} {100 * len(hit) / len(every):>6.1f} % "
                f"{ran:>7} {total:>7} {100 * ran / total:>6.1f} %"), 100 * ran / total

    print(f"{'source':<12} {'funcs':>6} {'of':>6} {'reach':>8} {'lines':>7} {'of':>7} {'reach':>8}")
    for name, seen in reach.items():
        print(row(name, seen)[0])
    text, line_reach = row("union", union)
    print(text)

    unrun = {f: sorted(f.lines - union[f.path, f.first]) for f in every
             if (f.path, f.first) in union and f.lines - union[f.path, f.first]}
    by_file: dict[str, list[Function]] = {}
    for function in unrun:
        by_file.setdefault(function.path, []).append(function)
    inside = sum(len(f.lines) for f in every if (f.path, f.first) in union)
    print(f"\nunexecuted inside reached functions: {sum(map(len, unrun.values()))} of "
          f"{inside} line(s)")
    for path, hit in sorted(by_file.items(), key=lambda item: -sum(len(unrun[f]) for f in item[1])):
        print(f"  {sum(len(unrun[f]) for f in hit):>5} {path}")

    problems = [f"KEPT lists a reached function: {f.key}"
                for f in every if f.key in KEPT and (f.path, f.first) in union]
    for path in sorted(TRIAGED):
        print(f"\nunexecuted lines of {path}")
        for function in by_file.get(path, []):
            reason = UNRUN.get(function.key)
            if reason is None:
                problems.append(f"unexecuted lines not in UNRUN: {function.key}")
            note = f"kept: {reason}" if reason is not None else "NOT KEPT"
            print(f"    {function.qualname} {_ranges(unrun[function])} -- {note}")

    unreached = [f for f in every if (f.path, f.first) not in union]
    print(f"\nunreached: {len(unreached)} function(s), "
          f"{sum(len(f.lines) for f in unreached)} line(s)")
    path = None
    for function in unreached:
        if function.path != path:
            path = function.path
            print(f"  {path}")
        reason = KEPT.get(function.key)
        if reason is None:
            problems.append(f"unreached function not in KEPT: {function.key}")
        note = f"kept: {reason}" if reason is not None else "NOT KEPT"
        print(f"    {function.first:>5} {function.qualname} ({len(function.lines)} lines) "
              f"-- {note}")
    if line_reach < LINE_FLOOR:
        problems.append(f"union line reach {line_reach:.1f} % is below LINE_FLOOR {LINE_FLOOR} %")
    return problems


def main() -> int:
    every = functions(REPO_ROOT / "src")
    keys = {f.key for f in every}
    problems = [f"{table} names no function: {key}"
                for table, kept in (("KEPT", KEPT), ("UNRUN", UNRUN))
                for key in sorted(set(kept) - keys)]
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        work = Path(scratch) / "tree"
        shutil.copytree(REPO_ROOT, work, ignore=SKIP, symlinks=True)
        hook = Path(scratch) / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        reach, failed = run_sources(work, hook)
    problems += report(every, reach)
    problems += [f"source failed: {line}" for line in failed]
    if problems:
        print()
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
