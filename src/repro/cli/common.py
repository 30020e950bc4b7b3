"""Shared CLI helpers: telemetry flags, sessions, the pre-run gate, and
the trace-file reader / result printer of the trace-consuming commands.

Every experiment subcommand (``failover``, ``compare``, ``drill``,
``scenario``) accepts the same observability flags::

    --trace PATH        record a structured JSONL trace of the run
    --trace-limit N     keep only the newest N events (ring buffer)
    --metrics           print the counter/histogram dump after the run
    --profile PATH      write per-event-kind wall-clock attribution JSON

:func:`telemetry_session` turns those into an installed
:class:`~repro.telemetry.Telemetry` for the duration of the command and
handles the export on the way out.

The same commands (and ``sweep``) describe the run they are about to
execute as one :class:`~repro.verify.world.VerifyWorld` and pass it to
:func:`gate` before any event fires: the semantic pre-flight validator
(:mod:`repro.analysis.preflight`), then the static control-plane
verifier (:mod:`repro.verify`). ERROR findings from either stage
refuse the run unless ``--no-check`` was given.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from typing import Iterator

from repro import telemetry

logger = logging.getLogger(__name__)


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a JSONL trace of the run's events to PATH",
    )
    group.add_argument(
        "--trace-limit", type=positive_int, default=None, metavar="N",
        help="bound the trace to the newest N events (ring buffer)",
    )
    group.add_argument(
        "--metrics", action="store_true",
        help="print counters and timing histograms after the run",
    )
    group.add_argument(
        "--profile", metavar="PATH", default=None,
        help="write per-event-kind wall-clock attribution to PATH as JSON "
             "(inspect with 'repro profile PATH')",
    )


def add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("parallel execution")
    group.add_argument(
        "--workers", type=positive_int, default=1, metavar="N",
        help="worker processes for the sweep (default 1 = in-process serial; "
             "results are identical for any N)",
    )
    group.add_argument(
        "--cell-timeout", type=float, default=900.0, metavar="S",
        help="wall-clock timeout per sweep cell when --workers > 1 "
             "(0 disables; an overdue cell is reported failed, not hung)",
    )
    group.add_argument(
        "--no-progress", action="store_true",
        help="suppress the sweep progress line on stderr",
    )


def cell_timeout(args: argparse.Namespace) -> float | None:
    """The per-cell timeout for the pool (None when disabled)."""
    timeout = getattr(args, "cell_timeout", 0.0)
    return timeout if timeout and timeout > 0 else None


def sweep_progress(args: argparse.Namespace, total: int):
    """A progress callback for a ``total``-cell sweep, or None.

    Progress is only shown for parallel runs: the serial path keeps its
    historical quiet stderr.
    """
    if getattr(args, "no_progress", False) or total <= 1:
        return None
    if getattr(args, "workers", 1) <= 1:
        return None
    from repro.parallel.progress import ProgressPrinter

    return ProgressPrinter()


def report_sweep_failures(report) -> None:
    """Print failed cells (status + first traceback line) to stderr."""
    for failure in report.failures():
        detail = ""
        if failure.error:
            last = failure.error.strip().splitlines()[-1]
            detail = f": {last}"
        print(
            f"sweep: cell {failure.cell_id} {failure.status}{detail}",
            file=sys.stderr,
        )


def print_workload_rows(report, techniques) -> None:
    """One merged request-level account line per technique of a sweep."""
    from repro.workload import merge_accounts, render_account

    for technique in techniques:
        accounts = [
            r.workload for r in report.results_for(technique.name)
            if r.workload is not None
        ]
        if accounts:
            print(f"  {technique.name:26s} {render_account(merge_accounts(accounts))}")


def add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", metavar="PROFILE", default=None,
        help="stream synthetic client traffic during the run: a builtin "
             "profile name (constant, diurnal, flash-crowd, "
             "regional-surge) or a JSON profile path (docs/workload.md); "
             "adds request-level loss and user-minutes-lost accounting",
    )
    parser.add_argument(
        "--capacity", metavar="SPEC", default=None,
        help="per-site serving capacity: a uniform requests/second number "
             "or a JSON capacity profile path (docs/load.md); with "
             "--workload, requests over a site's budget are lost to "
             "overload and shedding techniques react",
    )


def _load_or_exit(spec, load, what: str):
    """``load(spec)``, or None when the flag was not given; a load error
    (unknown builtin, unreadable or malformed JSON) is one line on stderr
    and exit 2."""
    if spec is None:
        return None
    try:
        return load(spec)
    except (OSError, ValueError) as error:
        print(f"cannot load {what}: {error}", file=sys.stderr)
        raise SystemExit(2) from error


def resolve_capacity(args: argparse.Namespace):
    """The parsed ``--capacity`` profile, or None when the flag is absent."""
    from repro.workload import load_capacity

    return _load_or_exit(getattr(args, "capacity", None), load_capacity, "capacity profile")


def resolve_workload(args: argparse.Namespace):
    """The parsed ``--workload`` profile, or None when the flag is absent."""
    from repro.workload import load_profile

    return _load_or_exit(getattr(args, "workload", None), load_profile, "workload profile")


def resolve_faults(args: argparse.Namespace):
    """The parsed ``--faults`` plan, or None when the flag is absent."""
    from repro.faults import load_fault_plan

    return _load_or_exit(getattr(args, "faults", None), load_fault_plan, "fault plan")


def add_preflight_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-check", action="store_true",
        help="run even when the pre-run gate (PRE pre-flight checks, then "
             "VER static control-plane verification) reports errors",
    )


def gate(args: argparse.Namespace, world) -> bool:
    """Check the run ``world`` describes before any event fires.

    ``world`` is the command's one
    :class:`~repro.verify.world.VerifyWorld`, built from the objects it
    is about to run. Stage 1 is the cheap PRE pass, stage 2 the symbolic
    VER pass; findings go to stderr. Returns False (the command should
    exit with status 2) at the first stage with blocking findings unless
    ``--no-check`` was given, so stage 2 never runs after a refusal.

    The gate runs in the parent process before any sweep fans out, so
    its output is byte-identical for every ``--workers`` count.
    """
    from repro.analysis import preflight_run
    from repro.verify import verify_world

    stages = (
        ("preflight", lambda: preflight_run(
            world.deployment, prefix=world.prefix, events=world.timeline,
            duration=world.duration, detection_delay=world.detection_delay,
            recovery_grace=world.recovery_grace, timing=world.timing,
            damping=world.damping, target_nodes=world.target_nodes,
            workload=world.workload, capacity=world.capacity,
        )),
        ("verify", lambda: verify_world(world)),
    )
    for label, stage in stages:
        report = stage()
        for finding in report.findings:
            print(f"{label}: {finding.format()}", file=sys.stderr)
        if report.ok:
            continue
        if not args.no_check:
            print(
                f"{label}: refusing to run with {len(report.errors)} error(s); "
                "use --no-check to override",
                file=sys.stderr,
            )
            return False
        print(
            f"{label}: {len(report.errors)} error(s) overridden by --no-check",
            file=sys.stderr,
        )
    return True


def known_sites(deployment, names) -> bool:
    """Whether the deployment has every named site; says which it lacks
    on stderr (the caller exits 2)."""
    unknown = [name for name in names if name not in deployment.sites]
    if unknown:
        print(
            f"unknown site {', '.join(map(repr, unknown))}; "
            f"have {deployment.site_names}",
            file=sys.stderr,
        )
    return not unknown


def claim_output(path: str, label: str) -> None:
    """Create ``path`` (and its directory) empty before the run that is
    to fill it, or say on stderr why it cannot be written and exit 2."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w"):
            pass
    except OSError as error:
        print(f"cannot write {label} file {path}: {error}", file=sys.stderr)
        raise SystemExit(2) from error


def print_result(text: str) -> None:
    """Print a command's result; a closed pipe (pager, ``head``) is not an error."""
    try:
        print(text)
    except BrokenPipeError:
        # Silence the interpreter's shutdown flush too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def read_trace(path: str) -> list | None:
    """The events of a ``--trace`` JSONL file, or None after saying on
    stderr why it cannot be read (the caller exits 2)."""
    try:
        return telemetry.read_jsonl(path)
    except FileNotFoundError:
        print(f"no such trace file: {path}", file=sys.stderr)
    except ValueError as error:
        print(f"unreadable trace: {error}", file=sys.stderr)
    return None


@contextmanager
def telemetry_session(args: argparse.Namespace) -> Iterator[telemetry.Telemetry | None]:
    """Install telemetry for a command when its flags ask for it.

    Yields the live :class:`~repro.telemetry.Telemetry` (or None when
    neither ``--trace`` nor ``--metrics`` was given). On exit the trace
    is written to the requested path and the metrics dump printed.
    """
    trace_path = getattr(args, "trace", None)
    profile_path = getattr(args, "profile", None)
    want_metrics = getattr(args, "metrics", False)
    if trace_path is None and profile_path is None and not want_metrics:
        yield None
        return
    tracer = None
    for path, label in ((trace_path, "trace"), (profile_path, "profile")):
        if path is not None:
            claim_output(path, label)
    if trace_path is not None:
        tracer = telemetry.TraceRecorder(capacity=getattr(args, "trace_limit", None))
    from repro.obs.profiler import EventProfiler, watch_collector

    profiler = EventProfiler() if profile_path is not None else None
    active = telemetry.Telemetry(tracer=tracer, profiler=profiler)
    with telemetry.using(active), watch_collector(profiler):
        yield active
    if tracer is not None:
        count = tracer.write_jsonl(trace_path)
        logger.info("wrote %d trace events to %s", count, trace_path)
        if tracer.dropped:
            logger.warning(
                "trace ring buffer evicted %d events (kept the newest %d)",
                tracer.dropped, len(tracer),
            )
    if profiler is not None:
        with open(profile_path, "w") as handle:
            json.dump(profiler.state(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        logger.info("wrote profile to %s", profile_path)
    if want_metrics:
        print()
        print(active.render())
