"""The ``repro`` registrar: one :class:`Command` row per subcommand, and
the prologue every row shares, stated once.

A row names the subcommand, its help line, the body that prints its
result, and its flags in ``--help`` order: the command's own
:class:`Flag` rows interleaved with the shared blocks below. The
registrar builds the parser from the row; before the body runs it
resolves the blocks' flags and opens the telemetry session, and the body
receives what they resolved to as a :class:`Prologue` (``ctx``).

=========================  ==============================================
shared block               what the body gets
=========================  ==============================================
``--seed`` (every row)     ``ctx.deployment``: the testbed at the seed
``technique_flag`` /       ``ctx.technique`` / ``ctx.roster(names)``, with
``techniques_flag``,       the ``--prepend`` rule
``PREPEND``
:class:`Site` flags        their sites, checked against the deployment
(``SITES``, ...)
:class:`Document` flags    ``ctx.faults``, ``ctx.workload``,
(``FAULTS``, ``WORKLOAD``)  ``ctx.capacity``, loaded; a bad file exits 2
``EXPERIMENT``             ``ctx.experiment`` (the Fig. 2 run shape) and
                           ``ctx.experiment_world(...)``
``CHECK``                  ``ctx.admit(world)``: the PRE -> VER gate on the
                           run's :class:`~repro.verify.world.VerifyWorld`
``WORKERS``                ``ctx.sweep(cells)`` / ``ctx.pool(total)``: the
                           process pool and its failure report
:class:`Catalogue`         ``ctx.select`` / ``ctx.ignore``; ``--list-*``
                           prints the catalogue and exits
``TELEMETRY``              the ``--trace`` / ``--metrics`` / ``--profile``
                           session around the body
``METRICS``                the ``--metrics`` session alone
=========================  ==============================================

The gate (:func:`gate`) is the semantic pre-flight validator
(:mod:`repro.analysis.preflight`), then the static control-plane
verifier (:mod:`repro.verify`); ERROR findings from either stage refuse
the run unless ``--no-check`` was given. A refusal anywhere in the
prologue says why on stderr and raises ``SystemExit(2)``, which
:func:`repro.cli.main` returns as the exit status.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from repro import telemetry
from repro.core.controller import DETECTION_DELAY_S
from repro.core.techniques import TECHNIQUES, techniques_named

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


def non_negative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:  # NaN compares false
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text!r}")
    return value


class Flag:
    """One ``add_argument`` call, held until the registrar builds the parser."""

    def __init__(self, *names: str, **options) -> None:
        self.names, self.options = names, options

    def __call__(self, parser) -> None:
        parser.add_argument(*self.names, **self.options)

    @property
    def dest(self) -> str:
        """The attribute argparse stores an option under."""
        long = [name for name in self.names if name.startswith("--")]
        return long[0][2:].replace("-", "_")


class Site(Flag):
    """A flag naming deployment sites: an unknown one is refused before
    the body runs (one stderr sentence, exit 2)."""


class Document(Flag):
    """A flag naming a fault plan, workload or capacity profile: read by
    :func:`load` before the body runs (a bad file exits 2)."""


class Group:
    """Flags under one ``--help`` heading."""

    def __init__(self, title: str, *flags: Flag) -> None:
        self.title, self.flags = title, flags

    def __call__(self, parser) -> None:
        group = parser.add_argument_group(self.title)
        for flag in self.flags:
            flag(group)


def technique_flag(default: str) -> Flag:
    """``-t/--technique``: the one technique the body reads as ``ctx.technique``."""
    return Flag("-t", "--technique", choices=sorted(TECHNIQUES), default=default)


def techniques_flag(default: list[str] | None, help: str) -> Flag:
    """``-t/--techniques``: names the body turns into ``ctx.roster(names)``."""
    return Flag(
        "-t", "--techniques", nargs="*", choices=sorted(TECHNIQUES),
        default=default, metavar="TECHNIQUE", help=help,
    )


SITES = Site("--sites", nargs="*", default=None, help="sites to fail (default: all eight)")
PREPEND = Flag(
    "--prepend", type=positive_int, default=3,
    help="prepend count for proactive-prepending",
)
FAULTS = Document(
    "--faults", metavar="PLAN", default=None,
    help="JSON fault plan (docs/faults.md) scheduled onto the run's timeline",
)
WORKLOAD = (
    Document(
        "--workload", metavar="PROFILE", default=None,
        help="stream synthetic client traffic during the run: a builtin "
             "profile name (constant, diurnal, flash-crowd, "
             "regional-surge) or a JSON profile path (docs/workload.md); "
             "adds request-level loss and user-minutes-lost accounting",
    ),
    Document(
        "--capacity", metavar="SPEC", default=None,
        help="per-site serving capacity: a uniform requests/second number "
             "or a JSON capacity profile path (docs/load.md); with "
             "--workload, requests over a site's budget are lost to "
             "overload and shedding techniques react",
    ),
)
EXPERIMENT = (
    Flag("--targets", type=positive_int, default=20, help="targets per site"),
    Flag("--duration", type=float, default=300.0, help="probing window (sim s)"),
    Flag("--detection-delay", type=float, default=DETECTION_DELAY_S,
         help="monitoring reaction time (sim s)"),
    Flag("--silent", action="store_true",
         help="silent failure: the site cannot withdraw its own prefixes"),
    Flag("--no-checkpoint", action="store_true",
         help="cold-start every cell's baseline convergence instead of "
              "forking the per-technique checkpoint (slower; the legacy "
              "numerics -- see docs/checkpoint.md)"),
    *WORKLOAD,
)
CHECK = Flag(
    "--no-check", action="store_true",
    help="run even when the pre-run gate (PRE pre-flight checks, then "
         "VER static control-plane verification) reports errors",
)
WORKERS = Group(
    "parallel execution",
    Flag("--workers", type=positive_int, default=1, metavar="N",
         help="worker processes for the sweep (default 1 = in-process serial; "
              "results are identical for any N)"),
    Flag("--cell-timeout", type=non_negative_float, default=900.0, metavar="S",
         help="wall-clock timeout per sweep cell when --workers > 1 "
              "(0 disables; an overdue cell is reported failed, not hung)"),
    Flag("--no-progress", action="store_true",
         help="suppress the sweep progress line on stderr"),
)
TRACE_FILE = Flag("path", help="JSONL trace file (from --trace PATH)")
_METRICS = Flag("--metrics", action="store_true",
                help="print counters and timing histograms after the run")
TELEMETRY = Group(
    "observability",
    Flag("--trace", metavar="PATH", default=None,
         help="write a JSONL trace of the run's events to PATH"),
    _METRICS,
    Flag("--profile", metavar="PATH", default=None,
         help="write per-event-kind wall-clock attribution to PATH as JSON "
              "(inspect with 'repro profile PATH')"),
)
#: the observability block of a command that schedules no event (``lint``,
#: ``verify``): a trace or profile of it would be empty
METRICS = Group("observability", _METRICS)


@dataclass(frozen=True)
class Catalogue:
    """The finding-code flags ``lint`` and ``verify`` share, over their
    ``noun`` (rule / check) catalogue; ``inputs`` is the positional whose
    paths must exist."""

    noun: str
    listing: Callable[[], Iterable[str]]
    resolve_codes: Callable[[list[str]], set[str]]
    inputs: str

    def __call__(self, parser) -> None:
        parser.add_argument("-f", "--format", choices=("text", "json"), default="text",
                            help="finding report format")
        parser.add_argument("--select", default=None, metavar="CODES",
                            help=f"comma-separated {self.noun} codes/names to report "
                                 "(default: all)")
        parser.add_argument("--ignore", default=None, metavar="CODES",
                            help=f"comma-separated {self.noun} codes/names to suppress")
        parser.add_argument(f"--list-{self.noun}s", action="store_true",
                            help=f"print the {self.noun} catalogue and exit")

    def codes(self, args: argparse.Namespace) -> tuple[set[str] | None, set[str] | None]:
        """``--select`` and ``--ignore`` as code sets, after ``--list-*``
        and the input paths had their say."""
        if getattr(args, f"list_{self.noun}s"):
            for line in self.listing():
                print(line)
            raise SystemExit(0)
        try:
            chosen = tuple(
                self.resolve_codes(text.split(",")) if text else None
                for text in (args.select, args.ignore)
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            raise SystemExit(2) from error
        missing = [path for path in getattr(args, self.inputs) if not Path(path).exists()]
        if missing:
            print(f"no such {self.inputs[:-1]}(s): {', '.join(missing)}", file=sys.stderr)
            raise SystemExit(2)
        return chosen


@dataclass(frozen=True)
class Command:
    """One ``repro`` subcommand, as a row of the table in :mod:`repro.cli`."""

    name: str
    help: str
    run: Callable[[argparse.Namespace, Prologue], int]
    flags: tuple = ()

    def add_to(self, subparsers) -> None:
        parser = subparsers.add_parser(self.name, help=self.help)
        for flag in self.flags:
            flag(parser)
        parser.set_defaults(func=self)

    def __call__(self, args: argparse.Namespace) -> int:
        """The prologue, then the body."""
        ctx = Prologue(args)
        for flag in self.flags:
            if isinstance(flag, Catalogue):
                ctx.select, ctx.ignore = flag.codes(args)
        observed = TELEMETRY in self.flags or METRICS in self.flags
        with telemetry_session(args) if observed else nullcontext():
            for flag in self.flags:
                if isinstance(flag, Document):
                    setattr(ctx, flag.dest, load(flag.dest, getattr(args, flag.dest)))
            ctx.check_sites(getattr(args, flag.dest) for flag in self.flags if isinstance(flag, Site))
            return self.run(args, ctx)


def load(dest: str, spec: str | None):
    """``spec`` read by the loader of the :class:`Document` flag ``dest``,
    or None when the flag was not given; a load error (unknown builtin,
    unreadable or malformed JSON) is one line on stderr and exit 2."""
    if spec is None:
        return None
    from repro.faults import load_fault_plan
    from repro.workload import load_capacity, load_profile

    reader, what = {
        "faults": (load_fault_plan, "fault plan"),
        "workload": (load_profile, "workload profile"),
        "capacity": (load_capacity, "capacity profile"),
    }[dest]
    try:
        return reader(spec)
    except (OSError, ValueError) as error:
        print(f"cannot load {what}: {error}", file=sys.stderr)
        raise SystemExit(2) from error


class Prologue:
    """What a command's shared blocks resolved to (None where the row
    lacks the block); the deployment and the experiment are built on
    first use."""

    select: set[str] | None = None
    ignore: set[str] | None = None
    faults = workload = capacity = None

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args

    @cached_property
    def deployment(self):
        """The testbed deployment at ``--seed``."""
        from repro.topology.generator import TopologyParams
        from repro.topology.testbed import build_deployment

        return build_deployment(params=TopologyParams(seed=self.args.seed))

    def check_sites(self, values: Iterable) -> None:
        """Refuse a named site the deployment lacks (one sentence, exit 2)."""
        named = [
            name for value in values if value is not None
            for name in (value if isinstance(value, list) else [value])
        ]
        unknown = [name for name in named if name not in self.deployment.sites]
        if unknown:
            print(
                f"unknown site {', '.join(map(repr, unknown))}; "
                f"have {self.deployment.site_names}",
                file=sys.stderr,
            )
            raise SystemExit(2)

    def roster(self, names: Iterable[str]) -> list:
        """The named techniques; ``--prepend``, where the command has it,
        sets proactive-prepending's depth."""
        return techniques_named(names, getattr(self.args, "prepend", None))

    @cached_property
    def technique(self):
        """``-t/--technique``'s technique."""
        return self.roster([self.args.technique])[0]

    @cached_property
    def experiment(self):
        """The ``EXPERIMENT`` block's Fig. 2 run over the deployment."""
        from repro.core.experiment import FailoverConfig, FailoverExperiment

        args = self.args
        try:
            config = FailoverConfig(
                probe_duration=args.duration,
                targets_per_site=args.targets,
                detection_delay=args.detection_delay,
                seed=args.seed,
                silent_failure=args.silent,
                workload=self.workload,
                capacity=self.capacity,
            )
        except ValueError as refusal:
            # Reached only past an overridden gate (``--no-check``).
            print(f"cannot run: {refusal}", file=sys.stderr)
            raise SystemExit(2) from None
        return FailoverExperiment(
            self.deployment.topology, self.deployment, config,
            use_checkpoint=not args.no_checkpoint,
        )

    def experiment_world(self, techniques, specific_site: str | None = None):
        """The run ``ctx.experiment`` is about to make, as the gate's one
        world: read from the flags, since a shape ``FailoverConfig``
        refuses must reach the gate as a finding, not a traceback."""
        from repro.verify import VerifyWorld

        args = self.args
        return VerifyWorld(
            deployment=self.deployment, techniques=techniques,
            specific_site=specific_site, duration=args.duration,
            detection_delay=args.detection_delay, workload=self.workload,
            capacity=self.capacity, source="<run>",
        )

    def admit(self, world) -> None:
        """The pre-run gate on ``world``; a refusal exits 2."""
        if not gate(self.args, world):
            raise SystemExit(2)

    def pool(self, total: int) -> dict:
        """``--workers`` / ``--cell-timeout`` / ``--no-progress`` as the
        keywords of a ``total``-cell pool run. Progress is only shown for
        parallel runs: the serial path keeps its quiet stderr."""
        args = self.args
        progress = None
        if args.workers > 1 and total > 1 and not args.no_progress:
            from repro.parallel.progress import ProgressPrinter

            progress = ProgressPrinter()
        timeout = args.cell_timeout if args.cell_timeout > 0 else None
        return {"workers": args.workers, "timeout_s": timeout, "progress": progress}

    def sweep(self, cells):
        """Run ``cells`` of ``ctx.experiment`` through the pool; failed
        cells (status + last traceback line) go to stderr."""
        from repro.parallel import run_sweep

        report = run_sweep(self.experiment, cells, **self.pool(len(cells)))
        for failure in report.failures():
            detail = ""
            if failure.error:
                detail = f": {failure.error.strip().splitlines()[-1]}"
            print(f"sweep: cell {failure.cell_id} {failure.status}{detail}", file=sys.stderr)
        return report


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
            recovery_grace=world.recovery_grace, workload=world.workload,
            capacity=world.capacity,
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


def read_trace(path: str) -> list:
    """The events of a ``--trace`` JSONL file (``TRACE_FILE``); one that
    cannot be read is one line on stderr and exit 2."""
    try:
        return telemetry.read_jsonl(path)
    except FileNotFoundError:
        print(f"no such trace file: {path}", file=sys.stderr)
    except ValueError as error:
        print(f"unreadable trace: {error}", file=sys.stderr)
    raise SystemExit(2)


@contextmanager
def telemetry_session(args: argparse.Namespace) -> Iterator[telemetry.Telemetry | None]:
    """Install telemetry for a command when its flags ask for it.

    Yields the live :class:`~repro.telemetry.Telemetry` (or None when
    none of the ``TELEMETRY`` block's ``--trace``, ``--metrics`` and
    ``--profile`` was given; a ``METRICS`` row has only ``--metrics``).
    On exit the trace is written to the requested path and the metrics
    dump printed.
    """
    options = vars(args)
    trace_path, profile_path = options.get("trace"), options.get("profile")
    want_metrics = args.metrics
    if trace_path is None and profile_path is None and not want_metrics:
        yield None
        return
    tracer = None
    for path, label in ((trace_path, "trace"), (profile_path, "profile")):
        if path is not None:
            claim_output(path, label)
    if trace_path is not None:
        tracer = telemetry.TraceRecorder()
    from repro.obs.profiler import EventProfiler, watch_collector

    profiler = EventProfiler() if profile_path is not None else None
    active = telemetry.Telemetry(tracer=tracer, profiler=profiler)
    with telemetry.using(active), watch_collector(profiler):
        yield active
    if tracer is not None:
        count = tracer.write_jsonl(trace_path)
        logger.info("wrote %d trace events to %s", count, trace_path)
    if profiler is not None:
        with open(profile_path, "w") as handle:
            json.dump(profiler.state(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        logger.info("wrote profile to %s", profile_path)
    if want_metrics:
        print()
        print(active.render())
