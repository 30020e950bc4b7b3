#!/usr/bin/env python3
"""The simulator's one benchmark: six workloads, one schema.

Two ways in, one measurement underneath:

* ``python bench/run.py [--seed 42] [--workloads ...] [--repeats 3]
  [--out PATH] [--smoke]`` -- a full pass: every workload, ``--repeats``
  end-to-end runs with telemetry off, then one traced run; prints every
  metric by name with its unit, runs the correctness checks and writes
  one JSON document.
* ``python bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
  -- one run of one workload, ending in a single JSON line (the
  ``BENCHMARK.json`` contract).

Either way this process only supervises. Each measurement runs in a
fresh child interpreter, strictly one at a time, so ``setup_s`` really
contains ``import repro`` and ``peak_rss_mb`` is per workload; the only
concurrency anywhere is the two pool workers of ``probe-matrix-w2``.
See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))

import spec  # noqa: E402

#: a child that has not answered by then is killed and counted failed
#: (the contract allows a run 180 s in all)
CHILD_TIMEOUT_S = 150.0
#: measure whole batches until this much time has been measured
DEFAULT_SECONDS = 5.0
#: set-ups per contract run (the median is reported)
SETUP_SAMPLES = 3
#: fresh ``import repro.cli`` timings per traced run (the median is reported)
IMPORT_SAMPLES = 5


# ----------------------------------------------------------------------
# Small statistics


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (the 'inclusive' method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(samples: list[float]) -> dict:
    return {
        "value": statistics.median(samples),
        "q1": quantile(samples, 0.25),
        "q3": quantile(samples, 0.75),
        "samples": samples,
    }


# ----------------------------------------------------------------------
# The child: one workload, one process


def child_main(args: argparse.Namespace) -> int:
    from hostspeed import SpeedProbe

    probing = not args.trace
    with ExitStack() as installed:
        with SpeedProbe(probing) as setup_probe:
            sys.path.insert(0, str(SRC_DIR))
            import tracer as tracing
            import workloads

            workload = spec.workload_by_name(args.workload, args.smoke)
            tracer = tracing.Tracer() if args.trace else None
            span = tracer.span if tracer else tracing.no_span
            if tracer:
                installed.enter_context(tracer.installed())
            with span("setup") as setup_span:
                world = workloads.set_up(workload, args.seed, span)
            raw_setup_s = time.time() - args.spawned_at
        setup_s = setup_probe.normalise(raw_setup_s)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        batches, probes = [], []
        with span("timed") as timed_span:
            # Traced runs take one batch: their seconds are attributed,
            # not averaged.
            while True:
                with SpeedProbe(probing, sharing=workload.workers) as probe:
                    batches.append(workloads.run_batch(world, span))
                probes.append(probe)
                if tracer or sum(b.wall_s for b in batches) >= args.seconds:
                    break

    checks = []
    for index, batch in enumerate(batches):
        for check in workloads.check(world, batch):
            if len(batches) > 1:
                check.name = f"batch {index}: {check.name}"
            checks.append(check)
    digests = [workloads.result_digest(batch) for batch in batches]
    checks.append(workloads.Check(
        "result_digest identical across batches", len(set(digests)) == 1,
        " ".join(digests),
    ))

    first = batches[0]
    # The pool retires its workers without waiting for them; wait here,
    # so none outlives the run and their memory shows in RUSAGE_CHILDREN.
    for worker in multiprocessing.active_children():
        worker.join()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.workers > 1:
        # RUSAGE_CHILDREN holds the largest reaped worker, not their sum.
        largest_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_kb += workload.workers * largest_kb
    requests = sum(account.offered for account in workloads.accounts(first))
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": bool(tracer),
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "batch_walls": [p.normalise(b.wall_s) for b, p in zip(batches, probes)],
        "raw_batch_walls": [b.wall_s for b in batches],
        "host_speed": [p.speed for p in probes],
        "probe_samples": [len(p.kernel_cpu_s) for p in probes],
        # Cells share their batch's correction: the probe does not know
        # which cell each of its samples fell in.
        "cell_walls": [
            w * p.normalise(b.wall_s) / b.wall_s
            for b, p in zip(batches, probes) for w in b.cell_walls
        ],
        "cells": len(first.statuses),
        "cells_ok": sum(1 for status in first.statuses.values() if status == "ok"),
        "requests": requests,
        "peak_rss_mb": peak_kb / 1024.0,
        "result_digest": digests[0],
        "checks": [asdict(check) for check in checks],
    }
    if any(m.name == "fidelity_err" for m in spec.end_to_end_for(workload.name)):
        detail["fidelity_err"] = workloads.fidelity_err(
            workloads.failover_medians(first), workload.probe_duration
        )
    if tracer:
        detail["layer_table"] = tracer.layer_table(timed_span)
        detail["per_layer"] = workloads.per_layer(tracer, detail["layer_table"], world, first)
        detail["setup_table"] = tracer.layer_table(setup_span)
        detail["spans"] = tracer.spans_as_lists()
    print(json.dumps(detail))
    return 0


# ----------------------------------------------------------------------
# The supervisor


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn_child(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
    setup_only: bool = False,
) -> dict:
    """Run one child to completion; returns its detail document, or
    ``{"error": ...}`` when it crashed, hung or printed nonsense."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--spawned-at", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    # Its own process group, so a hung child is killed with its pool workers.
    child = subprocess.Popen(
        command, env=child_env(), cwd=REPO_ROOT, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"error": f"timed out after {CHILD_TIMEOUT_S:g}s"}
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return {"error": f"exit code {child.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "unparseable output"}


def measure_import_s() -> float:
    """Median wall of a fresh ``python -c "import repro.cli"``."""
    env = child_env()
    env["PYTHONPATH"] = str(SRC_DIR)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import repro.cli"], env=env)
        if done.returncode == 0:
            samples.append(time.perf_counter() - start)
    return statistics.median(samples) if samples else 0.0


def end_to_end_samples(workload: str, details: list[dict]) -> dict[str, list[float]]:
    """metric -> one sample per successful run."""
    samples: dict[str, list[float]] = {m.name: [] for m in spec.end_to_end_for(workload)}
    for detail in details:
        if "error" in detail:
            continue
        wall_s = statistics.median(detail["batch_walls"])
        checks = detail["checks"]
        values = {
            "wall_s": wall_s,
            "setup_s": detail["setup_s"],
            "cells_per_s": detail["cells_ok"] / wall_s,
            "cell_p50_s": quantile(detail["cell_walls"], 0.5),
            "cell_p90_s": quantile(detail["cell_walls"], 0.9),
            "peak_rss_mb": detail["peak_rss_mb"],
            "requests_per_s": detail["requests"] / wall_s,
            "failed_frac": sum(1 for c in checks if not c["ok"]) / len(checks),
            "fidelity_err": detail.get("fidelity_err"),
        }
        for name in samples:
            samples[name].append(values[name])
    return samples


def print_checks(details: list[dict]) -> None:
    for detail in details:
        for check in detail.get("checks", ()):
            if not check["ok"]:
                print(f"  CHECK FAILED  {check['name']}: {check['detail']}")


# ----------------------------------------------------------------------
# Contract mode: one run, one JSON line


def contract_main(args: argparse.Namespace) -> int:
    trace = bool(args.trace)
    detail = spawn_child(args.workload, args.seed, args.seconds, trace, args.smoke)
    if "error" in detail:
        print(f"bench: {args.workload}: child failed: {detail['error']}", file=sys.stderr)
        return 1
    checks = detail["checks"]
    failed = sum(1 for c in checks if not c["ok"])
    print_checks([detail])
    if trace:
        detail["per_layer"]["cli.import_s"] = measure_import_s()
        metrics = {
            m.name: {"value": detail["per_layer"][m.name], "unit": m.unit}
            for m in spec.CONTRACT_PER_LAYER
        }
    else:
        setups = [detail["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            extra = spawn_child(
                args.workload, args.seed, 0.0, False, args.smoke, setup_only=True
            )
            if "error" in extra:
                print(f"bench: {args.workload}: set-up child failed: {extra['error']}",
                      file=sys.stderr)
                return 1
            setups.append(extra["setup_s"])
        samples = end_to_end_samples(args.workload, [detail])
        samples["setup_s"] = [statistics.median(setups)]
        metrics = {
            m.name: {"value": samples[m.name][0], "unit": m.unit}
            for m in spec.CONTRACT_END_TO_END
        }
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"result_digest {detail['result_digest']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# Full pass: every workload, repeats, one document


def host_fingerprint() -> dict:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    nproc = os.cpu_count() or 1
    load_1m = os.getloadavg()[0]
    if load_1m > 0.5 * nproc:
        print(f"bench: WARNING 1-min load average {load_1m:.2f} exceeds "
              f"0.5 x nproc ({nproc}); host times will be noisy", file=sys.stderr)
    return {
        "git_revision": revision,
        "nproc": nproc,
        "python": platform.python_version(),
        "load_1m_at_start": load_1m,
    }


def add_driver_check(entry: dict, name: str, ok: bool, detail: str) -> None:
    """A check only the supervisor can make (it spans children); a miss
    counts in failed_frac like any other."""
    entry["checks"].append({"name": name, "ok": ok, "detail": detail})
    if not ok:
        print(f"  CHECK FAILED  {name}: {detail}")
        summary = entry["end_to_end"]["failed_frac"]
        summary["value"] = max(summary["value"], 1 / len(entry["checks"]))


def run_workload(name: str, args: argparse.Namespace) -> dict:
    """``--repeats`` untraced children, then one traced child."""
    print(f"== {name}")
    details = [
        spawn_child(name, args.seed, args.seconds, False, args.smoke)
        for _ in range(args.repeats)
    ]
    traced = spawn_child(name, args.seed, args.seconds, True, args.smoke)
    good = [d for d in details if "error" not in d]
    if args.repeats == 0 and "error" not in traced:
        # Nothing untraced to report: the traced run stands in (smoke).
        good = [traced]
    for detail in details + [traced]:
        if "error" in detail:
            print(f"  CHILD FAILED  {detail['error']}")
    print_checks(details + [traced])

    entry: dict = {
        "why": spec.workload_by_name(name).why,
        "runs": len(details),
        "runs_failed": sum(1 for d in details if "error" in d),
        "end_to_end": {},
        "per_layer": {},
        "checks": [],
    }
    if good:
        entry["result_digest"] = good[0]["result_digest"]
        entry["checks"] = list(good[0]["checks"])
        # What the clock said, and how fast the host was, per repeat.
        entry["raw"] = {
            "wall_s": [statistics.median(d["raw_batch_walls"]) for d in good],
            "setup_s": [d["raw_setup_s"] for d in good],
            "host_speed": [statistics.median(d["host_speed"]) for d in good],
        }
        samples = end_to_end_samples(name, good)
        # A child that crashed or hung failed everything it attempted.
        samples["failed_frac"] += [1.0] * entry["runs_failed"]
        pooled = [w for d in good for w in d["cell_walls"]]
        for metric in spec.end_to_end_for(name):
            summary = summarize(samples[metric.name])
            if metric.name in ("cell_p50_s", "cell_p90_s"):
                # Percentiles pool the cells of every repeat.
                q = 0.5 if metric.name == "cell_p50_s" else 0.9
                summary["value"] = quantile(pooled, q)
                summary["cell_samples"] = len(pooled)
            if metric.name == "failed_frac":
                summary["value"] = max(samples[metric.name])
            entry["end_to_end"][metric.name] = summary
        # The traced run counts as a repeat here: tracing must not move results.
        digests = sorted({d["result_digest"] for d in good + [traced] if "error" not in d})
        add_driver_check(
            entry, "result_digest identical across repeats", len(digests) == 1,
            " ".join(digests),
        )
    else:
        entry["end_to_end"]["failed_frac"] = summarize([1.0])

    if "error" not in traced:
        values = traced["per_layer"]
        # Five fresh interpreters per workload would double a smoke pass.
        values["cli.import_s"] = 0.0 if args.smoke else measure_import_s()
        if details and good:
            # Raw over raw: the traced run has no speed probe.
            untraced = statistics.median(
                statistics.median(d["raw_batch_walls"]) for d in good
            )
            values["telemetry.overhead_ratio"] = values["core.traced_wall_s"] / untraced
        entry["per_layer"] = values
        entry["layer_table"] = traced["layer_table"]
        entry["setup_table"] = traced["setup_table"]
        entry["spans"] = traced["spans"]
    return entry


def print_workload(name: str, entry: dict) -> None:
    for metric in spec.end_to_end_for(name):
        summary = entry["end_to_end"].get(metric.name)
        if summary is None:
            continue
        extra = f"  n={summary['cell_samples']} cells" if "cell_samples" in summary else ""
        print(f"  {metric.name:16s} {summary['value']:12.6g} {metric.unit:6s}"
              f" [{summary['q1']:.6g} .. {summary['q3']:.6g}]{extra}")
    if "result_digest" in entry:
        print(f"  {'result_digest':16s} {entry['result_digest']:>12s}")
    for metric in spec.PER_LAYER:
        if metric.name in entry["per_layer"]:
            flag = "  exact" if metric.exact else ""
            print(f"  {metric.name:34s} {entry['per_layer'][metric.name]:14.6g} "
                  f"{metric.unit}{flag}")
    for row in entry.get("layer_table", ())[:12]:
        print(f"    {row['layer']:40s} {row['self_s']:9.3f}s self {row['share']:6.1%}"
              f"  x{row['count']}")


def full_pass_main(args: argparse.Namespace) -> int:
    document = {
        "schema": spec.SCHEMA,
        "host": host_fingerprint(),
        "seed": args.seed,
        "smoke": args.smoke,
        "repeats": args.repeats,
        "metrics": {
            "end_to_end": [
                {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound,
                 "absolute": m.absolute, "applies": list(m.applies), "what": m.what}
                for m in spec.END_TO_END
            ],
            "per_layer": [
                {"name": m.name, "unit": m.unit, "better": m.better, "moves": m.moves,
                 "exact": m.exact}
                for m in spec.PER_LAYER
            ],
        },
        "workloads": {},
    }
    started = time.perf_counter()
    entries = document["workloads"]
    for name in args.workloads:
        entries[name] = run_workload(name, args)

    # Cross-workload contracts: serial and 2-worker sweeps are one result.
    serial, pooled = entries.get("probe-matrix"), entries.get("probe-matrix-w2")
    if serial and pooled and "result_digest" in serial and "result_digest" in pooled:
        add_driver_check(
            pooled, "result_digest equals probe-matrix's",
            serial["result_digest"] == pooled["result_digest"],
            f"{pooled['result_digest']} vs {serial['result_digest']}",
        )
        if pooled["per_layer"]:
            pooled["per_layer"]["parallel.speedup_w2"] = (
                serial["end_to_end"]["wall_s"]["value"]
                / pooled["end_to_end"]["wall_s"]["value"]
            )
    for name, entry in entries.items():
        print(f"== {name}")
        print_workload(name, entry)
    failed_any = any(e["end_to_end"]["failed_frac"]["value"] > 0 for e in entries.values())
    document["pass_wall_s"] = time.perf_counter() - started

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, sort_keys=True) + "\n")
    print(f"wrote {out} ({document['pass_wall_s']:.1f}s)")
    return 1 if failed_any else 0


# ----------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42,
                        help="feeds TopologyParams(seed) and FailoverConfig(seed)")
    parser.add_argument("--workloads", nargs="+", default=list(spec.WORKLOAD_NAMES),
                        choices=spec.WORKLOAD_NAMES, metavar="NAME",
                        help="full pass: the workloads to run (default: all six)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="full pass: untraced runs per workload (0 = report "
                             "end-to-end numbers from the traced run)")
    parser.add_argument("--out", default=str(BENCH_DIR / "out" / "bench.json"),
                        help="full pass: where the JSON document goes")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny parameters: exercises every code path, "
                             "measures nothing worth quoting")
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES, default=None,
                        help="single run of one workload, one JSON line last")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure whole batches until this much is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single run: 1 = traced, reports the per-layer metrics")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator source at {SRC_DIR}; nothing to measure",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.workload is not None:
        return contract_main(args)
    return full_pass_main(args)


if __name__ == "__main__":
    sys.exit(main())
