#!/usr/bin/env python3
"""Compare two full-pass documents: ``python bench/compare.py A.json B.json``.

A is the base (the parent commit), B the change. One row per
<workload, end-to-end metric> with both medians and quartiles, the ratio
B/A, the metric's bound, and a verdict:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``better``     -- B's median is better than A's by more than A's own
  quartile spread;
* ``same``       -- neither;
* ``unresolved`` -- either side's quartile spread is wider than the
  bound, so a move of the bound's size cannot be told from noise
  (unless every sample of one side beats every sample of the other).

Exits non-zero on any ``worse`` or on a higher ``failed_frac``. This
reads a handful of repeats; a performance *claim* still needs the ten
alternating pairs the README describes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402


def verdict(metric: spec.EndToEnd, a: dict, b: dict) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    base = 1.0 if metric.absolute else abs(a["value"])
    if not base:
        return "same" if a["value"] == b["value"] else "worse"
    worsening = sign * (b["value"] - a["value"]) / base
    spread_a = (a["q3"] - a["q1"]) / base
    spread_b = (b["q3"] - b["q1"]) / base
    if max(spread_a, spread_b) > metric.bound > 0:
        if all(sign * (y - x) < 0 for x in a["samples"] for y in b["samples"]):
            return "better"
        if worsening > metric.bound and all(
            sign * (y - x) > 0 for x in a["samples"] for y in b["samples"]
        ):
            return "worse"
        return "unresolved"
    if worsening > metric.bound:
        return "worse"
    if worsening < 0 and -worsening > spread_a:
        return "better"
    return "same"


def compare(a_doc: dict, b_doc: dict) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':16s} {'metric':15s} {'A median [q1..q3]':>34s} "
        f"{'B median [q1..q3]':>34s} {'B/A':>7s} {'bound':>6s}  verdict"
    ]
    bad = False
    for name in spec.WORKLOAD_NAMES:
        a_entry = a_doc["workloads"].get(name)
        b_entry = b_doc["workloads"].get(name)
        if a_entry is None or b_entry is None:
            continue
        for metric in spec.end_to_end_for(name):
            a = a_entry["end_to_end"].get(metric.name)
            b = b_entry["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            result = verdict(metric, a, b)
            if metric.name == "failed_frac" and b["value"] > a["value"]:
                result = "worse"
            bad |= result == "worse"
            ratio = f"{b['value'] / a['value']:7.3f}" if a["value"] else f"{'-':>7s}"
            bound = f"{metric.bound:g}" + ("" if metric.absolute else "x")
            lines.append(
                f"{name:16s} {metric.name:15s} "
                f"{a['value']:12.5g} [{a['q1']:9.4g}..{a['q3']:9.4g}] "
                f"{b['value']:12.5g} [{b['q1']:9.4g}..{b['q3']:9.4g}] "
                f"{ratio} {bound:>6s}  {result}"
            )
        # Simulated results and exact counts: identical unless the
        # change meant to alter the simulation.
        a_digest, b_digest = a_entry.get("result_digest"), b_entry.get("result_digest")
        same = "identical" if a_digest == b_digest else "DIFFERENT"
        lines.append(f"{name:16s} result_digest   {a_digest} vs {b_digest}  {same}")
        moved = [
            m.name for m in spec.PER_LAYER
            if m.exact
            and a_entry["per_layer"].get(m.name) != b_entry["per_layer"].get(m.name)
        ]
        lines.append(
            f"{name:16s} exact counts    "
            + ("identical" if not moved else "DIFFERENT: " + ", ".join(moved))
        )
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        try:
            document = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"compare: cannot read {path}: {error}", file=sys.stderr)
            return 2
        if document.get("schema") != spec.SCHEMA:
            print(f"compare: {path} is not a {spec.SCHEMA} document", file=sys.stderr)
            return 2
        documents.append(document)
    a_doc, b_doc = documents
    for label, document in zip("AB", documents):
        host = document["host"]
        print(f"{label}: {host['git_revision'][:12]} seed {document['seed']} "
              f"nproc {host['nproc']} python {host['python']} "
              f"load {host['load_1m_at_start']:.2f}")
    lines, bad = compare(a_doc, b_doc)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
