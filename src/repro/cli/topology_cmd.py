"""``repro topology`` -- summarize the generated Internet and deployment."""

from __future__ import annotations

import argparse
from collections import Counter

from repro.cli.common import Command, Flag, Prologue


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    deployment = ctx.deployment
    topology = deployment.topology

    print(f"ASes: {len(topology.ases)}   links: {len(topology.links)}")
    counts = Counter(info.as_class.value for info in topology.ases.values())
    for as_class, count in sorted(counts.items()):
        print(f"  {as_class:12s} {count}")
    print(f"web-client ASes: {len(topology.web_client_ases())}")
    print(f"sites: {', '.join(deployment.site_names)}")

    if args.sites:
        print()
        for name, spec in deployment.sites.items():
            print(f"  {name:6s} region={spec.region:12s} "
                  f"providers={list(spec.providers)} peers={list(spec.peers)}")
    return 0


COMMAND = Command(
    "topology", "summarize the generated topology and CDN deployment", run, flags=(
        Flag("--sites", action="store_true", help="list per-site attachments"),
    ),
)
