"""``repro configgen`` -- render BIRD configs for a technique."""

from __future__ import annotations

import argparse
import pathlib

from repro.cli.common import Command, Flag, Prologue, Site, claim_output, technique_flag
from repro.configgen.bird import generate_bird_config


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    deployment = ctx.deployment
    sites = [args.site] if args.site else deployment.site_names
    for site in sites:
        config = generate_bird_config(deployment, ctx.technique, site, args.specific_site)
        if args.out_dir:
            out = pathlib.Path(args.out_dir)
            claim_output(str(out / f"{site}.conf"), "config")
            (out / f"{site}.conf").write_text(config.normal + "\n")
            if config.emergency:
                (out / f"{site}.emergency.conf").write_text(config.emergency + "\n")
            print(f"wrote {out / (site + '.conf')}"
                  + (" (+ emergency variant)" if config.emergency else ""))
        else:
            print(config.normal)
            if config.emergency:
                print(config.emergency)
    return 0


COMMAND = Command(
    "configgen", "render BIRD 2.x configs implementing a technique", run, flags=(
        technique_flag("proactive-prepending"),
        Site("--specific-site", default="sea1", help="the intended site for the prefix"),
        Site("--site", default=None, help="render one site only (default: all)"),
        Flag("-o", "--out-dir", default=None,
             help="write <site>.conf files here instead of stdout"),
    ),
)
