"""``repro configgen`` -- render BIRD configs for a technique."""

from __future__ import annotations

import argparse
import pathlib

from repro.cli.common import claim_output, known_sites
from repro.configgen.bird import generate_bird_config
from repro.core.techniques import TECHNIQUES, technique_by_name
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "configgen", help="render BIRD 2.x configs implementing a technique"
    )
    parser.add_argument(
        "-t", "--technique", choices=sorted(TECHNIQUES), default="proactive-prepending"
    )
    parser.add_argument("--specific-site", default="sea1",
                        help="the intended site for the prefix")
    parser.add_argument("--site", default=None,
                        help="render one site only (default: all)")
    parser.add_argument("-o", "--out-dir", default=None,
                        help="write <site>.conf files here instead of stdout")
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    deployment = build_deployment(params=TopologyParams(seed=args.seed))
    technique = technique_by_name(args.technique)
    sites = [args.site] if args.site else deployment.site_names
    if not known_sites(deployment, sites):
        return 2
    for site in sites:
        config = generate_bird_config(deployment, technique, site, args.specific_site)
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
