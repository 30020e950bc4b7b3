"""``repro playbook`` -- precompute and query drain plays."""

from __future__ import annotations

import argparse
import logging

from repro.cli.common import known_sites, non_negative_int
from repro.core.playbook import Playbook
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment

logger = logging.getLogger(__name__)


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "playbook", help="precompute prepending drain plays (anycast agility)"
    )
    parser.add_argument(
        "--drain", metavar="SITE", default=None,
        help="show the best play draining SITE (default: print all plays)",
    )
    parser.add_argument(
        "--max-overload", type=float, default=0.6,
        help="max load share any other site may take (default 0.6)",
    )
    parser.add_argument(
        "--levels", type=non_negative_int, nargs="*", default=[0, 3, 5],
        help="prepend levels to precompute",
    )
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    deployment = build_deployment(params=TopologyParams(seed=args.seed))
    playbook = Playbook(deployment.topology, deployment)
    logger.info("precomputing drain plays at levels %s ...", args.levels)
    playbook.build_drain_plays(prepend_levels=tuple(args.levels))

    baseline = playbook.baseline()
    print("\nbaseline catchment shares:")
    for site, count in baseline.catchment:
        print(f"  {site:6s} {baseline.load_share(site):6.1%} ({count} clients)")

    if args.drain is None:
        print(f"\n{len(playbook.entries)} plays evaluated; "
              "use --drain SITE to query one")
        return 0
    if not known_sites(deployment, [args.drain]):
        return 2
    try:
        play = playbook.best_drain(args.drain, max_overload=args.max_overload)
    except LookupError as error:
        print(f"no feasible play: {error}")
        return 1
    print(f"\nbest drain play for {args.drain}: prepends {dict(play.prepends)}")
    for site, count in play.catchment:
        delta = play.load_share(site) - baseline.load_share(site)
        print(f"  {site:6s} {play.load_share(site):6.1%} ({delta:+.1%})")
    return 0
