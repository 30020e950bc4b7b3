"""``repro playbook`` -- precompute and query drain plays."""

from __future__ import annotations

import argparse
import logging

from repro.cli.common import Command, Flag, Prologue, Site, non_negative_int
from repro.core.playbook import Playbook

logger = logging.getLogger(__name__)


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    playbook = Playbook(ctx.deployment.topology, ctx.deployment)
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
    try:
        play = playbook.best_drain(args.drain, max_overload=0.6)
    except LookupError as error:
        print(f"no feasible play: {error}")
        return 1
    print(f"\nbest drain play for {args.drain}: prepends {dict(play.prepends)}")
    for site, count in play.catchment:
        delta = play.load_share(site) - baseline.load_share(site)
        print(f"  {site:6s} {play.load_share(site):6.1%} ({delta:+.1%})")
    return 0


COMMAND = Command(
    "playbook", "precompute prepending drain plays (anycast agility)", run, flags=(
        Site("--drain", metavar="SITE", default=None,
             help="show the best play draining SITE that leaves no other site "
                  "over 60%% of the load (default: print all plays)"),
        Flag("--levels", type=non_negative_int, nargs="*", default=[0, 3, 5],
             help="prepend levels to precompute"),
    ),
)
