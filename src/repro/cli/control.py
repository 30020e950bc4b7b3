"""``repro control`` -- Table-1 traffic control per site."""

from __future__ import annotations

import argparse
import logging

from repro.cli.common import Command, Flag, Prologue, positive_int
from repro.measurement.catchment import anycast_catchment
from repro.measurement.control import measure_control_all_sites

logger = logging.getLogger(__name__)


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    deployment = ctx.deployment
    logger.info("computing anycast catchment ...")
    catchment = anycast_catchment(deployment.topology, deployment)
    results = measure_control_all_sites(
        deployment.topology,
        deployment,
        catchment,
        prepends=tuple(args.prepends),
        seed=args.seed,
        restrict_to_shared_neighbors=args.scoped,
    )
    header = "site    nearby  not-by-anycast" + "".join(
        f"  prepend-{p:<2d}" for p in args.prepends
    )
    print(header)
    for site, result in results.items():
        row = f"{site:6s} {result.nearby:6d}  {result.not_routed_by_anycast:13.0%}"
        for prepend in args.prepends:
            row += f"  {result.controllable[prepend]:9.0%}"
        print(row)
    return 0


COMMAND = Command(
    "control", "measure proactive-prepending traffic control (Table 1)", run, flags=(
        Flag("--prepends", type=positive_int, nargs="*", default=[3, 5],
             help="prepend counts to evaluate"),
        Flag("--scoped", action="store_true",
             help="announce prepended routes only to neighbors shared with the "
                  "intended site (the §4 recommendation)"),
    ),
)
