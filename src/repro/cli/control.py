"""``repro control`` -- Table-1 traffic control per site."""

from __future__ import annotations

import argparse
import logging

from repro.cli.common import positive_int
from repro.measurement.catchment import anycast_catchment
from repro.measurement.control import measure_control_all_sites
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment

logger = logging.getLogger(__name__)


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "control", help="measure proactive-prepending traffic control (Table 1)"
    )
    parser.add_argument(
        "--prepends", type=positive_int, nargs="*", default=[3, 5],
        help="prepend counts to evaluate",
    )
    parser.add_argument(
        "--scoped", action="store_true",
        help="announce prepended routes only to neighbors shared with the "
             "intended site (the §4 recommendation)",
    )
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    deployment = build_deployment(params=TopologyParams(seed=args.seed))
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
