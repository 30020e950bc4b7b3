"""``repro appendix`` -- the Appendix A/B routing-history studies."""

from __future__ import annotations

import argparse

from repro.cli.common import Command, Flag, Prologue
from repro.measurement.appendix import run_propagation_study, run_withdrawal_study
from repro.measurement.plotting import render_cdfs
from repro.measurement.stats import Cdf


def run(args: argparse.Namespace, ctx: Prologue) -> int:
    deployment = ctx.deployment
    if args.study == "withdrawal":
        samples = run_withdrawal_study(deployment.topology, deployment, seed=args.seed)
        title = "unicast withdrawal convergence per <collector peer, event>"
    else:
        samples = run_propagation_study(deployment.topology, deployment, seed=args.seed)
        title = "anycast announcement propagation per <collector peer, event>"

    hypergiant = Cdf(samples.hypergiant)
    testbed = Cdf(samples.testbed)
    print(title)
    print(f"  hypergiants: p50 {hypergiant.median():6.1f}s  "
          f"p90 {hypergiant.quantile(0.9):6.1f}s  n={hypergiant.n}")
    print(f"  testbed:     p50 {testbed.median():6.1f}s  "
          f"p90 {testbed.quantile(0.9):6.1f}s  n={testbed.n}")
    print()
    print(render_cdfs({"hypergiants": hypergiant, "testbed": testbed}))
    return 0


COMMAND = Command(
    "appendix", "run the Appendix A/B convergence studies", run, flags=(
        Flag("study", choices=["withdrawal", "propagation"],
             help="withdrawal = Figure 3 (Appendix A); propagation = Figure 4 (Appendix B)"),
    ),
)
