"""Figure 3 (Appendix A): unicast withdrawal convergence.

Paper: per ⟨RIS peer, withdrawal event⟩, hypergiant withdrawals converge
with a median of ~100 s and a p90 of ~400 s, and PEERING's own
withdrawals follow a very similar distribution -- which is what licenses
generalizing the testbed's failover numbers to real CDNs.

Also reproduces the §3 statistic mined from the same snapshot: 39% of
hypergiants' most-specific prefixes are covered by a less-specific
announcement of the same network.
"""

from __future__ import annotations

from repro.measurement.appendix import (
    announced_prefix_snapshot,
    covered_prefix_fraction,
    run_withdrawal_study,
)
from repro.measurement.stats import Cdf

from benchmarks.conftest import report

PAPER = {"median": 100.0, "p90": 400.0, "covered_fraction": 0.39}


def _run(deployment):
    samples = run_withdrawal_study(deployment.topology, deployment, seed=42)
    snapshot = announced_prefix_snapshot(deployment.topology)
    return samples, covered_prefix_fraction(snapshot)


def test_fig3_withdrawal_convergence(benchmark, deployment):
    samples, covered = benchmark.pedantic(
        _run, args=(deployment,), rounds=1, iterations=1
    )
    hg = Cdf(samples.hypergiant)
    tb = Cdf(samples.testbed)
    lines = [
        "| series | paper p50 | measured p50 | paper p90 | measured p90 | n |",
        "|---|---|---|---|---|---|",
        f"| hypergiants | {PAPER['median']:.0f}s | {hg.median():.1f}s "
        f"| {PAPER['p90']:.0f}s | {hg.quantile(0.9):.1f}s | {hg.n} |",
        f"| testbed | ~{PAPER['median']:.0f}s | {tb.median():.1f}s "
        f"| ~{PAPER['p90']:.0f}s | {tb.quantile(0.9):.1f}s | {tb.n} |",
        "",
        f"§3 covered most-specifics: paper {PAPER['covered_fraction']:.0%}, "
        f"measured {covered:.0%}",
    ]
    report("Figure 3 — unicast withdrawal convergence", lines)

    # Shape: ~100 s medians (within 2x), heavy tail, and the two series
    # agree with each other (the figure's actual point).
    assert 50.0 < hg.median() < 200.0
    assert hg.quantile(0.9) > 1.5 * hg.median()
    assert 0.3 < hg.median() / tb.median() < 3.0
    assert 0.1 < covered < 0.6
