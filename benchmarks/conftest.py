"""Shared state for the per-figure/table benchmark harness.

Each bench module reproduces one table or figure of the paper at
simulation scale, using the calibrated Internet timing profile, and
prints the paper-reported value next to the measured one. Run with::

    pytest benchmarks/ --benchmark-only

Reports are printed to stdout and appended to ``benchmarks/results.md``
so they survive output capturing. What the simulator itself costs
(wall, cells/s, per-layer attribution) is measured by ``bench/``; see
``bench/README.md``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.topology.testbed import build_deployment

RESULTS_PATH = pathlib.Path(__file__).parent / "results.md"


@pytest.fixture(scope="session")
def deployment():
    return build_deployment()


@pytest.fixture(scope="session")
def experiment(deployment):
    """The §5.2 experiment at bench scale: full probing window, all
    eight sites, calibrated timing."""
    config = FailoverConfig(probe_duration=600.0, targets_per_site=25)
    return FailoverExperiment(deployment.topology, deployment, config)


def report(title: str, lines: list[str]) -> None:
    """Print a paper-vs-measured block and persist it to results.md."""
    block = "\n".join([f"## {title}", *lines, ""])
    print("\n" + block)
    with RESULTS_PATH.open("a") as handle:
        handle.write(block + "\n")


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    """Start each bench session with a clean results.md."""
    RESULTS_PATH.write_text("# Benchmark results (paper vs measured)\n\n")
