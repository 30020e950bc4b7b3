"""§4 extension ablation: MED backups vs prepending backups.

The paper notes "BGP MED could also be used for neighbors that support
it" as an alternative to prepending for positioning backup routes
without losing control. This bench compares proactive-med against
proactive-prepending on both axes:

* control: which fraction of each site's anycast-lost targets can the
  technique steer? (MED only reaches neighbors shared between sites,
  so its control is narrower);
* failover: MED backups keep natural path lengths, so convergence onto
  them avoids prepending's longer-path disadvantage.
"""

from __future__ import annotations

from repro.core.experiment import FailoverConfig, FailoverExperiment, pooled_outcomes
from repro.core.plan import apply_plan
from repro.core.techniques import ProactiveMed, ProactivePrepending
from repro.measurement.catchment import anycast_catchment, catchment_from_network
from repro.measurement.hitlist import Hitlist, select_targets
from repro.measurement.stats import Cdf
from repro.topology.testbed import (
    SPECIFIC_PREFIX,
    build_deployment,
    default_site_specs,
)
from repro.topology.testbed import SiteSpec

from benchmarks.conftest import report

SITES = ["sea1", "msn", "slc", "ams"]

#: MED only influences neighbors connected to multiple sites *and*
#: carrying the targets' traffic. This bench therefore runs on a
#: deployment variant mirroring §4's real-CDN argument: large
#: eyeball-serving ISPs peer with the CDN "in as many locations as
#: possible", i.e. with several sites at once.
SHARED_PEERS = ("tr-us-central-0", "tr-us-west-1", "tr-us-mountain-0", "tr-us-east-1")


def shared_provider_deployment():
    specs = []
    for spec in default_site_specs():
        if spec.name in SITES:
            extra = tuple(p for p in SHARED_PEERS if p not in spec.peers)
            specs.append(
                SiteSpec(
                    name=spec.name,
                    region=spec.region,
                    providers=spec.providers,
                    peers=spec.peers + extra,
                )
            )
        else:
            specs.append(spec)
    return build_deployment(specs=specs)


def _control_under(deployment, technique, site, targets):
    network = deployment.topology.build_network(seed=31)
    apply_plan(network, technique.originations(deployment, site))
    network.converge()
    catchment = catchment_from_network(
        network, deployment, SPECIFIC_PREFIX, list(targets.values())
    )
    if not targets:
        return 0.0
    steered = sum(1 for node in targets.values() if catchment.get(node) == site)
    return steered / len(targets)


def _run():
    deployment = shared_provider_deployment()
    experiment = FailoverExperiment(
        deployment.topology,
        deployment,
        FailoverConfig(probe_duration=400.0, targets_per_site=20),
    )
    topology = deployment.topology
    anycast = anycast_catchment(topology, deployment)
    hitlist = Hitlist(topology, seed=31)
    control = {}
    for site in SITES:
        selection = select_targets(
            topology, deployment, site, anycast, hitlist, max_targets=10**9
        )
        control[site] = {
            "prepend-3": _control_under(
                deployment, ProactivePrepending(3), site, selection.targets
            ),
            "med-100": _control_under(
                deployment, ProactiveMed(100), site, selection.targets
            ),
        }
    failover = {}
    for technique in (ProactivePrepending(3), ProactiveMed(100)):
        outcomes = pooled_outcomes(experiment.run_all_sites(technique, SITES))
        failover[technique.name] = Cdf.from_optional(
            [o.failover_s for o in outcomes]
        )
    return control, failover


def test_med_vs_prepending(benchmark):
    control, failover = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [
        "| site | control prepend-3 | control med-100 |",
        "|---|---|---|",
    ]
    for site, result in control.items():
        lines.append(
            f"| {site} | {result['prepend-3']:.0%} | {result['med-100']:.0%} |"
        )
    lines.append("")
    for name, cdf in failover.items():
        lines.append(
            f"failover {name}: p50 {cdf.median():.1f}s p90 {cdf.quantile(0.9):.1f}s "
            f"(n={cdf.n})"
        )
    report("§4 extension — MED vs prepending backups", lines)

    # MED's control never exceeds prepending's by construction (it only
    # reaches shared neighbors), and its failover is no slower.
    for site, result in control.items():
        assert result["med-100"] <= result["prepend-3"] + 0.05, site
    med_fo = failover["proactive-med-100"].median()
    prep_fo = failover["proactive-prepending-3"].median()
    assert med_fo <= prep_fo + 3.0
