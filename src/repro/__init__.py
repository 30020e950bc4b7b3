"""Reproduction of "The Best of Both Worlds: High Availability CDN
Routing Without Compromising Control" (Zhu et al., ACM IMC 2022).

The paper shows that the two standard CDN redirection techniques force a
trade-off -- unicast gives precise client-to-site control but slow,
DNS-bound failover; anycast gives fast BGP failover but little control --
and proposes hybrid announcement strategies (reactive-anycast and
proactive-prepending) that get both.

This package reproduces the paper's techniques and its entire evaluation
on a simulated Internet (the real experiments ran on the PEERING
testbed; see DESIGN.md for the substitution map):

* :mod:`repro.bgp` -- discrete-event BGP with Gao-Rexford policies, MRAI
  pacing, and path hunting;
* :mod:`repro.topology` -- Internet-like topology generation, geography,
  and the eight-site CDN deployment;
* :mod:`repro.dns` -- the unicast baseline's DNS failover model
  (authoritative, caching resolvers, TTL-violating clients) and the
  hybrid steering plan;
* :mod:`repro.dataplane` -- FIB-driven forwarding, Verfploeter-style
  probing, reverse traceroute;
* :mod:`repro.core` -- the techniques (Figure 1), the CDN controller,
  and the §5.2 failover experiment;
* :mod:`repro.measurement` -- target selection, catchments, Table-1
  control, the Appendix A/B/C analyses, and statistics.

Quickstart::

    from repro import build_deployment, FailoverExperiment, ReactiveAnycast

    deployment = build_deployment()
    experiment = FailoverExperiment(deployment.topology, deployment)
    result = experiment.run_site(ReactiveAnycast(), "sea1")
"""

from repro.bgp.network import BgpNetwork
from repro.bgp.session import DEFAULT_INTERNET_TIMING, SessionTiming
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import (
    Anycast,
    Combined,
    ProactiveMed,
    ProactivePrepending,
    ProactiveSuperprefix,
    ReactiveAnycast,
    Technique,
    Unicast,
    technique_by_name,
)
from repro.measurement.stats import Cdf
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.testbed import CdnDeployment, build_deployment

__version__ = "1.0.0"

__all__ = [
    "BgpNetwork",
    "SessionTiming",
    "DEFAULT_INTERNET_TIMING",
    "FailoverConfig",
    "FailoverExperiment",
    "Technique",
    "Unicast",
    "Anycast",
    "ProactiveSuperprefix",
    "ReactiveAnycast",
    "ProactivePrepending",
    "ProactiveMed",
    "Combined",
    "technique_by_name",
    "Cdf",
    "TopologyParams",
    "generate_topology",
    "CdnDeployment",
    "build_deployment",
    "__version__",
]
