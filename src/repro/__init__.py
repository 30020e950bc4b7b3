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
* :mod:`repro.dns` -- the TTL-violating clients behind the unicast
  baseline's DNS failover model and the hybrid steering plan;
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

Every package re-exports its public names lazily (:func:`lazy_exports`):
``import repro`` loads this module alone, and a name's defining module
is imported the first time the name is read.
"""

import sys
from importlib import import_module

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict[str, str]) -> tuple:
    """Build a package's ``__getattr__``, ``__dir__`` and ``__all__``
    from ``exports``, which maps each public name, in ``__all__`` order,
    to the module that defines it (relative to ``package`` when it
    starts with a dot).

    A name's module is imported on its first read (PEP 562), and the
    value is then bound in the package, so later reads are plain
    attribute reads. ``from package import *`` reads every name.
    """

    def __getattr__(name: str) -> object:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(source, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | exports.keys())

    return __getattr__, __dir__, list(exports)


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BgpNetwork": ".bgp.network",
    "SessionTiming": ".bgp.session",
    "DEFAULT_INTERNET_TIMING": ".bgp.session",
    "FailoverConfig": ".core.experiment",
    "FailoverExperiment": ".core.experiment",
    "Technique": ".core.techniques",
    "Unicast": ".core.techniques",
    "Anycast": ".core.techniques",
    "ProactiveSuperprefix": ".core.techniques",
    "ReactiveAnycast": ".core.techniques",
    "ProactivePrepending": ".core.techniques",
    "ProactiveMed": ".core.techniques",
    "Combined": ".core.techniques",
    "technique_by_name": ".core.techniques",
    "Cdf": ".measurement.stats",
    "TopologyParams": ".topology.generator",
    "generate_topology": ".topology.generator",
    "CdnDeployment": ".topology.testbed",
    "build_deployment": ".topology.testbed",
})
__all__.append("__version__")
