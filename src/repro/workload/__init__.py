"""Synthetic client traffic: streaming request workloads.

The paper's availability argument is about user impact during BGP
convergence; this package turns the probe-level view into user-level
accounting. See ``docs/workload.md`` and ``docs/load.md``.

* :mod:`repro.workload.profile` -- pure-data workload descriptions
  (rates, shapes, Zipf popularity, think time, regional surges);
* :mod:`repro.workload.stream` -- seed-stable request generation, one
  numpy chunk at a time (never materializes the schedule);
* :mod:`repro.workload.capacity` -- per-site serving capacity profiles,
  brownout state, and expected-load arithmetic;
* :mod:`repro.workload.engine` -- tick-driven classification (once per
  distinct client per tick, on the forwarding plane's walk memo) into
  served / lost / wrong-site / overload and user-minutes-lost
  accounting, plus the load-shedding overload latch.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BUILTIN_PROFILES": ".profile",
    "CAPACITY_SCHEMA": ".capacity",
    "PROFILE_SCHEMA": ".profile",
    "RATE_KINDS": ".profile",
    "CapacityProfile": ".capacity",
    "CapacityState": ".capacity",
    "Request": ".stream",
    "RequestStream": ".stream",
    "RateShape": ".profile",
    "WorkloadAccount": ".engine",
    "WorkloadEngine": ".engine",
    "WorkloadProfile": ".profile",
    "builtin_profile": ".profile",
    "capacity_from_dict": ".capacity",
    "client_weight_table": ".stream",
    "expected_site_load": ".capacity",
    "load_capacity": ".capacity",
    "load_profile": ".profile",
    "merge_accounts": ".engine",
    "profile_from_dict": ".profile",
    "render_account": ".engine",
    "stream_digest": ".stream",
})
