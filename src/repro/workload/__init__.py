"""Synthetic client traffic: streaming request workloads.

The paper's availability argument is about user impact during BGP
convergence; this package turns the probe-level view into user-level
accounting. See ``docs/workload.md`` and ``docs/load.md``.

* :mod:`repro.workload.profile` -- pure-data workload descriptions
  (rates, shapes, Zipf popularity, think time, regional surges);
* :mod:`repro.workload.stream` -- seed-stable request generation, one
  numpy chunk at a time (never materializes the schedule);
* :mod:`repro.workload.catchment` -- route-version-keyed resolution
  cache over the live FIBs;
* :mod:`repro.workload.capacity` -- per-site serving capacity profiles,
  brownout state, and expected-load arithmetic;
* :mod:`repro.workload.engine` -- tick-driven classification (once per
  distinct client per tick) into served / lost / wrong-site / overload
  and user-minutes-lost accounting, plus the load-shedding overload
  latch.
"""

from repro.workload.capacity import (
    CAPACITY_SCHEMA,
    CapacityProfile,
    CapacityState,
    capacity_from_dict,
    expected_site_load,
    load_capacity,
)
from repro.workload.catchment import CatchmentCache, Resolution
from repro.workload.engine import (
    WorkloadAccount,
    WorkloadEngine,
    merge_accounts,
    render_account,
)
from repro.workload.profile import (
    BUILTIN_PROFILES,
    PROFILE_SCHEMA,
    RATE_KINDS,
    RateShape,
    WorkloadProfile,
    builtin_profile,
    load_profile,
    profile_from_dict,
)
from repro.workload.stream import (
    Request,
    RequestStream,
    client_weight_table,
    stream_digest,
)

__all__ = [
    "BUILTIN_PROFILES",
    "CAPACITY_SCHEMA",
    "PROFILE_SCHEMA",
    "RATE_KINDS",
    "CapacityProfile",
    "CapacityState",
    "CatchmentCache",
    "Request",
    "RequestStream",
    "Resolution",
    "RateShape",
    "WorkloadAccount",
    "WorkloadEngine",
    "WorkloadProfile",
    "builtin_profile",
    "capacity_from_dict",
    "client_weight_table",
    "expected_site_load",
    "load_capacity",
    "load_profile",
    "merge_accounts",
    "profile_from_dict",
    "render_account",
    "stream_digest",
]
