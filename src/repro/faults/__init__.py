"""Deterministic fault injection and runtime invariant checking.

See ``docs/faults.md``: a :class:`FaultPlan` (JSON-loadable list of
link flaps, session resets, message loss, delayed FIB downloads,
partial site failures, and capacity brownouts) expands into the timed
:class:`Action` edges of the run's :func:`timeline`, which a
:class:`FaultInjector` schedules onto a network's event engine, and
:func:`check_invariants` audits global consistency once the network
goes quiet again (:func:`check_site_capacity` adds the workload-aware
"no site over capacity" audit, see ``docs/load.md``).
"""

from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    InvariantReport,
    Violation,
    check_invariants,
    check_site_capacity,
    known_prefixes,
)
from repro.faults.plan import (
    ACTIONS,
    FAULT_KINDS,
    Action,
    Brownout,
    Fault,
    FaultPlan,
    FaultSpec,
    FibDelay,
    LinkFlap,
    MessageLoss,
    PartialSiteFailure,
    SessionReset,
    load_fault_plan,
    timeline,
)

__all__ = [
    "ACTIONS",
    "FAULT_KINDS",
    "Action",
    "Brownout",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FibDelay",
    "InvariantReport",
    "LinkFlap",
    "MessageLoss",
    "PartialSiteFailure",
    "SessionReset",
    "Violation",
    "check_invariants",
    "check_site_capacity",
    "known_prefixes",
    "load_fault_plan",
    "timeline",
]
