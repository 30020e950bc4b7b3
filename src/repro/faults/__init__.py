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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ACTIONS": ".plan",
    "FAULT_KINDS": ".plan",
    "Action": ".plan",
    "Brownout": ".plan",
    "Fault": ".plan",
    "FaultInjector": ".injector",
    "FaultPlan": ".plan",
    "FaultSpec": ".plan",
    "FibDelay": ".plan",
    "InvariantReport": ".invariants",
    "LinkFlap": ".plan",
    "MessageLoss": ".plan",
    "PartialSiteFailure": ".plan",
    "SessionReset": ".plan",
    "Violation": ".invariants",
    "check_invariants": ".invariants",
    "check_site_capacity": ".invariants",
    "known_prefixes": ".invariants",
    "load_fault_plan": ".plan",
    "timeline": ".plan",
})
