"""Static control-plane verification (the ``VER`` series).

A Batfish-style layer that proves properties of a *world* — topology,
relationships, technique announcement plans, fault plans — without
running the event engine:

* :mod:`repro.verify.safety` — Gao-Rexford structural safety (VER20x)
* :mod:`repro.verify.disputes` — dispute wheels, prepending, damping
  (VER21x)
* :mod:`repro.verify.plans` — symbolic announcement propagation and
  catchment analysis (VER22x)
* :mod:`repro.verify.vacuity` — fault-plan vacuity (VER23x)

The symbolic engine (:mod:`repro.topology.propagation`, shared with the
settled-catchment measurements) reuses the simulator's own route
selection and export policy, so its fixed point *is* the state the
event simulation converges to — verified against the full
technique/site matrix in ``tests/test_verify_propagation.py``.

Entry points: ``repro verify`` (CLI), :func:`verify_world` (library),
and the opt-out pre-run gate in :mod:`repro.cli.common`.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CHECKS": ".checks",
    "DEFAULT_TECHNIQUE_NAMES": ".world",
    "Origination": "repro.core.plan",
    "VerifyCheck": ".checks",
    "VerifyWorld": ".world",
    "default_world": ".world",
    "load_world": ".world",
    "resolve_codes": ".checks",
    "verify_world": ".verifier",
    "world_from_dict": ".world",
})
