"""Pre-flight static analysis for the simulation stack.

Two layers share one :class:`~repro.analysis.findings.Finding` model:

* **Determinism linter** (:mod:`repro.analysis.linter`,
  :mod:`repro.analysis.rules`) -- an AST rule engine catching
  simulator-specific hazards before they run: unseeded RNGs, the hidden
  module-global RNG, ``hash()``-derived seeds, wall-clock reads outside
  telemetry, set-iteration order leaks, float ``==`` on simulated
  timestamps, mutable default arguments. Codes are ``DETnnn``;
  suppress per line with ``# repro: noqa[CODE]``.
* **Semantic pre-flight validator** (:mod:`repro.analysis.preflight`) --
  static checks on topologies, deployments, scenario timelines,
  announcement plans, and protocol parameters before any event fires.
  Codes are ``PREnnn``; it is stage 1 of the experiment CLI's pre-run
  gate, which refuses to run on ERROR findings unless ``--no-check`` is
  given.

``repro lint`` drives the linter from the command line; see
``docs/static-analysis.md`` for the full rule catalogue.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Finding": ".findings",
    "FindingCollector": ".findings",
    "Severity": ".findings",
    "emit_findings": ".findings",
    "PARSE_ERROR_CODE": ".linter",
    "LintEngine": ".linter",
    "lint_paths": ".linter",
    "check_capacity": ".preflight",
    "check_deployment": ".preflight",
    "check_events": ".preflight",
    "check_prefix_plan": ".preflight",
    "check_run_shape": ".preflight",
    "check_targets": ".preflight",
    "check_timing": ".preflight",
    "check_topology": ".preflight",
    "check_workload": ".preflight",
    "preflight_run": ".preflight",
    "render_json": ".reporters",
    "render_text": ".reporters",
    "RULES": ".rules",
    "LintContext": ".rules",
    "LintRule": ".rules",
    "all_rules": ".rules",
    "resolve_codes": ".rules",
})
