"""The paper's contribution: redirection techniques and their evaluation.

`repro.core.techniques` states the announcement strategies of Figure 1
(plus §4's combined and MED variants and the shed family) as one rule
table over the plan values of `repro.core.plan`, `repro.core.controller`
is the CDN's monitoring/orchestration loop that reacts to site failures,
`repro.core.experiment` reproduces the §5.2 experiment protocol, and
`repro.core.metrics` computes the §5.4.1 reconnection/failover metrics.
"""

from repro.core.plan import Origination, Rule, Technique, Tradeoff, apply_plan
from repro.core.techniques import (
    Unicast,
    Anycast,
    ProactiveSuperprefix,
    ReactiveAnycast,
    ProactivePrepending,
    ProactiveMed,
    Combined,
    TECHNIQUES,
    technique_by_name,
)
from repro.core.controller import CdnController, FailureEvent
from repro.core.drill import DrillOutcome, RotationDrill
from repro.core.playbook import Playbook, PlaybookEntry
from repro.core.scenarios import ScenarioReport, ScenarioRunner
from repro.core.unicast_failover import (
    UnicastFailoverConfig,
    UnicastFailoverResult,
    simulate_unicast_failover,
)
from repro.core.experiment import FailoverConfig, FailoverExperiment, SiteFailoverResult
from repro.core.metrics import (
    BounceStatistics,
    TargetOutcome,
    bounce_statistics,
    outcomes_for_run,
    target_outcome,
)

__all__ = [
    "Origination",
    "Rule",
    "Technique",
    "apply_plan",
    "Tradeoff",
    "Unicast",
    "Anycast",
    "ProactiveSuperprefix",
    "ReactiveAnycast",
    "ProactivePrepending",
    "ProactiveMed",
    "Combined",
    "TECHNIQUES",
    "technique_by_name",
    "CdnController",
    "FailureEvent",
    "DrillOutcome",
    "RotationDrill",
    "Playbook",
    "PlaybookEntry",
    "ScenarioReport",
    "ScenarioRunner",
    "UnicastFailoverConfig",
    "UnicastFailoverResult",
    "simulate_unicast_failover",
    "FailoverConfig",
    "FailoverExperiment",
    "SiteFailoverResult",
    "TargetOutcome",
    "target_outcome",
    "outcomes_for_run",
    "BounceStatistics",
    "bounce_statistics",
]
