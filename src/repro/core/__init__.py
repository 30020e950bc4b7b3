"""The paper's contribution: redirection techniques and their evaluation.

`repro.core.techniques` states the announcement strategies of Figure 1
(plus §4's combined and MED variants and the shed family) as one rule
table over the plan values of `repro.core.plan`, `repro.core.controller`
is the CDN's monitoring/orchestration loop that reacts to site failures,
`repro.core.experiment` reproduces the §5.2 experiment protocol, and
`repro.core.metrics` computes the §5.4.1 reconnection/failover metrics.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Origination": ".plan",
    "Rule": ".plan",
    "Technique": ".plan",
    "apply_plan": ".plan",
    "Tradeoff": ".plan",
    "Unicast": ".techniques",
    "Anycast": ".techniques",
    "ProactiveSuperprefix": ".techniques",
    "ReactiveAnycast": ".techniques",
    "ProactivePrepending": ".techniques",
    "ProactiveMed": ".techniques",
    "Combined": ".techniques",
    "TECHNIQUES": ".techniques",
    "technique_by_name": ".techniques",
    "CdnController": ".controller",
    "FailureEvent": ".controller",
    "DrillOutcome": ".drill",
    "RotationDrill": ".drill",
    "Playbook": ".playbook",
    "PlaybookEntry": ".playbook",
    "ScenarioReport": ".scenarios",
    "ScenarioRunner": ".scenarios",
    "UnicastFailoverConfig": ".unicast_failover",
    "UnicastFailoverResult": ".unicast_failover",
    "simulate_unicast_failover": ".unicast_failover",
    "FailoverConfig": ".experiment",
    "FailoverExperiment": ".experiment",
    "SiteFailoverResult": ".experiment",
    "TargetOutcome": ".metrics",
    "target_outcome": ".metrics",
    "outcomes_for_run": ".metrics",
    "BounceStatistics": ".metrics",
    "bounce_statistics": ".metrics",
})
