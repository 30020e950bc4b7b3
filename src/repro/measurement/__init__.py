"""Measurement and analysis layer.

Everything the paper's evaluation computes from raw experiment artefacts
lives here: target selection (§5.1), anycast catchments, Table-1 traffic
control, per-⟨collector peer, event⟩ convergence and propagation times
(Appendices A and B, via the routing-history emulation), the Appendix C.1
diverging-AS analysis, and CDF/statistics utilities shared by the
benches.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Cdf": ".stats",
    "summarize": ".stats",
    "Hitlist": ".hitlist",
    "TargetSelection": ".hitlist",
    "select_targets": ".hitlist",
    "anycast_catchment": ".catchment",
    "catchment_from_network": ".catchment",
    "ControlResult": ".control",
    "measure_control": ".control",
    "estimate_event_time": ".convergence",
    "propagation_times": ".convergence",
    "withdrawal_convergence_times": ".convergence",
    "RoutingHistory": ".routing_history",
    "WithdrawalEvent": ".routing_history",
    "DivergenceReport": ".divergence",
    "analyze_divergence": ".divergence",
    "AppendixSamples": ".appendix",
    "announced_prefix_snapshot": ".appendix",
    "run_propagation_study": ".appendix",
    "run_withdrawal_study": ".appendix",
    "cdf_to_dict": ".export",
    "control_result_to_dict": ".export",
    "failover_result_to_dict": ".export",
    "load_json": ".export",
    "outcome_to_dict": ".export",
    "save_json": ".export",
    "PerformanceReport": ".performance",
    "SiteRttTable": ".performance",
    "analyze_performance": ".performance",
    "render_cdfs": ".plotting",
})
