"""What the benchmark runs and what it reports -- pure data.

Imported by the driver (``run.py``), the comparator (``compare.py``) and
the self-tests; it must stay importable without ``repro`` on the path.
``BENCHMARK.json`` at the repository root repeats the workload names and
the metrics every workload reports; ``test_harness.py`` keeps the two in
step.

Every metric is *host* time or host memory unless its name says
otherwise (``fidelity_err`` is a simulated statistic).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

SCHEMA = "repro.bench/1"

#: The world the testbed, examples/capacity.json and results.md were
#: tuned on. Checks on the shape of the results (Fig. 2 ordering, the
#: capacity contrast) count only there; every other check counts on
#: every seed.
REFERENCE_SEED = 42

#: Fig. 2 failover medians (seconds) from the paper column of
#: ``benchmarks/results.md``; ``fidelity_err`` is measured against them.
PAPER_FAILOVER_P50_S = {
    "anycast": 11.0,
    "reactive-anycast": 12.0,
    "proactive-prepending-3": 16.0,
    "proactive-superprefix": 100.0,
}

COMPARE_TECHNIQUES = (
    "anycast",
    "reactive-anycast",
    "proactive-prepending",
    "proactive-superprefix",
    "combined",
)
#: the site-independent-baseline techniques of the checkpoint benchmark
WIDE_TECHNIQUES = (
    "anycast",
    "proactive-med",
    "proactive-prepending",
    "proactive-superprefix",
)


@dataclass(frozen=True)
class Workload:
    """One closed batch job: a fixed amount of simulation per batch."""

    name: str
    #: one line: which layer this workload stresses and why it exists
    why: str
    #: "matrix" (run_sweep), "failover" (run_site per technique) or
    #: "scenario" (ScenarioRunner.run per technique)
    kind: str
    techniques: tuple[str, ...]
    #: the 357-AS / 22-site deployment instead of the default testbed
    wide: bool = False
    #: fail only this site (None = every site of the deployment)
    site: str | None = None
    #: fail at most this many sites (smoke scale only)
    max_sites: int | None = None
    probe_duration: float = 300.0
    targets_per_site: int = 20
    use_checkpoint: bool = True
    workers: int = 1
    #: sweeps per batch, run with config seeds seed, seed+1, ...
    config_seeds: int = 1
    #: builtin workload profile streamed during the run (None = none)
    profile: str | None = None
    base_rps: float = 0.0
    #: multiplier on the paper-testbed capacity profile (0 = no capacity)
    capacity_scale: float = 0.0
    #: scenario timeline
    duration_s: float = 240.0
    fail_at_s: float = 60.0
    #: check the Fig. 2 technique ordering (needs full-scale samples)
    fig2_check: bool = False


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="probe-matrix",
        why="what repro compare/sweep users run: 5x8 forked matrix, "
            "data-plane bound (hop + prober callbacks ~78% of in-callback wall)",
        kind="matrix",
        techniques=COMPARE_TECHNIQUES,
        fig2_check=True,
    ),
    Workload(
        name="probe-matrix-w2",
        why="the same matrix over 2 pool workers: the only workload where "
            "parallel/ does any work; its result digest must equal probe-matrix's",
        kind="matrix",
        techniques=COMPARE_TECHNIQUES,
        workers=2,
        fig2_check=True,
    ),
    Workload(
        name="wide-cold",
        why="4x22 matrix on the 357-AS topology, cold-started per cell: "
            "control-plane bound (session delivery, FIB install, MRAI ~99%)",
        kind="matrix",
        techniques=WIDE_TECHNIQUES,
        wide=True,
        probe_duration=20.0,
        targets_per_site=3,
        use_checkpoint=False,
    ),
    Workload(
        name="wide-fork",
        why="the same 4x22 matrix forked from checkpoints, two config seeds: "
            "restore-then-delta-converge, so snapshot/restore gains show here only",
        kind="matrix",
        techniques=WIDE_TECHNIQUES,
        wide=True,
        probe_duration=20.0,
        targets_per_site=3,
        config_seeds=2,
    ),
    Workload(
        name="flash-stream",
        why="3 failovers of sea1 under a 1600 rps flash crowd (~3.2M requests): "
            "WorkloadEngine._tick ~93% of in-callback wall; the requests/s rung",
        kind="failover",
        techniques=("anycast", "reactive-anycast", "proactive-superprefix"),
        site="sea1",
        profile="flash-crowd",
        base_rps=1600.0,
    ),
    Workload(
        name="surge-shed",
        why="4 scenario runs under a 1500 rps regional surge with site capacity: "
            "the tick's budget branch, shed-dns diversion and the overload loop",
        kind="scenario",
        techniques=("anycast", "shed-prepend", "shed-withdraw", "shed-dns"),
        site="sea1",
        profile="regional-surge",
        base_rps=1500.0,
        capacity_scale=10.0,
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload_by_name(name: str, smoke: bool = False) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return smoke_scale(workload) if smoke else workload
    raise KeyError(f"unknown workload {name!r}; have {', '.join(WORKLOAD_NAMES)}")


def smoke_scale(workload: Workload) -> Workload:
    """The same code paths at a size that finishes in well under a
    second: for the self-tests, never for a number anyone quotes."""
    if workload.kind == "matrix":
        return replace(
            workload, max_sites=2, targets_per_site=3,
            probe_duration=min(workload.probe_duration, 60.0), fig2_check=False,
        )
    if workload.kind == "failover":
        return replace(workload, targets_per_site=3, probe_duration=150.0, base_rps=100.0)
    # The builtin regional-surge rate against the unscaled capacity
    # profile is the documented contrast (anycast violates, sheds do not).
    return replace(workload, base_rps=150.0, capacity_scale=1.0)


# ----------------------------------------------------------------------
# Metrics

ALL = WORKLOAD_NAMES
MATRIX = ("probe-matrix", "probe-matrix-w2", "wide-cold", "wide-fork")
STREAM = ("flash-stream", "surge-shed")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    #: "lower" or "higher"
    better: str
    #: how much worse before compare.py calls it a regression, same seed
    #: on both sides: a share of the base's median, or an absolute
    #: difference when ``absolute``
    bound: float
    #: workloads that report it
    applies: tuple[str, ...] = ALL
    absolute: bool = False
    what: str = ""


#: The bound BENCHMARK.json carries for every metric it lists. The
#: contract's driver takes its spread across ten *different* seeds, so
#: this bound has to hold the seed-to-seed difference in the work itself
#: (README, "Steadiness": worst quartile spread 0.14, on wide-fork) and
#: not just host noise; three times that is past the contract's cap.
CONTRACT_BOUND = 0.25

END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", 0.10,
             what="timed region: the sweep or scenario runs plus canonical-JSON export"),
    EndToEnd("setup_s", "s", "lower", 0.15,
             what="child process start to start of the timed region "
                  "(import, world build, gates, target selection)"),
    EndToEnd("cells_per_s", "1/s", "higher", 0.10,
             what="cells with status ok / wall_s (a scenario run is one cell)"),
    EndToEnd("requests_per_s", "1/s", "higher", 0.10, applies=STREAM,
             what="workload requests offered / wall_s"),
    EndToEnd("cell_p50_s", "s", "lower", 0.10, applies=MATRIX,
             what="median per-cell host time, pooled over the repeats"),
    EndToEnd("cell_p90_s", "s", "lower", 0.15, applies=MATRIX,
             what="90th percentile per-cell host time, pooled over the repeats"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             what="child ru_maxrss, plus each pool worker's on -w2"),
    EndToEnd("failed_frac", "ratio", "lower", 0.0, absolute=True,
             what="checks failed / checks attempted (one per cell, plus the "
                  "workload-level ones)"),
    EndToEnd("fidelity_err", "ratio", "lower", 0.05,
             applies=("probe-matrix", "probe-matrix-w2"), absolute=True,
             what="simulated: mean |ln(measured / paper)| over the four "
                  "Fig. 2 failover medians"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: the end-to-end metric it should move, and where
    moves: str
    #: repeats exactly for a fixed seed (a later issue may rest on it)
    exact: bool = False
    #: needs more than one child run, so only the full pass reports it
    cross_run: bool = False


_SETUP = "setup_s on every workload; nothing else"
_DATAPLANE = "wall_s, cells_per_s, cell_p50_s on probe-matrix(-w2); <= 3% elsewhere"
_BGP = ("wall_s on wide-cold (most), wide-fork (delta converge), "
        "~22% of probe-matrix; none on the stream workloads")
_CHECKPOINT = ("wall_s, cell_p50_s on wide-fork, ~14% of probe-matrix; "
               "exactly zero calls on wide-cold")
_PHASE = "wall_s on the workload where the phase dominates"
_WORKLOAD = "requests_per_s and wall_s on flash-stream and surge-shed; zero elsewhere"
_PARALLEL = "wall_s on probe-matrix-w2 only"
_DIAG = "diagnostic on every workload"

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("cli.import_s", "s", "lower", _SETUP),
    PerLayer("topology.build_deployment_s", "s", "lower", _SETUP),
    PerLayer("analysis.preflight_s", "s", "lower", _SETUP),
    PerLayer("verify.world_s", "s", "lower", _SETUP),
    PerLayer("measurement.catchment_s", "s", "lower", _SETUP),
    PerLayer("measurement.select_targets_s", "s", "lower", _SETUP),
    PerLayer("dataplane.hop_s", "s", "lower", _DATAPLANE),
    PerLayer("dataplane.hop_n", "count", "lower", _DATAPLANE, exact=True),
    PerLayer("dataplane.probe_s", "s", "lower", _DATAPLANE),
    PerLayer("dataplane.probe_n", "count", "lower", _DATAPLANE, exact=True),
    PerLayer("dataplane.snapshot_path_s", "s", "lower", _DATAPLANE),
    PerLayer("dataplane.snapshot_path_n", "count", "lower", _DATAPLANE, exact=True),
    PerLayer("bgp.deliver_s", "s", "lower", _BGP),
    PerLayer("bgp.deliver_n", "count", "lower", _BGP, exact=True),
    PerLayer("bgp.fib_install_s", "s", "lower", _BGP),
    PerLayer("bgp.fib_install_n", "count", "lower", _BGP, exact=True),
    PerLayer("bgp.mrai_expiry_s", "s", "lower", _BGP),
    PerLayer("bgp.mrai_expiry_n", "count", "lower", _BGP, exact=True),
    PerLayer("bgp.events_n", "count", "lower", _BGP, exact=True),
    PerLayer("bgp.events_per_s", "1/s", "higher", _BGP),
    PerLayer("bgp.route_version_bumps", "count", "lower", _BGP, exact=True),
    PerLayer("topology.build_network_s", "s", "lower", _BGP),
    PerLayer("topology.build_network_n", "count", "lower", _BGP, exact=True),
    PerLayer("checkpoint.snapshot_s", "s", "lower", _CHECKPOINT),
    PerLayer("checkpoint.snapshot_n", "count", "lower", _CHECKPOINT, exact=True),
    PerLayer("checkpoint.restore_s", "s", "lower", _CHECKPOINT),
    PerLayer("checkpoint.restore_n", "count", "lower", _CHECKPOINT, exact=True),
    PerLayer("checkpoint.snapshot_bytes", "B", "lower", _CHECKPOINT, exact=True),
    PerLayer("core.phase.baseline_converge_s", "s", "lower", _PHASE),
    PerLayer("core.phase.deploy_converge_s", "s", "lower", _PHASE),
    PerLayer("core.phase.fork_restore_s", "s", "lower", _PHASE),
    PerLayer("core.phase.select_targets_s", "s", "lower", _PHASE),
    PerLayer("core.phase.fail_probe_s", "s", "lower", _PHASE),
    PerLayer("core.phase.analyze_s", "s", "lower", _PHASE),
    PerLayer("core.phase.scenario_s", "s", "lower", _PHASE),
    PerLayer("measurement.outcomes_s", "s", "lower", _PHASE),
    PerLayer("measurement.export_s", "s", "lower", _PHASE),
    PerLayer("workload.tick_s", "s", "lower", _WORKLOAD),
    PerLayer("workload.tick_n", "count", "lower", _WORKLOAD, exact=True),
    PerLayer("workload.requests_n", "count", "higher", _WORKLOAD, exact=True),
    PerLayer("workload.stream_gen_s", "s", "lower", _WORKLOAD),
    PerLayer("workload.classify_s", "s", "lower", _WORKLOAD),
    PerLayer("workload.cache_hit_frac", "ratio", "higher", _WORKLOAD),
    PerLayer("workload.cache_invalidations", "count", "lower", _WORKLOAD, exact=True),
    PerLayer("workload.overload_n", "count", "lower", _WORKLOAD, exact=True),
    PerLayer("workload.lost_frac", "ratio", "lower", _WORKLOAD),
    PerLayer("parallel.shared_state_s", "s", "lower", _PARALLEL),
    PerLayer("parallel.shared_pickle_bytes", "B", "lower", _PARALLEL),
    PerLayer("parallel.pool_overhead_s", "s", "lower", _PARALLEL),
    PerLayer("parallel.worker_busy_frac", "ratio", "higher", _PARALLEL),
    PerLayer("parallel.speedup_w2", "ratio", "higher", _PARALLEL, cross_run=True),
    PerLayer("telemetry.overhead_ratio", "ratio", "lower", _DIAG, cross_run=True),
    PerLayer("core.traced_wall_s", "s", "lower", _DIAG),
    PerLayer("core.unattributed_frac", "ratio", "lower", _DIAG),
)


def end_to_end_for(workload: str) -> tuple[EndToEnd, ...]:
    return tuple(m for m in END_TO_END if workload in m.applies)


#: The contract file carries the metrics every workload reports;
#: failed_frac travels there as the result's attempted/failed counts.
CONTRACT_END_TO_END = tuple(
    m for m in END_TO_END if m.applies == ALL and m.name != "failed_frac"
)
CONTRACT_PER_LAYER = tuple(m for m in PER_LAYER if not m.cross_run)
