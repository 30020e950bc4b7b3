"""The probe record against the join it replaced, and the event
structure the benchmark's exact counts rest on.

* differential: for each Fig. 2 technique the §5.4.1 outcomes computed
  from the prober's records equal the same arithmetic over the re-join by
  sequence number kept in ``tests/probe_oracle.py``, and the availability
  ledger rebuilds those very records from the trace;
* census: one forked cell schedules exactly one ``Prober.`` callback per
  round event (a pass writes the later rounds of its window) and one
  ``ForwardingPlane.`` callback per reply that landed as a flight (plus
  any landing a FIB write made stale) -- the numbers the benchmark's
  exact counts rest on.
"""

import pytest

from repro import telemetry
from repro.core import experiment as experiment_module
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.rig import RunRig
from repro.core.techniques import (
    Anycast,
    ProactivePrepending,
    ProactiveSuperprefix,
    ReactiveAnycast,
)
from repro.obs.ledger import AvailabilityLedger
from repro.obs.profiler import EventProfiler

from tests.conftest import counter_values
from tests.probe_oracle import joined_outcome

FIG2 = [Anycast(), ReactiveAnycast(), ProactivePrepending(3), ProactiveSuperprefix()]


def forked_experiment(deployment):
    return FailoverExperiment(
        deployment.topology, deployment,
        FailoverConfig(probe_duration=60.0, targets_per_site=40),
        use_checkpoint=True,
    )


@pytest.mark.parametrize("technique", FIG2, ids=lambda technique: technique.name)
def test_records_equal_the_join_by_sequence_number(monkeypatch, deployment, technique):
    rigs = []

    class KeptRig(RunRig):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rigs.append(self)

    monkeypatch.setattr(experiment_module, "RunRig", KeptRig)
    tracer = telemetry.TraceRecorder()
    with telemetry.using(telemetry.Telemetry(tracer=tracer)):
        result = forked_experiment(deployment).run_site(technique, "sea1")
    (rig,) = rigs
    logs = rig.prober.logs
    assert result.outcomes and len(result.outcomes) == len(logs)

    # target_outcome over the records == the §5.4.1 arithmetic over the join.
    for outcome in result.outcomes:
        assert outcome == joined_outcome(
            tracer.events, outcome.target, "sea1", result.withdrawal_time
        )

    # The ledger rebuilds the prober's own records from the trace.
    rebuilt = AvailabilityLedger.from_events(tracer.events).probes
    assert set(rebuilt) == {(technique.name, "sea1", str(target)) for target in logs}
    for target, log in logs.items():
        assert rebuilt[(technique.name, "sea1", str(target))] == log.probes
        assert [p.seq for p in log.probes] == sorted(p.seq for p in log.probes)


def test_callback_census_of_one_forked_cell(deployment):
    """One ``Prober.`` callback per probing round (every target is probed
    in the round's one event) and one ``ForwardingPlane.`` callback per
    reply that landed as a flight, plus any landing a FIB write made
    stale: what ``dataplane.probe_n`` / ``dataplane.hop_n`` count in
    ``bench/``. Before replies became flights this cell made 3280 and
    6283 events (a reply event per probe, an event per hop); before
    probing ran in rounds, 1640 and 1640 (a tick per probe, a landing
    per reply); before a round took the window between BGP bursts, 41
    and 1640 (the cell never went quiet inside its window, so every
    reply landed as a flight); before a restore kept each router's
    session order, 21 and 677 (963 replies quiet, no stale landing).
    A change that batches, merges or drops probe events moves these."""
    profiler = EventProfiler()
    with telemetry.using(telemetry.Telemetry(profiler=profiler)) as active:
        forked_experiment(deployment).run_site(ReactiveAnycast(), "sea1")
    counters = counter_values(active)
    control_plane = ("Session.", "BgpRouter.", "CdnController.")
    data_plane = {
        name: count for name, (count, _) in profiler.callbacks.items()
        if not any(fragment in name for fragment in control_plane)
    }
    assert all("Prober." in name or "ForwardingPlane." in name for name in data_plane)
    probe_n = sum(count for name, count in data_plane.items() if "Prober." in name)
    hop_n = sum(count for name, count in data_plane.items() if "ForwardingPlane." in name)
    replies = counters["probe.replies"] + counters["probe.replies_lost"]
    flown = replies - counters.get("probe.quiet", 0)
    assert counters["probe.sent"] == replies == 1640
    # 60 s at 1.5 s is 41 rounds: the round at the start is a direct
    # call, and a round whose window holds later rounds writes them in
    # its pass, so 24 round events carry the other 40.
    assert probe_n == 24
    assert counters["probe.quiet"] == 1001
    assert hop_n == flown + 1 == 640  # one landing a FIB write made stale
