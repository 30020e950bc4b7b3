"""The tick decides once per client: the two equivalences that rests on,
and a surge replayed against what the per-request tick produced.

* the budget closed form equals admitting requests one at a time;
* with nothing diverting, admitting a tick in arrival order equals the
  per-site aggregate;
* a small regional surge (overload, a brownout, a silent failure, DNS
  diversion) yields the trace events and account recorded from the
  per-request engine at the commit before the tick read arrays
  (``fixtures/workload/surge_ticks.json``), on the stream the record
  was taken on: the per-candidate loop's.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import telemetry
from repro.core.scenarios import ScenarioRunner
from repro.core.techniques import technique_by_name
from repro.dataplane.forwarding import delivery_verdict
from repro.telemetry.trace import SiteOverloaded, WorkloadSample
from repro.workload import (
    CapacityProfile,
    CapacityState,
    RequestStream,
    WorkloadEngine,
    builtin_profile,
    load_capacity,
)
from repro.workload.engine import served_within

from tests.conftest import FAST_TIMING
from tests.test_workload_capacity import anycast_plane

FIXTURE = Path(__file__).parent / "fixtures" / "workload" / "surge_ticks.json"


def one_at_a_time(attempts: int, budget: float) -> int:
    """The per-request admission loop the closed form replaces."""
    spent = 0.0
    for _ in range(attempts):
        if spent + 1.0 <= budget + 1e-9:
            spent += 1.0
    return int(spent)


class TestBudgetClosedForm:
    @given(
        attempts=st.integers(0, 400),
        budget=st.one_of(
            st.floats(min_value=-5.0, max_value=500.0),
            st.sampled_from([math.inf, math.nan, 0.0, 0.5, 1.0 - 1e-9, 1.0 - 2e-9]),
            st.builds(
                lambda whole, nudge: whole + nudge,
                st.integers(0, 400), st.sampled_from([-2e-9, -1e-9, 0.0, 1e-9]),
            ),
        ),
    )
    def test_equals_the_per_request_loop(self, attempts, budget):
        assert served_within(attempts, budget) == one_at_a_time(attempts, budget)


class TestOrderedEqualsAggregate:
    """With no site diverting, the ordered replay (the per-request budget
    loop) and the per-site aggregate admit the same requests. Everything
    the tick books after that -- account, overload latch, trace -- is
    computed from these two tables by shared code."""

    @pytest.mark.parametrize("default_rps", [None, 2.0, 25.0, 60.0, 1e6])
    def test_one_tick(self, deployment, default_rps):
        plane, _ = anycast_plane(deployment)
        profile = type(builtin_profile("constant"))(name="hot", base_rps=400.0)
        capacity = CapacityState(
            CapacityProfile(name="c", default_rps=default_rps, site_rps={"msn": 1.0}),
            deployment.site_names,
        )
        engine = WorkloadEngine(plane, deployment, profile, seed=3, capacity=capacity)
        stream = RequestStream(profile, engine.clients, 1.0, 3, engine.regions)
        times, clients = next(stream.batches())
        dt = 0.5
        due = int(np.searchsorted(times, dt, "right"))
        times, clients = times[:due], clients[:due]
        assert len(times) > 100

        def site_of(client):
            walk = engine.plane.walk_from(client, engine.dst)
            return delivery_verdict(walk.delivered_to, walk.reason, deployment)[0]

        landed = {index: site_of(engine.clients[index]) for index in set(clients.tolist())}
        attempts: dict[str, int] = {}
        for index in clients.tolist():
            attempts[landed[index]] = attempts.get(landed[index], 0) + 1
        budgets = {site: capacity.effective_rps(site) * dt for site in deployment.site_names}
        aggregate = {site: served_within(n, budgets[site]) for site, n in attempts.items()}
        served, tried = engine._serve_in_order(times, clients, landed, budgets, {})
        assert tried == attempts
        assert {site: served.get(site, 0) for site in attempts} == aggregate

        # ... and the whole tick, booked through the engine, agrees.
        seen: list[str] = []
        engine.on_overload = seen.append
        plane = engine.plane
        hits, misses = plane.hits, plane.misses
        engine._book(times, clients, dt)
        account = engine.account
        assert account.offered == len(times) == sum(attempts.values())
        assert account.served == sum(aggregate.values())
        assert account.lost_overload == account.offered - account.served
        assert account.served_by_site == {s: n for s, n in aggregate.items() if n}
        assert seen == sorted(s for s, n in attempts.items() if aggregate[s] < n)
        # One memo lookup per distinct client, each a hit: the walks
        # above filled the memo, and no FIB moved since.
        assert plane.hits - hits == len(landed)
        assert plane.misses == misses


# ----------------------------------------------------------------------
# A small surge against the per-request engine's record

SAMPLE_KEYS = ("t", "offered", "served", "blackhole", "loop", "wrong_site", "overload",
               "user_seconds_lost")
OVERLOAD_KEYS = ("t", "site", "offered_rps", "capacity_rps")
SURGE_TECHNIQUES = ("anycast", "shed-prepend", "shed-withdraw", "shed-dns")


def surge_run(deployment, technique: str) -> dict:
    """One scenario: regional surge against tight capacity, a brownout
    that ends, and a silent failure. Returns the account and the
    workload trace events, as JSON-able rows."""
    runner = ScenarioRunner(
        topology=deployment.topology, deployment=deployment,
        technique=technique_by_name(technique), specific_site="sea1",
        duration_s=100.0, n_targets=4, timing=FAST_TIMING, seed=7,
        workload=builtin_profile("regional-surge"), capacity=load_capacity("150"),
    )
    runner.brownout(20.0, "msn", factor=0.5)
    runner.add_event(50.0, "fail-silent", "sea1")
    runner.add_event(80.0, "unbrownout", "msn")
    tracer = telemetry.TraceRecorder()
    with telemetry.using(telemetry.Telemetry(tracer=tracer)):
        report = runner.run()
    out: dict = {"account": asdict(report.workload), "samples": [], "overloaded": []}
    for event in tracer.events:
        if isinstance(event, WorkloadSample):
            out["samples"].append([getattr(event, key) for key in SAMPLE_KEYS])
        elif isinstance(event, SiteOverloaded):
            out["overloaded"].append([getattr(event, key) for key in OVERLOAD_KEYS])
    return out


@pytest.mark.usefixtures("loop_stream")
class TestSurgeAgainstThePerRequestEngine:
    """The record was taken on the stream the per-candidate loop draws,
    so the run draws from it too."""

    @pytest.mark.parametrize("technique", SURGE_TECHNIQUES)
    def test_events_and_account(self, deployment, technique):
        expected = json.loads(FIXTURE.read_text())[technique]
        # The fixture exercises what it claims to.
        assert expected["account"]["lost_overload"] > 0
        assert expected["account"]["lost_wrong_site"] > 0
        assert expected["overloaded"]
        assert json.loads(json.dumps(surge_run(deployment, technique))) == expected
