"""The tick decides once per client: the equivalences that rests on,
and a surge replayed against what the per-request tick produced.

* the budget closed form equals admitting requests one at a time;
* with nothing diverting, admitting a tick in arrival order equals the
  per-site aggregate;
* with sites diverting, admitting only the diversion candidates one at
  a time equals admitting every request in arrival order (the loop kept
  in ``divert_oracle.py``);
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
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import telemetry
from repro.core.scenarios import ScenarioRunner
from repro.core.techniques import technique_by_name
from repro.dataplane.forwarding import CLASS_BY_REASON, delivery_verdict
from repro.telemetry.trace import SiteOverloaded, WorkloadSample
from repro.workload import (
    CapacityProfile,
    CapacityState,
    RequestStream,
    WorkloadEngine,
    builtin_profile,
    load_capacity,
)
from repro.topology.testbed import SPECIFIC_PREFIX, SUPERPREFIX
from repro.workload.engine import served_within

from tests.conftest import FAST_TIMING, install_fib
from tests.divert_oracle import _serve_in_order
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
        served, tried = _serve_in_order(engine, times, clients, landed, budgets, {})
        assert tried == attempts
        assert {site: served.get(site, 0) for site in attempts} == aggregate
        codes = np.array([engine._site_code[landed[index]] for index in clients.tolist()])
        assert engine._admit_diverting(times, clients, codes, budgets, {}) == (served, tried)

        # ... and the whole tick, booked through the engine, agrees.
        seen: list[tuple[str, float]] = []
        engine.on_overload = lambda site, offered_rps: seen.append((site, offered_rps))
        plane = engine.plane
        hits, misses = plane.hits, plane.misses
        engine._book(times, clients, dt)
        account = engine.account
        assert account.offered == len(times) == sum(attempts.values())
        assert account.served == sum(aggregate.values())
        assert account.lost_overload == account.offered - account.served
        assert account.served_by_site == {s: n for s, n in aggregate.items() if n}
        assert seen == [
            (s, attempts[s] / dt) for s in sorted(attempts) if aggregate[s] < attempts[s]
        ]
        # One memo lookup per distinct client, each a hit: the walks
        # above filled the memo, and no FIB moved since.
        assert plane.hits - hits == len(landed)
        assert plane.misses == misses


BUDGETS = st.one_of(
    st.sampled_from([math.inf, 0.0, 0.5, 1.0 - 1e-9]),
    st.builds(lambda whole, nudge: whole + nudge,
              st.integers(0, 40), st.sampled_from([-1e-9, 0.0, 1e-9])),
    st.floats(min_value=0.0, max_value=60.0),
)


@st.composite
def diverting_ticks(draw, n_clients: int, sites: list[str]):
    """A tick's arrivals, where each client's requests land (or not),
    the diverting sites and every site's credit."""
    pool = draw(st.lists(st.integers(0, n_clients - 1), min_size=1, max_size=12, unique=True))
    n = draw(st.integers(0, 150))
    times = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    clients = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    landed = {
        index: site
        for index in pool
        if (site := draw(st.one_of(st.none(), st.sampled_from(sites)))) is not None
    }
    divert = draw(st.dictionaries(
        st.sampled_from(sites), st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=3,
    ))
    if draw(st.booleans()):  # one credit everywhere: spares tie
        budget = draw(BUDGETS)
        budgets = {site: budget for site in sites}
    else:
        budgets = {site: draw(BUDGETS) for site in sites}
    dead = draw(st.sets(st.sampled_from(sites)))
    return (np.array(times, dtype=float), np.array(clients, dtype=np.intp), landed,
            divert, budgets, dead)


@pytest.fixture(scope="module")
def divert_engine(deployment):
    plane, _ = anycast_plane(deployment)
    return WorkloadEngine(plane, deployment, builtin_profile("constant"), seed=3)


class TestAdmissionAgainstTheLoop:
    """A diverting tick is admitted with a loop over its diversion
    candidates only; it must admit what the per-request loop does."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_equals_the_per_request_loop(self, divert_engine, data):
        engine = divert_engine
        times, clients, landed, divert, budgets, dead = data.draw(
            diverting_ticks(len(engine.clients), sorted(engine._sites))
        )
        engine.dead_sites = dead
        codes = np.full(len(engine.clients), len(engine._sites), dtype=np.intp)
        for index, site in landed.items():
            codes[index] = engine._site_code[site]
        served, attempts = engine._admit_diverting(
            times, clients, codes[clients], budgets, divert
        )
        want_served, want_attempts = _serve_in_order(
            engine, times, clients, landed, budgets, divert
        )
        assert list(attempts.items()) == list(want_attempts.items())
        assert list(served.items()) == list(want_served.items())

    def test_the_surge_record_diverts(self, deployment, monkeypatch, loop_stream):
        """The shed-dns record ``TestSurgeAgainstThePerRequestEngine``
        replays moves requests off the site they landed at, so that
        replay holds ``_admit_diverting`` to the per-request engine."""
        moved: list[int] = []
        admit = WorkloadEngine._admit_diverting

        def counted(engine, times, clients, codes, budgets, divert):
            served, attempts = admit(engine, times, clients, codes, budgets, divert)
            landed = np.bincount(codes, minlength=engine._n_codes)
            moved.append(sum(
                max(0, landed[code] - attempts.get(site, 0))
                for code, site in enumerate(engine._sites)
            ))
            return served, attempts

        monkeypatch.setattr(WorkloadEngine, "_admit_diverting", counted)
        expected = json.loads(FIXTURE.read_text())["shed-dns"]
        assert json.loads(json.dumps(surge_run(deployment, "shed-dns"))) == expected
        assert sum(moved) >= 1


class TestVerdictVector:
    """A tick walks a client's route only when its verdict may have
    moved: a FIB was written, or the dead sites changed, since the
    verdict was read. Otherwise the tick is one ``bincount``."""

    @staticmethod
    def engine_and_tick(deployment, monkeypatch):
        plane, _ = anycast_plane(deployment)
        profile = type(builtin_profile("constant"))(name="steady", base_rps=400.0)
        engine = WorkloadEngine(plane, deployment, profile, seed=3)
        times, clients = next(RequestStream(profile, engine.clients, 1.0, 3).batches())
        walked: list[str] = []
        walk_from = plane.walk_from

        def counted(start, dst):
            walked.append(start)
            return walk_from(start, dst)

        monkeypatch.setattr(plane, "walk_from", counted)
        return engine, times, clients, walked

    @staticmethod
    def verdict(engine, index):
        """⟨site, loss reason⟩ of client ``index`` from a fresh walk."""
        path = [engine.clients[index]]
        delivered_to, reason = engine.plane._walk(engine.dst, path, {})
        return delivery_verdict(delivered_to, reason, engine.deployment, engine.dead_sites)

    def booked(self, engine, times, clients) -> dict:
        """One tick through ``_book``, and the per-client reference: each
        request classified from a fresh walk."""
        before = asdict(engine.account)
        engine._book(times, clients, 1.0)
        after = asdict(engine.account)
        expected = {"served": 0, "lost_blackhole": 0, "lost_loop": 0, "lost_wrong_site": 0}
        for index in clients.tolist():
            _, loss = self.verdict(engine, index)
            bucket = "served" if loss is None else "lost_" + CLASS_BY_REASON[loss].replace("-", "_")
            expected[bucket] += 1
        assert {key: after[key] - before[key] for key in expected} == expected
        return after

    def test_a_quiet_tick_walks_nothing(self, deployment, monkeypatch):
        engine, times, clients, walked = self.engine_and_tick(deployment, monkeypatch)
        self.booked(engine, times, clients)
        assert sorted(walked) == sorted(engine.clients[i] for i in set(clients.tolist()))
        # Sites in the order a per-client loop meets them (trace bytes).
        order: list[str] = []
        for index in sorted(set(clients.tolist())):
            site, loss = self.verdict(engine, index)
            if loss is None and site not in order:
                order.append(site)
        assert list(engine.account.served_by_site) == order and len(order) > 1
        walked.clear()
        self.booked(engine, times, clients)
        assert walked == []

    def test_a_dead_site_reclassifies(self, deployment, monkeypatch):
        engine, times, clients, walked = self.engine_and_tick(deployment, monkeypatch)
        first = self.booked(engine, times, clients)
        busiest = max(first["served_by_site"], key=first["served_by_site"].get)
        walked.clear()
        engine.dead_sites.add(busiest)
        second = self.booked(engine, times, clients)
        assert len(walked) == len(set(clients.tolist()))
        assert second["lost_wrong_site"] == first["served_by_site"][busiest]

    def test_a_fib_write_reclassifies(self, deployment, monkeypatch):
        engine, times, clients, walked = self.engine_and_tick(deployment, monkeypatch)
        self.booked(engine, times, clients)
        network = engine.plane.network
        client = engine.clients[int(clients[0])]
        install_fib(network, client, SPECIFIC_PREFIX, None)
        install_fib(network, client, SUPERPREFIX, None)
        walked.clear()
        after = self.booked(engine, times, clients)
        assert len(walked) == len(set(clients.tolist()))
        assert after["lost_blackhole"] >= 1


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
    runner.add_event(20.0, "brownout", "msn", factor=0.5)
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
