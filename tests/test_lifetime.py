"""A run's network dies with the run -- asserted, not hoped for.

A live :class:`BgpNetwork` is one big reference cycle (router ->
sessions -> the remote router's bound ``receive``; queued callbacks ->
sessions; rig <-> injector), so a runner that forgets to release it
still produces the right results: the only symptom is the cycle
collector's wall coming back. Every test here therefore runs with the
collector **off** and checks that plain reference counting alone frees
everything a run built, on every runner and on the failure path.
"""

import collections
import gc
import json
import weakref
from pathlib import Path

import pytest

from repro.bgp.damping import DampingConfig
from repro.bgp.engine import EventEngine
from repro.bgp.network import BgpNetwork
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionTiming
from repro.core import experiment as experiment_module
from repro.core.drill import RotationDrill
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.rig import RunRig
from repro.core.scenarios import ScenarioRunner
from repro.core.techniques import Anycast, ReactiveAnycast
from repro.dataplane.ping import Probe, Prober
from repro.faults.plan import load_fault_plan
from repro.measurement.export import sweep_report_to_dict
from repro.parallel import matrix, run_sweep
from repro.parallel.pool import map_cells
from repro.topology.generator import Topology
from repro.topology.testbed import SPECIFIC_PREFIX
from repro.workload import builtin_profile

from tests.conftest import build_line_network

ROOT = Path(__file__).resolve().parent.parent
FAST = SessionTiming(latency=0.05, jitter=0.5, mrai=10.0, busy_prob=0.3, fib_delay=1.0)

#: what a run builds and must not leave behind
RUN_TYPES = (BgpNetwork, BgpRouter, Session, EventEngine, RunRig, Prober, Probe)


def census() -> collections.Counter:
    """Live instances of the run types, by name (no collection involved:
    ``gc.get_objects`` lists what is tracked, reachable or not)."""
    return collections.Counter(
        type(o).__name__ for o in gc.get_objects() if isinstance(o, RUN_TYPES)
    )


@pytest.fixture()
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.fixture()
def witnesses(monkeypatch):
    """Weak references to every network a run builds or restores, to its
    engine and to one of its routers, taken at the two factory seams."""
    refs = []

    def witnessed(factory):
        def wrapper(*args, **kwargs):
            network = factory(*args, **kwargs)
            router = next(iter(network.routers.values()))
            assert router.sessions, "witness router should carry sessions"
            refs.extend(weakref.ref(o) for o in (network, network.engine, router))
            return network

        return wrapper

    monkeypatch.setattr(Topology, "build_network", witnessed(Topology.build_network))
    monkeypatch.setattr(
        experiment_module, "restore_network",
        witnessed(experiment_module.restore_network),
    )
    return refs


def config(**overrides) -> FailoverConfig:
    # The calibrated default timing on purpose: its long MRAIs leave
    # timers queued at the end of the window, as real sweeps do.
    return FailoverConfig(probe_duration=30.0, targets_per_site=3, seed=13, **overrides)


def forked_cell(deployment):
    FailoverExperiment(
        deployment.topology, deployment, config(), use_checkpoint=True
    ).run_site(ReactiveAnycast(), "msn")


def cold_cell(deployment):
    # With damping: each router <-> its RouteDamping is a ring of its own.
    FailoverExperiment(
        deployment.topology, deployment, config(damping=DampingConfig())
    ).run_site(Anycast(), "msn")


def flash_crowd_cell(deployment):
    profile = builtin_profile("flash-crowd")
    result = FailoverExperiment(
        deployment.topology, deployment, config(workload=profile), use_checkpoint=True
    ).run_site(Anycast(), "sea1")
    assert result.workload.offered > 0


def scenario_run(deployment):
    runner = ScenarioRunner(
        deployment.topology, deployment, ReactiveAnycast(), "msn",
        duration_s=60.0, n_targets=4, timing=FAST,
        fault_plan=load_fault_plan(ROOT / "examples" / "faultplan.json"),
    )
    runner.fail(10.0, "msn").recover(40.0, "msn")
    assert runner.run().buckets


def drill_site(deployment):
    clients = [i.node_id for i in deployment.topology.web_client_ases()[:5]]
    drill = RotationDrill(
        deployment.topology, deployment, ReactiveAnycast(),
        deadline_s=30.0, timing=FAST, check_invariants=True,
    )
    assert drill.run_site("msn", clients).recovered == len(clients)


RUNNERS = [forked_cell, cold_cell, flash_crowd_cell, scenario_run, drill_site]


class TestRunsReleaseWhatTheyBuild:
    @pytest.mark.parametrize("run", RUNNERS, ids=lambda run: run.__name__)
    def test_reference_counting_alone_frees_the_run(
        self, deployment, collector_off, witnesses, run
    ):
        before = census()
        run(deployment)
        # Before any collection: the witnesses are dead and no run object
        # is left on the heap, reachable or not.
        assert witnesses, "the run should have built a network"
        assert [ref() for ref in witnesses if ref() is not None] == []
        assert census() == before
        # And the collector, asked, finds none of them among its garbage.
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert [o for o in gc.garbage if isinstance(o, RUN_TYPES)] == []

    def test_a_raising_cell_still_releases_its_network(
        self, deployment, collector_off, witnesses, monkeypatch
    ):
        def explode(*args):
            raise RuntimeError("analysis blew up")

        monkeypatch.setattr(experiment_module, "outcomes_for_run", explode)
        experiment = FailoverExperiment(
            deployment.topology, deployment, config(), use_checkpoint=True
        )
        before = census()
        (result,) = map_cells(
            lambda exp, site: exp.run_site(Anycast(), site), experiment, [("c", "msn")]
        )
        assert result.status == "error" and "analysis blew up" in result.error
        assert len(witnesses) == 6  # the baseline's network and the cell's
        assert [ref() for ref in witnesses if ref() is not None] == []
        assert census() == before
        assert gc.get_freeze_count() == 0


class TestClose:
    def test_close_twice_is_a_no_op(self):
        network = build_line_network(3)
        network.announce("r0", SPECIFIC_PREFIX)
        network.close()
        assert not network.routers and network.engine.pending == 0
        network.close()
        assert not network.routers and network.engine.pending == 0

    def test_rig_close_twice_is_a_no_op(self, deployment):
        with deployment.topology.build_network(seed=1, timing=FAST) as network:
            rig = RunRig(network, deployment, Anycast(), "msn")
            rig.close()
            rig.close()
            assert rig.injector.rig is None

    def test_with_block_closes_on_the_way_out(self):
        with build_line_network(2) as network:
            assert network.routers
        assert not network.routers


class TestFrozenHeap:
    @staticmethod
    def _double(context, payload):
        return payload * 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_map_cells_unfreezes_on_the_way_out(self, workers):
        results = map_cells(
            self._double, None, [("a", 1), ("b", 2)], workers=workers
        )
        assert [r.value for r in results] == [2, 4]
        assert gc.get_freeze_count() == 0

    def test_cells_run_against_a_frozen_heap(self):
        (result,) = map_cells(lambda context, payload: gc.get_freeze_count(), None, [("a", 0)])
        assert result.value > 0

    def test_a_raising_progress_callback_still_unfreezes(self):
        def progress(done, total, result):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            map_cells(self._double, None, [("a", 1)], progress=progress)
        assert gc.get_freeze_count() == 0


def test_forked_sweep_is_identical_serial_and_pooled(deployment):
    """The release and the freeze touch no draw, event or ordering: a
    2 x 2 forked sweep exports the same document either way."""
    cells = matrix([Anycast(), ReactiveAnycast()], list(deployment.site_names[:2]))

    def document(workers):
        experiment = FailoverExperiment(
            deployment.topology, deployment, config(), use_checkpoint=True
        )
        report = run_sweep(experiment, cells, workers=workers)
        assert report.ok
        doc = sweep_report_to_dict(report)
        doc.pop("wall_s")
        doc.pop("workers")
        for cell in doc["cells"]:
            cell.pop("wall_s")
        return json.dumps(doc, sort_keys=True)

    assert document(1) == document(2)
