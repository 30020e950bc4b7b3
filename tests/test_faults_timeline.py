"""The run's one timeline: fault-plan edges and scripted events are
the same actions, built by one constructor and fired by one scheduler.

* the constructor's kind and time rule, over both spellings;
* the effect table covers the vocabulary, and the scheduler queues the
  plan's edges first, then the events by time;
* a differential test that a brownout written as two ``-e`` events and
  as one plan entry is the same run, shed release included.
"""

import json

import pytest

from repro.cli import main
from repro.core import scenarios
from repro.core.rig import RunRig
from repro.core.scenarios import ScenarioRunner
from repro.core.techniques import ShedPrepend
from repro.faults import (
    ACTIONS,
    Action,
    Brownout,
    FaultPlan,
    LinkFlap,
    SessionReset,
    timeline,
)
from repro.faults.injector import _EFFECTS
from repro.workload import CapacityProfile, builtin_profile

from tests.conftest import web_clients


class TestOneConstructor:
    def test_every_action_has_exactly_one_effect(self):
        assert _EFFECTS.keys() == ACTIONS.keys()

    def test_sugar_is_the_action_it_spells(self):
        assert Action(5.0, "brownout", "msn") == Action(5.0, "brownout-start", "msn")
        assert Action(5.0, "unbrownout", "msn").action == "brownout-end"
        assert Action(5.0, "unbrownout", "msn").spelling == "unbrownout"

    def test_unknown_kind_and_bad_factor_rejected(self):
        with pytest.raises(ValueError, match="unknown action 'explode'"):
            Action(5.0, "explode", "msn")
        with pytest.raises(ValueError, match=r"factor must be in \[0, 1\)"):
            Action(5.0, "brownout", "msn", {"factor": 1.5})
        with pytest.raises(ValueError, match=r"factor 1 is outside \[0, 1\)"):
            Brownout(at=5.0, site="msn", factor=1.0)

    @pytest.mark.parametrize("text", ["nan", "inf", "1e999", "-1"])
    def test_non_finite_times_rejected_where_the_entry_is_built(
        self, text, tmp_path, capsys
    ):
        """Both spellings, library and CLI: an argparse error for ``-e``
        (the action's own time rule), a load error naming the entry for
        a plan (the fault's ``at`` row)."""
        at = float(text)
        refusal = "at -1 is negative" if at < 0 else f"at {at:g} is not finite"
        with pytest.raises(ValueError, match="finite and non-negative"):
            Action(at, "fail", "sea1")
        with pytest.raises(ValueError, match=refusal):
            SessionReset(at=at, a="r0", b="r1")
        if at > 0:  # a finite start whose end edge is not
            with pytest.raises(ValueError, match=f"down_for {at:g} is not finite"):
                LinkFlap(at=1.0, a="r0", b="r1", down_for=at)

        with pytest.raises(SystemExit) as usage:
            main(["scenario", f"-e=fail:sea1@{text}"])
        assert usage.value.code == 2
        assert "finite and non-negative" in capsys.readouterr().err

        plan = tmp_path / "plan.json"
        # json.dumps writes NaN / Infinity, which json.loads reads back
        plan.write_text(json.dumps(
            {"faults": [{"kind": "session_reset", "at": at, "a": "x", "b": "y"}]}
        ))
        assert main(["scenario", "--faults", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot load fault plan: {plan}: faults[0] ")
        assert refusal in err


class TestOneSchedule:
    def test_plan_edges_first_then_events_by_time(self):
        plan = FaultPlan(faults=(
            LinkFlap(at=50.0, a="r0", b="r1", down_for=5.0, repeat=2, period=20.0),
            Brownout(at=10.0, site="msn", down_for=30.0),
        ))
        events = [Action(90.0, "recover", "sea1"), Action(30.0, "fail", "sea1")]
        merged = timeline(plan, events)
        assert [(e.at, e.action) for e in merged] == [
            (50.0, "link-down"), (55.0, "link-up"),
            (70.0, "link-down"), (75.0, "link-up"),
            (10.0, "brownout-start"), (40.0, "brownout-end"),
            (30.0, "fail"), (90.0, "recover"),
        ]
        assert {e.origin for e in merged[:4]} == {"faults[0] (link_flap)"}
        assert merged[4].origin == "faults[1] (brownout)"
        assert merged[6].origin == "scenario event (fail:sea1@30)"
        assert timeline(None) is None and timeline(FaultPlan()) == ()


class TestBrownoutSpellingsAgree:
    """A brownout is one pair of edges however it is written."""

    START, END = 20.0, 80.0

    def run(self, deployment, monkeypatch, **timeline_kwargs):
        rigs = []

        class SpyRig(RunRig):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rigs.append(self)

        monkeypatch.setattr(scenarios, "RunRig", SpyRig)
        runner = ScenarioRunner(
            topology=deployment.topology, deployment=deployment,
            technique=ShedPrepend(), specific_site="msn", duration_s=100.0,
            target_nodes=web_clients(deployment.topology, 8), seed=7,
            workload=builtin_profile("constant"),
            capacity=CapacityProfile(name="uniform", default_rps=120.0),
            **timeline_kwargs,
        )
        return runner.run(), rigs[0]

    def test_events_and_plan_entry_are_the_same_run(self, deployment, monkeypatch):
        as_events, event_rig = self.run(
            deployment, monkeypatch,
            events=[
                Action(self.START, "brownout", "msn"),
                Action(self.END, "unbrownout", "msn"),
            ],
        )
        as_plan, plan_rig = self.run(
            deployment, monkeypatch,
            fault_plan=FaultPlan(faults=(
                Brownout(at=self.START, site="msn", down_for=self.END - self.START),
            )),
        )
        # The brownout bit: msn overloaded and shed mid-run ...
        assert as_events.workload.lost_overload > 0
        # ... and when capacity came back the shed was released (the
        # controller's latch and the DNS divert), under either spelling.
        for rig in (event_rig, plan_rig):
            assert rig.controller.overloaded_sites == set()
            assert rig.capacity_state.dns_divert == {}
            assert not rig.capacity_state.browned_out("msn")
            assert (rig.injector.injected, rig.injector.skipped) == (2, 0)
        assert as_plan.buckets == as_events.buckets
        assert as_plan.workload == as_events.workload
        assert plan_rig.controller.target_plan() == event_rig.controller.target_plan()
