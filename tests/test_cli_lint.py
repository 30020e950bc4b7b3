"""CLI tests for ``repro lint`` and stage 1 of the experiment pre-run gate."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.cli.common import gate
from repro.core.techniques import Anycast
from repro.faults import Action
from repro.verify import VerifyWorld


@pytest.fixture
def hazard_file(tmp_path):
    path = tmp_path / "hazard.py"
    path.write_text(
        "import random, time\n"
        "rng = random.Random()\n"
        "seeded = random.Random(hash('x'))\n"
        "jitter = random.random()\n"
        "start = time.time()\n"
        "for item in set([1, 2]):\n"
        "    pass\n"
        "def f(xs=[]):\n"
        "    return xs\n"
        "same = event.t == other.t\n"
    )
    return path


class TestLintCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import random\nrng = random.Random(42)\n")
        assert main(["lint", str(clean)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_every_hazard_class_is_coded(self, hazard_file, capsys):
        assert main(["lint", str(hazard_file)]) == 1
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "DET003", "DET004", "DET005",
                     "DET006", "DET007"):
            assert code in out, f"{code} not reported"

    def test_json_format(self, hazard_file, capsys):
        assert main(["lint", str(hazard_file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 7

    def test_select(self, hazard_file, capsys):
        assert main(["lint", str(hazard_file), "--select", "DET001"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "DET002" not in out

    def test_ignore_by_name(self, hazard_file, capsys):
        code = main(["lint", str(hazard_file), "--ignore",
                     "unseeded-random,module-random,hash-seed,wall-clock,"
                     "set-iteration,float-time-eq,mutable-default"])
        assert code == 0

    def test_unknown_rule_is_usage_error(self, hazard_file):
        assert main(["lint", str(hazard_file), "--select", "DET999"]) == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main(["lint", str(tmp_path / "absent.py")]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "unseeded-random" in out

    def test_lint_src_repro_is_clean(self, capsys):
        """The acceptance gate: the shipped tree lints clean via the CLI."""
        assert main(["lint", "src/repro"]) == 0

    def test_metrics_flag_reports_finding_counters(self, hazard_file, capsys):
        assert main(["lint", str(hazard_file), "--metrics"]) == 1
        out = capsys.readouterr().out
        assert "analysis.lint.findings" in out


def run_world(deployment, **fields):
    """A gate world over the testbed running plain anycast."""
    return VerifyWorld(
        deployment=deployment, techniques=[Anycast()], source="<run>", **fields
    )


class TestPreflightGate:
    """Stage 1 of :func:`repro.cli.common.gate` (the PRE pass)."""

    def test_scenario_refuses_unknown_event_site(self, capsys):
        code = main(["scenario", "-e", "fail:lhr@60"])
        assert code == 2
        err = capsys.readouterr().err
        assert "VER231" in err and "unknown site 'lhr'" in err
        assert "--no-check" in err

    def test_scenario_refuses_backwards_timeline(self, capsys):
        code = main(["scenario", "-e", "recover:sea1@10"])
        assert code == 2
        assert "PRE105" in capsys.readouterr().err

    def test_scenario_brownout_needs_capacity(self, capsys):
        """A brownout with no --capacity is a silent no-op: say so."""
        argv = ["scenario", "-e", "brownout:sea1@10", "--duration", "30"]
        assert main(argv) == 0
        assert "PRE107" in capsys.readouterr().err
        assert main(argv + ["--workload", "constant", "--capacity", "500"]) == 0
        assert "PRE107" not in capsys.readouterr().err

    NONFINITE = "tests/fixtures/workload/bad_nonfinite.json"

    def test_workload_command_refuses_nonfinite_profile(self, capsys):
        """Used to print OK (--check) or die in int(nan) (without)."""
        for argv in (["workload", self.NONFINITE, "--check"], ["workload", self.NONFINITE]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "PRE140 error: base_rps inf is not finite" in captured.err
            assert "rate |" not in captured.out

    def test_runs_refuse_nonfinite_workload_and_capacity(self, capsys):
        """Used to hang (every gap 0.0, one unbounded drain) or report
        100% loss under "capacity invariant: ok"."""
        run = ["scenario", "-t", "anycast", "-e", "fail:sea1@30", "--duration", "60"]
        assert main(run + ["--workload", self.NONFINITE]) == 2
        captured = capsys.readouterr()
        assert "PRE140" in captured.err and "refusing to run" in captured.err
        assert captured.out == ""
        bad_capacity = "tests/fixtures/workload/bad_capacity_nonfinite.json"
        for capacity in ("nan", "inf", bad_capacity):
            assert main(run + ["--workload", "constant", "--capacity", capacity]) == 2
            captured = capsys.readouterr()
            assert "PRE150" in captured.err and "is not finite" in captured.err
            assert captured.out == ""

    def test_commands_expose_no_check_flag(self, capsys):
        parser = build_parser()
        for command in ("failover", "compare", "sweep", "drill", "scenario"):
            assert not parser.parse_args([command]).no_check
            assert parser.parse_args([command, "--no-check"]).no_check
            # the pre-PR-13 spelling is gone, not aliased
            with pytest.raises(SystemExit) as usage:
                parser.parse_args([command, "--no-preflight"])
            assert usage.value.code == 2
            assert "unrecognized arguments: --no-preflight" in capsys.readouterr().err

    def test_override_lets_errors_through(self, deployment, capsys):
        world = run_world(
            deployment, timeline=(Action(60.0, "recover", "lhr"),), duration=300.0
        )
        assert gate(argparse.Namespace(no_check=True), world)
        assert "overridden by --no-check" in capsys.readouterr().err

    def test_gate_blocks_without_override(self, deployment, capsys, monkeypatch):
        """A stage-1 refusal ends the gate: the verify stage never runs."""
        def unreachable(world):
            raise AssertionError("stage 2 ran after a stage-1 refusal")

        monkeypatch.setattr("repro.verify.verify_world", unreachable)
        world = run_world(
            deployment, timeline=(Action(60.0, "recover", "lhr"),), duration=300.0
        )
        assert not gate(argparse.Namespace(no_check=False), world)
        err = capsys.readouterr().err
        assert "preflight: refusing to run" in err and "verify:" not in err

    def test_warnings_do_not_block(self, deployment, capsys):
        world = run_world(
            deployment,
            timeline=(Action(500.0, "fail", "sea1"),),  # after the end: warning only
            duration=300.0,
        )
        assert gate(argparse.Namespace(no_check=False), world)
        assert "VER233" in capsys.readouterr().err
