"""CLI tests for ``repro verify`` and stage 2 of the experiment pre-run gate."""

import argparse
import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.cli.common import gate
from repro.core.techniques import ProactiveSuperprefix
from repro.net.addr import IPv4Prefix
from repro.verify import load_world, world_from_dict
from repro.workload.capacity import CapacityProfile
from repro.workload.profile import builtin_profile

FIXTURES = Path(__file__).parent / "fixtures" / "verify"


def fixture(stem: str) -> str:
    return str(FIXTURES / f"{stem}.json")


def cyclic_world():
    """``bad_gao_cycle.json`` plus two sites: stage 1 passes, stage 2 errors."""
    data = json.loads((FIXTURES / "bad_gao_cycle.json").read_text())
    data["sites"] = [
        {"name": "x", "providers": ["a"]}, {"name": "y", "providers": ["b"]},
    ]
    return world_from_dict(data, source="<run>")


class TestVerifyCommand:
    def test_clean_world_exits_zero(self, capsys):
        assert main(["verify", fixture("clean")]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out
        assert "1 world(s) checked" in out

    def test_error_finding_exits_one(self, capsys):
        assert main(["verify", fixture("bad_gao_cycle")]) == 1
        assert "VER201" in capsys.readouterr().out

    def test_warning_finding_exits_zero(self, capsys):
        assert main(["verify", fixture("bad_damping")]) == 0
        assert "VER213" in capsys.readouterr().out

    def test_multiple_worlds_accumulate(self, capsys):
        code = main([
            "verify", fixture("bad_gao_cycle"), fixture("bad_core_partition"),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "2 world(s) checked" in out
        assert "VER201" in out and "VER202" in out

    def test_json_format(self, capsys):
        assert main(["verify", fixture("bad_gao_cycle"), "-f", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "VER201"

    def test_ignore_by_name(self, capsys):
        assert main(["verify", fixture("bad_gao_cycle"),
                     "--ignore", "gao-cycle"]) == 0

    def test_select(self, capsys):
        assert main(["verify", fixture("bad_gao_cycle"),
                     "--select", "VER202"]) == 0

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["verify", "--select", "VER999"]) == 2

    def test_missing_world_is_usage_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2

    def test_malformed_world_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"ases": [], "wat": 1}))
        assert main(["verify", str(path)]) == 2
        assert "unknown key 'wat'" in capsys.readouterr().err

    @pytest.mark.parametrize("shape, key", [
        pytest.param({"ases": 5}, "ases", id="ases-int"),
        pytest.param({"suppress": 5}, "suppress", id="suppress-int"),
        pytest.param(
            {"ases": [{"node": "a", "asn": 1, "tags": 5}]}, "tags", id="tags-int"
        ),
        pytest.param({"damping": {"bogus": 1}}, "damping", id="damping-unknown-key"),
        pytest.param({"preferences": {"a": 5}}, "preferences", id="preferences-int"),
        pytest.param({"techniques": ["bogus"]}, "techniques", id="techniques-unknown"),
        pytest.param({"techniques": "anycast"}, "techniques", id="techniques-string"),
    ])
    def test_malformed_shape_names_the_key(self, shape, key, tmp_path, capsys):
        """Wrongly-typed values end as PATH: message (exit 2), not a traceback."""
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"ases": [{"node": "a", "asn": 1}], **shape}))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and key in err

    def test_list_checks(self, capsys):
        assert main(["verify", "--list-checks"]) == 0
        out = capsys.readouterr().out
        assert "VER201" in out and "dispute-wheel" in out
        assert "(strict)" in out

    def test_default_world_is_clean(self, capsys):
        """Acceptance: the shipped testbed verifies clean via the CLI."""
        assert main(["verify", "-t", "anycast", "reactive-anycast"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_strict_profile_stays_advisory(self, capsys):
        assert main(["verify", "-t", "anycast", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "VER223" in out and "0 error(s)" in out

    def test_unknown_site_is_usage_error(self, capsys):
        assert main(["verify", "-s", "lhr"]) == 2

    def test_metrics_flag_reports_verify_counters(self, capsys):
        assert main(["verify", fixture("clean"), "--metrics"]) == 0
        assert "verify.runs" in capsys.readouterr().out


class TestVerifyGate:
    """Stage 2 of :func:`repro.cli.common.gate` (the VER pass)."""

    def test_legacy_no_verify_flag_is_a_usage_error(self, capsys):
        parser = build_parser()
        for command in ("failover", "compare", "sweep", "drill", "scenario"):
            with pytest.raises(SystemExit) as usage:
                parser.parse_args([command, "--no-verify"])
            assert usage.value.code == 2
            assert "unrecognized arguments: --no-verify" in capsys.readouterr().err

    def test_gate_blocks_on_errors(self, capsys):
        assert not gate(argparse.Namespace(no_check=False), cyclic_world())
        err = capsys.readouterr().err
        assert "VER201" in err
        assert "verify: refusing to run with 1 error(s); use --no-check" in err

    def test_override_lets_errors_through(self, capsys):
        assert gate(argparse.Namespace(no_check=True), cyclic_world())
        assert "verify: 1 error(s) overridden by --no-check" in capsys.readouterr().err

    def test_warnings_do_not_block(self, capsys):
        world = load_world(FIXTURES / "bad_site_dark.json")
        assert gate(argparse.Namespace(no_check=False), world)
        assert "VER224" in capsys.readouterr().err

    def test_gate_output_identical_across_worker_counts(self, capsys):
        """The gate runs pre-fanout, so its report never depends on -j."""
        world = load_world(FIXTURES / "bad_site_dark.json")
        outputs = []
        for workers in (1, 2):
            assert gate(argparse.Namespace(no_check=False, workers=workers), world)
            outputs.append(capsys.readouterr().err)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("changes, code", [
        pytest.param(
            {"capacity": CapacityProfile(name="idle", default_rps=100.0)},
            "VER243", id="capacity-without-workload",
        ),
        pytest.param(
            {"capacity": CapacityProfile(
                name="typo", site_rps={"x": 150.0, "zzz": 50.0}),
             "workload": builtin_profile("constant")},
            "VER242", id="mistyped-capacity-site",
        ),
        pytest.param(
            {"techniques": [ProactiveSuperprefix()],
             "superprefix": IPv4Prefix.parse("184.164.248.0/24")},
            "VER222", id="non-covering-superprefix",
        ),
    ])
    def test_each_fact_is_stated_once(self, changes, code, capsys):
        """With the override set both stages run; only stage 2 states it."""
        world = dataclasses.replace(load_world(FIXTURES / "clean.json"), **changes)
        assert gate(argparse.Namespace(no_check=True), world)
        err = capsys.readouterr().err
        assert err.count(f" {code} ") == 1
        assert " PRE" not in err


class TestGateEndToEnd:
    def test_failover_runs_through_both_gates(self, capsys):
        code = main([
            "failover", "-t", "reactive-anycast", "-s", "sea1",
            "--targets", "2", "--duration", "30", "--no-progress",
        ])
        assert code == 0
