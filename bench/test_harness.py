"""Self-tests of the benchmark harness. Run as ``pytest bench/``; tier-1's
``testpaths`` does not collect this directory.

One ``--smoke`` pass (tiny parameters, every code path) feeds most of
the assertions; nothing here checks a speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*argv: str, cwd: Path = REPO, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *argv], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = run_bench("--smoke", "--repeats", "0", "--seconds", "0", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


class TestSmokePass:
    def test_runs_all_six_workloads_without_failures(self, smoke):
        assert smoke["schema"] == spec.SCHEMA
        assert set(smoke["workloads"]) == set(spec.WORKLOAD_NAMES)
        for name, entry in smoke["workloads"].items():
            failed = [c for c in entry["checks"] if not c["ok"]]
            assert not failed, (name, failed)
            assert entry["end_to_end"]["failed_frac"]["value"] == 0

    def test_names_are_plain(self, smoke):
        names = list(smoke["workloads"])
        names += [m["name"] for kind in smoke["metrics"].values() for m in kind]
        for entry in smoke["workloads"].values():
            names += list(entry["end_to_end"]) + list(entry["per_layer"])
        assert all(NAME.fullmatch(name) for name in names)

    def test_every_metric_has_unit_direction_and_bound(self, smoke):
        for metric in smoke["metrics"]["end_to_end"]:
            assert metric["unit"] and metric["better"] in ("lower", "higher")
            assert 0 <= metric["bound"] <= 0.25
            assert set(metric["applies"]) <= set(spec.WORKLOAD_NAMES)
        for metric in smoke["metrics"]["per_layer"]:
            assert metric["unit"] and metric["better"] in ("lower", "higher")
            assert metric["moves"]

    def test_each_workload_reports_the_metrics_that_apply(self, smoke):
        single_run = {m.name for m in spec.CONTRACT_PER_LAYER} - {"cli.import_s"}
        for name, entry in smoke["workloads"].items():
            assert set(entry["end_to_end"]) == {m.name for m in spec.end_to_end_for(name)}
            assert single_run <= set(entry["per_layer"])

    def test_layer_table_sums_to_the_wall(self, smoke):
        for name, entry in smoke["workloads"].items():
            wall = entry["per_layer"]["core.traced_wall_s"]
            attributed = sum(row["self_s"] for row in entry["layer_table"])
            assert attributed == pytest.approx(wall, rel=1e-6), name
            assert entry["per_layer"]["core.unattributed_frac"] <= 0.10, name

    def test_spans_have_name_start_end_parent(self, smoke):
        for entry in smoke["workloads"].values():
            ids = set()
            for span_id, name, start, end, parent in entry["spans"]:
                assert NAME.fullmatch(name) and start <= end
                assert parent == -1 or parent in ids
                ids.add(span_id)

    def test_layers_idle_where_predicted(self, smoke):
        for name in spec.MATRIX:
            assert smoke["workloads"][name]["per_layer"]["workload.requests_n"] == 0
        assert smoke["workloads"]["wide-cold"]["per_layer"]["checkpoint.restore_n"] == 0
        for name in spec.STREAM:
            assert smoke["workloads"][name]["per_layer"]["workload.requests_n"] > 0

    def test_serial_and_pool_sweeps_agree(self, smoke):
        workloads = smoke["workloads"]
        assert (workloads["probe-matrix"]["result_digest"]
                == workloads["probe-matrix-w2"]["result_digest"])

    def test_compare_against_itself_is_clean(self, smoke):
        lines, bad = compare.compare(smoke, smoke)
        assert not bad
        assert not any("DIFFERENT" in line or "worse" in line for line in lines)


class TestContract:
    def test_benchmark_json_matches_spec(self, contract):
        assert set(contract) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }
        assert contract["paths"] == ["bench"]
        assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
            (w.name, w.why) for w in spec.WORKLOADS
        ]
        assert contract["end_to_end"] == [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": spec.CONTRACT_BOUND}
            for m in spec.CONTRACT_END_TO_END
        ]
        assert contract["per_layer"] == [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in spec.CONTRACT_PER_LAYER
        ]
        assert all(len(w["why"]) <= 200 for w in contract["workloads"])
        assert "setup_s" in {m["name"] for m in contract["end_to_end"]}

    @pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
    def test_single_run_ends_in_one_result_line(self, contract, trace, group):
        done = run_bench(
            "--workload", "surge-shed", "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--smoke",
        )
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in contract[group]]
        units = {m["name"]: m["unit"] for m in contract[group]}
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]
        if trace == 0:
            assert all(metric["value"] > 0 for metric in result["metrics"].values())

    def test_refuses_to_run_without_the_simulator(self, tmp_path):
        shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(REPO / "BENCHMARK.json", tmp_path)
        done = run_bench(
            "--workload", "probe-matrix", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=tmp_path, script=tmp_path / "bench" / "run.py",
        )
        assert done.returncode != 0
        assert not done.stdout.strip()


class TestDriver:
    def test_failed_child_is_reported_not_raised(self):
        assert "error" in run.spawn_child("no-such-workload", 1, 0.0, False, True)

    def test_quantile_interpolates(self):
        assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
        assert run.quantile([1.0, 2.0], 0.9) == pytest.approx(1.9)
        assert run.quantile([7.0], 0.9) == 7.0


def _summary(samples):
    return run.summarize(list(samples))


class TestVerdicts:
    wall = next(m for m in spec.END_TO_END if m.name == "wall_s")
    rate = next(m for m in spec.END_TO_END if m.name == "cells_per_s")
    failed = next(m for m in spec.END_TO_END if m.name == "failed_frac")

    def test_worse_beyond_the_bound(self):
        slower = [10.0 * (1 + self.wall.bound) * 1.1] * 3
        assert compare.verdict(self.wall, _summary([10.0] * 3), _summary(slower)) == "worse"

    def test_same_within_the_bound(self):
        assert compare.verdict(
            self.wall, _summary([10.0, 10.1, 10.2]), _summary([10.2, 10.3, 10.4])
        ) == "same"

    def test_better_beyond_the_base_spread(self):
        assert compare.verdict(
            self.rate, _summary([4.0, 4.01, 4.02]), _summary([5.0, 5.0, 5.1])
        ) == "better"

    def test_unresolved_when_spread_exceeds_the_bound(self):
        noisy = [10.0, 10.0 * (1 + 2 * self.wall.bound), 10.0 * (1 + 4 * self.wall.bound)]
        assert compare.verdict(self.wall, _summary(noisy), _summary(noisy[::-1])) == "unresolved"

    def test_any_new_failure_is_worse(self):
        assert compare.verdict(self.failed, _summary([0.0] * 3), _summary([0.1] * 3)) == "worse"
