"""Tests for result serialization."""

import json

import pytest

from repro.core.metrics import TargetOutcome
from repro.measurement.export import (
    cdf_to_dict,
    outcome_to_dict,
    save_json,
)
from repro.measurement.stats import Cdf
from repro.net.addr import IPv4Address


def outcome(**overrides) -> TargetOutcome:
    base = dict(
        target=IPv4Address.parse("10.0.0.1"),
        failed_site="sea1",
        reconnection_s=6.1,
        failover_s=9.1,
        bounces=1,
        disconnections=0,
        final_site="msn",
    )
    base.update(overrides)
    return TargetOutcome(**base)


class TestOutcomeSerialization:
    def test_roundtrippable_fields(self):
        data = outcome_to_dict(outcome())
        assert data["target"] == "10.0.0.1"
        assert data["failed_site"] == "sea1"
        assert data["failover_s"] == 9.1
        json.dumps(data)  # must be JSON-able

    def test_censored_failover_serializes_as_none(self):
        data = outcome_to_dict(outcome(failover_s=None, final_site=None))
        assert data["failover_s"] is None
        assert data["final_site"] is None


class TestCdfSerialization:
    def test_points_and_quantiles(self):
        data = cdf_to_dict(Cdf([1.0, 2.0, 3.0]))
        assert data["n"] == 3
        assert data["p50"] == 2.0
        assert data["points"][0] == [1.0, pytest.approx(1 / 3)]

    def test_censored_p90_is_none(self):
        data = cdf_to_dict(Cdf([1.0], censored=9))
        assert data["p90"] is None
        assert data["censored"] == 9

    def test_empty(self):
        data = cdf_to_dict(Cdf([]))
        assert data["n"] == 0
        assert "p50" not in data


class TestFileRoundtrip:
    def test_save_and_load(self, tmp_path):
        payload = {"experiment": "fig2", "values": [1, 2, 3]}
        path = save_json(tmp_path / "out" / "fig2.json", payload)
        assert path.exists()
        assert json.loads(path.read_text()) == payload

    def test_full_result_export(self, tmp_path, deployment):
        """End to end: run a tiny failover and archive it."""
        from repro.bgp.session import SessionTiming
        from repro.core.experiment import FailoverConfig, FailoverExperiment
        from repro.core.techniques import ReactiveAnycast
        from repro.measurement.export import failover_result_to_dict

        config = FailoverConfig(
            probe_duration=60.0, targets_per_site=5,
            timing=SessionTiming(latency=0.02, jitter=0.1, mrai=2.0),
        )
        experiment = FailoverExperiment(deployment.topology, deployment, config)
        result = experiment.run_site(ReactiveAnycast(), "msn")
        data = failover_result_to_dict(result)
        path = save_json(tmp_path / "result.json", data)
        loaded = json.loads(path.read_text())
        assert loaded["technique"] == "reactive-anycast"
        assert loaded["site"] == "msn"
        assert len(loaded["outcomes"]) == len(result.outcomes)
        assert loaded["failover_cdf"]["n"] == len(result.outcomes)
