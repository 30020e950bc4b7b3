"""Cross-module integration tests: damped failover experiments and
configuration surface checks."""

import pytest

from repro.bgp.damping import DampingConfig
from repro.bgp.session import SessionTiming
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import ReactiveAnycast
from repro.dataplane.ping import PROBE_INTERVAL_S, PROBE_WINDOW_S
from repro.measurement.hitlist import RTT_LIMIT_MS


class TestDampedExperiment:
    def test_failover_experiment_with_damping(self, deployment):
        """The full §5.2 pipeline runs with damping enabled and still
        recovers most targets (sanity for the damping bench)."""
        config = FailoverConfig(
            probe_duration=120.0,
            targets_per_site=8,
            timing=SessionTiming(latency=0.05, jitter=0.3, mrai=5.0, busy_prob=0.2),
            damping=DampingConfig(
                penalty_per_flap=1000.0,
                suppress_threshold=3000.0,
                reuse_threshold=750.0,
                half_life=60.0,
            ),
        )
        experiment = FailoverExperiment(deployment.topology, deployment, config)
        result = experiment.run_site(ReactiveAnycast(), "msn")
        assert result.outcomes
        reconnected = [o for o in result.outcomes if o.reconnection_s is not None]
        assert len(reconnected) >= 0.7 * len(result.outcomes)


class TestConfigSurface:
    def test_failover_config_defaults_match_paper(self):
        config = FailoverConfig()
        assert config.probe_interval == PROBE_INTERVAL_S == 1.5   # "every ~1.5s"
        assert config.probe_duration == PROBE_WINDOW_S == 600.0  # "for ~600s"
        assert RTT_LIMIT_MS == 50.0  # §5.1 proximity bound
        assert not config.silent_failure
        assert config.damping is None

    def test_config_is_frozen(self):
        config = FailoverConfig()
        with pytest.raises(AttributeError):
            config.probe_interval = 2.0
