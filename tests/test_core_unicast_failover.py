"""Tests for the DNS-bound unicast failover model."""

import pytest

from repro.core.unicast_failover import (
    UnicastFailoverConfig,
    simulate_unicast_failover,
)
from repro.dns.client import TtlViolationModel


class TestUnicastFailover:
    def test_compliant_clients_bounded_by_ttl(self):
        """With TTL honoured everywhere, no client outlasts one full TTL
        (client cache) plus one more (resolver cache)."""
        config = UnicastFailoverConfig(
            n_clients=200, ttl=20.0, violation=TtlViolationModel.compliant(), seed=1
        )
        result = simulate_unicast_failover(config)
        assert len(result.switch_delays) == 200
        assert max(result.switch_delays) <= 40.0 + 1e-9
        assert result.median() <= 20.0 + 1e-9

    def test_median_scales_with_ttl(self):
        small = simulate_unicast_failover(
            UnicastFailoverConfig(n_clients=200, ttl=20.0,
                                  violation=TtlViolationModel.compliant(), seed=2)
        )
        large = simulate_unicast_failover(
            UnicastFailoverConfig(n_clients=200, ttl=600.0,
                                  violation=TtlViolationModel.compliant(), seed=2)
        )
        assert large.median() > 5 * small.median()

    def test_violators_inflate_the_tail(self):
        """The paper's §2 argument: TTL violators keep using the dead
        site long after expiry, far beyond anycast-scale failover."""
        violating = simulate_unicast_failover(
            UnicastFailoverConfig(
                n_clients=300, ttl=20.0,
                violation=TtlViolationModel(violation_prob=0.3), seed=3,
            )
        )
        assert violating.quantile(0.9) > 100.0

    def test_quantiles_monotone(self):
        result = simulate_unicast_failover(UnicastFailoverConfig(n_clients=100, seed=4))
        qs = [result.quantile(q / 10) for q in range(1, 10)]
        assert qs == sorted(qs)

    def test_unicast_slower_than_typical_anycast_failover(self):
        """The cross-technique claim: even with a 20 s TTL, DNS-bound
        median failover exceeds the ~10 s BGP-side failover of anycast
        and the paper's techniques."""
        result = simulate_unicast_failover(UnicastFailoverConfig(seed=5))
        assert result.median() > 8.0

    def test_deterministic(self):
        a = simulate_unicast_failover(UnicastFailoverConfig(seed=6))
        b = simulate_unicast_failover(UnicastFailoverConfig(seed=6))
        assert a.switch_delays == b.switch_delays


class TestUnicastFailoverConfig:
    """A population that would crash the model is refused when built."""

    def test_no_clients_refused(self):
        with pytest.raises(ValueError, match="n_clients 0 is outside"):
            UnicastFailoverConfig(n_clients=0)

    def test_no_clients_per_resolver_refused(self):
        with pytest.raises(ValueError, match="clients_per_resolver 0 is outside"):
            UnicastFailoverConfig(clients_per_resolver=0)
