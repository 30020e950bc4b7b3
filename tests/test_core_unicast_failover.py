"""Tests for the DNS-bound unicast failover model."""

import math
import sys

import pytest

from repro.core.unicast_failover import (
    UnicastFailoverConfig,
    simulate_unicast_failover,
)
from repro.dns import client as client_module
from repro.dns.client import TtlViolationModel


class TestUnicastFailover:
    def test_compliant_clients_bounded_by_ttl(self):
        """With TTL honoured everywhere, no client outlasts one TTL: it
        keeps the dead record only for its group's remaining TTL."""
        config = UnicastFailoverConfig(
            n_clients=200, ttl=20.0, violation=TtlViolationModel.compliant(), seed=1
        )
        result = simulate_unicast_failover(config)
        assert len(result.switch_delays) == 200
        assert max(result.switch_delays) <= 20.0 + 1e-9
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

    def test_a_resolver_group_shares_one_ttl(self):
        """The §2 problem: after the CDN repoints DNS, a resolver keeps
        handing out its cached record until that expires, so compliant
        clients behind one resolver all switch together."""
        result = simulate_unicast_failover(
            UnicastFailoverConfig(n_clients=20, ttl=20.0, clients_per_resolver=5,
                                  violation=TtlViolationModel.compliant(), seed=7)
        )
        groups = [result.switch_delays[i:i + 5] for i in range(0, 20, 5)]
        for group in groups:
            assert group == pytest.approx([group[0]] * 5, abs=1e-9)
            assert 0.0 < group[0] <= 20.0
        assert len({round(group[0], 6) for group in groups}) == 4

    def test_a_violator_keeps_its_overstay(self):
        """Past its group's expiry a violating client clings to the dead
        site's record for its sampled overstay."""
        def delays(violation):
            return simulate_unicast_failover(
                UnicastFailoverConfig(n_clients=30, ttl=20.0, violation=violation, seed=8)
            ).switch_delays

        compliant = delays(TtlViolationModel.compliant())
        clinging = delays(
            TtlViolationModel(violation_prob=1.0, median_overstay=1000.0, sigma=0.0)
        )
        assert clinging == pytest.approx([d + 1000.0 for d in compliant])

    def test_deterministic(self):
        a = simulate_unicast_failover(UnicastFailoverConfig(seed=6))
        b = simulate_unicast_failover(UnicastFailoverConfig(seed=6))
        assert a.switch_delays == b.switch_delays


class TestUnicastFailoverConfig:
    """A config that would crash the model or give meaningless delays is
    refused when built."""

    def test_no_clients_refused(self):
        with pytest.raises(ValueError, match="n_clients 0 is outside"):
            UnicastFailoverConfig(n_clients=0)

    def test_no_clients_per_resolver_refused(self):
        with pytest.raises(ValueError, match="clients_per_resolver 0 is outside"):
            UnicastFailoverConfig(clients_per_resolver=0)

    @pytest.mark.parametrize("build, message", [
        (lambda: UnicastFailoverConfig(ttl=-5.0), "ttl -5 is outside"),
        (lambda: UnicastFailoverConfig(ttl=math.nan), "ttl nan is not finite"),
        (lambda: UnicastFailoverConfig(ttl=math.inf), "ttl inf is not finite"),
        (lambda: UnicastFailoverConfig(ttl=1e308), "ttl 1e[+]308 is outside .*RFC 2181"),
        (lambda: TtlViolationModel(violation_prob=math.nan), "violation_prob nan is not finite"),
        (lambda: TtlViolationModel(violation_prob=-0.1), "violation_prob -0.1 is outside"),
        (lambda: TtlViolationModel(violation_prob=1.5), "violation_prob 1.5 is outside"),
        (lambda: TtlViolationModel(median_overstay=math.nan), "median_overstay nan is not finite"),
        (lambda: TtlViolationModel(median_overstay=math.inf), "median_overstay inf is not finite"),
        (lambda: TtlViolationModel(median_overstay=-1.0), "median_overstay -1 is outside \\[0, "),
        (lambda: TtlViolationModel(violation_prob=1.0, median_overstay=1e308),
         "median_overstay 1e[+]308 is outside .*must stay finite"),
        (lambda: TtlViolationModel(sigma=math.nan), "sigma nan is not finite"),
        (lambda: TtlViolationModel(sigma=math.inf), "sigma inf is not finite"),
        (lambda: TtlViolationModel(sigma=-1.0), "sigma -1 is outside \\[0, 50\\]"),
        (lambda: TtlViolationModel(violation_prob=1.0, sigma=1e308),
         "sigma 1e[+]308 is outside .*must stay finite"),
    ], ids=[
        "ttl-negative", "ttl-nan", "ttl-inf", "ttl-past-rfc2181",
        "violation_prob-nan", "violation_prob-negative", "violation_prob-above-1",
        "median_overstay-nan", "median_overstay-inf", "median_overstay-negative",
        "median_overstay-1e308", "sigma-nan", "sigma-inf", "sigma-negative", "sigma-1e308",
    ])
    def test_bad_numbers_refused(self, build, message):
        """A number that would make the medians NaN, inf or silently 0
        is refused when the config is built."""
        with pytest.raises(ValueError, match=message):
            build()

    def test_zero_ttl_and_zero_sigma_accepted(self):
        """The interval ends are values: a 0 s TTL switches at the
        failure, and ``sigma=0`` makes every overstay the median."""
        result = simulate_unicast_failover(UnicastFailoverConfig(
            n_clients=5, ttl=0.0,
            violation=TtlViolationModel(violation_prob=1.0, median_overstay=60.0, sigma=0.0),
        ))
        assert result.switch_delays == pytest.approx([60.0] * 5)

    def test_upper_bounds_keep_every_overstay_finite(self):
        """``normalvariate``'s ``|z|`` is at most ``2 * sqrt(-log(2**-53))``
        (its ratio of uniforms), so at the rows' upper ends the lognormal
        exponent stays below the log of the largest float, and a run there
        ends in finite delays."""
        rows = {row.name: row for row in client_module._ROWS}
        max_z = 2 * math.sqrt(-math.log(2.0**-53))
        assert max_z < 12.2
        exponent = math.log(rows["median_overstay"].hi) + 12.2 * rows["sigma"].hi
        assert exponent < math.log(sys.float_info.max)
        result = simulate_unicast_failover(UnicastFailoverConfig(
            n_clients=50, violation=TtlViolationModel(
                violation_prob=1.0,
                median_overstay=rows["median_overstay"].hi,
                sigma=rows["sigma"].hi,
            ),
        ))
        assert all(math.isfinite(delay) for delay in result.switch_delays)


class TestPinnedDelays:
    """The §2 ablation's regimes (``benchmarks/test_bench_unicast_dns.py``)
    and Table 2's unicast median, to the microsecond: the model's draws
    and arithmetic may not move without a stated change."""

    @pytest.mark.parametrize("ttl, violation_prob, pinned", [
        (20.0, 0.0, (10.154017, 17.638569, 19.197641)),
        (20.0, 0.3, (14.03358, 1580.548597, 5950.956082)),
        (600.0, 0.3, (415.929423, 1952.124008, 6358.986077)),
    ], ids=["akamai-20s-compliant", "akamai-20s-violators", "top-domain-600s"])
    def test_section2_regime_quantiles(self, ttl, violation_prob, pinned):
        result = simulate_unicast_failover(UnicastFailoverConfig(
            n_clients=600, ttl=ttl,
            violation=TtlViolationModel(violation_prob=violation_prob), seed=1,
        ))
        quantiles = tuple(round(result.quantile(q), 6) for q in (0.5, 0.9, 0.99))
        assert quantiles == pinned

    def test_table2_unicast_median(self):
        result = simulate_unicast_failover(UnicastFailoverConfig(n_clients=300, ttl=600.0))
        assert round(result.median(), 6) == 317.466475
