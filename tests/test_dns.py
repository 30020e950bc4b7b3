"""Tests for the TTL-violation model of DNS clients."""

import random

import pytest

from repro.dns.client import ALLMAN_MEDIAN_OVERSTAY_S, TtlViolationModel


class TestTtlViolationModel:
    def test_compliant_never_overstays(self):
        model = TtlViolationModel.compliant()
        rng = random.Random(0)
        assert all(model.sample_overstay(rng) == 0.0 for _ in range(100))

    def test_violation_rate(self):
        model = TtlViolationModel(violation_prob=0.5)
        rng = random.Random(1)
        overstays = [model.sample_overstay(rng) for _ in range(400)]
        violating = sum(1 for o in overstays if o > 0)
        assert 140 < violating < 260

    def test_median_overstay_roughly_allman(self):
        """Violating lookups overstay ~890 s at the median (Allman 2020)."""
        model = TtlViolationModel(violation_prob=1.0)
        rng = random.Random(2)
        overstays = sorted(model.sample_overstay(rng) for _ in range(999))
        median = overstays[len(overstays) // 2]
        assert 0.5 * ALLMAN_MEDIAN_OVERSTAY_S < median < 2.0 * ALLMAN_MEDIAN_OVERSTAY_S

    def test_validation(self):
        with pytest.raises(ValueError):
            TtlViolationModel(violation_prob=2.0)
