"""The numpy-backed :class:`Cdf`, kept as the reference for the list one.

Until ``measurement/stats.py`` dropped numpy (so that a run streaming no
workload never loads it), :class:`Cdf` sorted its samples with
``np.sort`` and answered ``at`` with ``np.searchsorted``. The class is
moved here verbatim; ``tests/test_measurement_stats.py::TestOracle``
holds ``at``, ``quantile``, ``median`` and ``series`` of the list
version bit-equal to it over drawn samples.
"""

from __future__ import annotations

import bisect
import math

import numpy as np


class Cdf:
    """Empirical CDF over non-negative samples, with censored mass.

    ``quantile(q)`` returns ``math.inf`` when the requested quantile falls
    into the censored tail -- e.g. the p90 failover time of a technique
    whose targets mostly never stabilized.
    """

    def __init__(self, samples: list[float], censored: int = 0) -> None:
        if censored < 0:
            raise ValueError(f"censored count must be >= 0, got {censored}")
        if any(s < 0 for s in samples):
            raise ValueError("samples must be non-negative")
        self._sorted = np.sort(np.asarray(samples, dtype=float))
        self.censored = censored

    @classmethod
    def from_optional(cls, values: list[float | None]) -> "Cdf":
        """Build from values where None marks a censored sample."""
        observed = [v for v in values if v is not None]
        return cls(observed, censored=len(values) - len(observed))

    @property
    def n(self) -> int:
        """Total sample count, censored included."""
        return len(self._sorted) + self.censored

    @property
    def observed(self) -> int:
        return len(self._sorted)

    def at(self, x: float) -> float:
        """P(sample <= x). Censored samples never count as <= x."""
        if self.n == 0:
            return 0.0
        return float(np.searchsorted(self._sorted, x, side="right")) / self.n

    def quantile(self, q: float) -> float:
        """The smallest x with CDF(x) >= q; inf inside the censored tail."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.n == 0:
            raise ValueError("empty CDF has no quantiles")
        if q == 0.0:
            return float(self._sorted[0]) if self.observed else math.inf
        # The smallest rank whose CDF step, rank / n as `at` computes it,
        # reaches q. ceil(q * n) is one too high whenever q * n rounds to
        # an ulp above an integer (q = 7 / 25: 7 / 25 * 25 = 7.000000000000001).
        n = self.n
        rank = bisect.bisect_left(range(1, n + 1), q, key=lambda r: r / n) + 1
        if rank > self.observed:
            return math.inf
        return float(self._sorted[rank - 1])

    def median(self) -> float:
        return self.quantile(0.5)

    def series(self) -> tuple[list[float], list[float]]:
        """(x, y) points of the step function, for plotting/inspection."""
        xs = [float(v) for v in self._sorted]
        ys = [(i + 1) / self.n for i in range(self.observed)]
        return xs, ys

    def __repr__(self) -> str:
        if self.n == 0:
            return "Cdf(empty)"
        med = self.median()
        med_text = f"{med:.1f}" if math.isfinite(med) else "inf"
        return f"Cdf(n={self.n}, censored={self.censored}, median={med_text})"
