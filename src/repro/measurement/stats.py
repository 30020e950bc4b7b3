"""CDF and summary statistics with censoring support.

Figure 2 (and 3/4/5) are CDFs across ⟨failed site, target⟩ or
⟨collector peer, event⟩ samples. Some samples are *censored*: a target
that never stabilized within the probing window has no failover time but
still belongs in the denominator. :class:`Cdf` keeps censored mass
explicit so medians and tail quantiles are honest.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-ish summary used in EXPERIMENTS.md tables."""

    n: int
    censored: int
    p10: float
    median: float
    p90: float
    mean_observed: float

    def row(self) -> str:
        def fmt(v: float) -> str:
            return f"{v:.1f}" if math.isfinite(v) else "inf"

        return (
            f"n={self.n} censored={self.censored} "
            f"p10={fmt(self.p10)} p50={fmt(self.median)} p90={fmt(self.p90)}"
        )


def summarize(values: list[float | None]) -> Summary:
    """Summary of possibly-censored samples."""
    cdf = Cdf.from_optional(values)
    observed = [v for v in values if v is not None]
    mean = float(np.mean(observed)) if observed else math.nan
    return Summary(
        n=cdf.n,
        censored=cdf.censored,
        p10=cdf.quantile(0.10) if cdf.n else math.nan,
        median=cdf.median() if cdf.n else math.nan,
        p90=cdf.quantile(0.90) if cdf.n else math.nan,
        mean_observed=mean,
    )
