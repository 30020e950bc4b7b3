"""Counters, gauges, and streaming histograms.

Every instrument is a plain Python object with no locks and no external
dependencies: the simulator is single-threaded, so increments are just
attribute bumps. :class:`Histogram` keeps geometric buckets instead of
raw samples, giving p50/p95/p99 with a bounded relative error (~5% per
bucket step) and O(1) memory per distinct magnitude -- a Fig. 2 run
observes hundreds of thousands of callback timings, which must not pile
up in a list.
"""

from __future__ import annotations

import math


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value, with a high-water mark."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value}, max={self.max_value})"


class Histogram:
    """A streaming histogram over non-negative samples.

    Samples land in geometric buckets ``[base * growth**i, base *
    growth**(i+1))``; quantiles are answered from the bucket counts with
    the geometric midpoint as the representative, clamped to the exact
    observed ``[min, max]`` so single-sample and extreme quantiles are
    exact. Values below ``base`` (including zero) share one underflow
    bucket whose representative is the running minimum.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets", "_zero")

    #: smallest resolvable magnitude; anything below lands in the
    #: underflow bucket (timings are in seconds or microseconds, so 1e-9
    #: is far below anything we measure)
    BASE = 1e-9
    #: per-bucket growth factor; bounds quantile relative error
    GROWTH = 1.05
    _LOG_GROWTH = math.log(GROWTH)

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: dict[int, int] = {}
        self._zero = 0  # underflow bucket (values < BASE)

    # ------------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one sample (negative values clamp to the underflow)."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < self.BASE:
            self._zero += 1
            return
        index = int(math.log(value / self.BASE) / self._LOG_GROWTH)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    # ------------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1); NaN when no samples exist."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        # Rank of the sample we want (1-based, nearest-rank method).
        rank = max(1, math.ceil(q * self.count))
        seen = self._zero
        if rank <= seen:
            return self.min
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank <= seen:
                lower = self.BASE * (self.GROWTH ** index)
                representative = lower * math.sqrt(self.GROWTH)
                return min(max(representative, self.min), self.max)
        return self.max

    def state(self) -> dict:
        """Full mergeable state: unlike :meth:`summary`, this keeps the
        raw bucket counts, so two histograms recorded in different
        processes can be combined without losing quantile fidelity."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zero": self._zero,
            "buckets": dict(self._buckets),
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Bucket counts add exactly, so the merged quantiles are identical
        to what one histogram observing both sample streams would
        report. Bucket keys may arrive as strings (JSON round-trip).
        """
        if not state["count"]:
            return
        self.count += state["count"]
        self.total += state["total"]
        if state["min"] is not None and state["min"] < self.min:
            self.min = state["min"]
        if state["max"] is not None and state["max"] > self.max:
            self.max = state["max"]
        self._zero += state["zero"]
        for index, bucket_count in state["buckets"].items():
            index = int(index)
            self._buckets[index] = self._buckets.get(index, 0) + bucket_count

    def summary(self) -> dict[str, float]:
        """The standard reporting tuple for snapshots and rendering."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"
