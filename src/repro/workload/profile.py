"""Workload profiles: named, composable request-rate shapes.

A :class:`WorkloadProfile` is pure data describing a synthetic client
request workload -- how fast requests arrive (``base_rps`` modulated by
a product of :class:`RateShape` factors), how popularity is skewed
across client prefixes (a Zipf exponent), and the accounting
parameters (``think_time_s``, ``tick_s``). It deliberately contains no
randomness and no network references: the same profile object is shared
by every ⟨technique, site⟩ cell of a sweep, pickled to worker processes
inside :class:`~repro.core.experiment.FailoverConfig`.

Profiles load from builtin names (``constant``, ``diurnal``,
``flash-crowd``) or JSON files (schema ``repro.workload-profile/1``, see
``docs/workload.md``). Parsing checks *types* only; value sanity
(negative rates, Zipf s <= 0, ...) is the pre-flight validator's job
(PRE140-PRE145), so a known-bad profile file loads fine and is then
refused with a stable finding code instead of a parse traceback.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.fields import Field, read

if TYPE_CHECKING:
    import numpy as np

#: schema tag expected in JSON profile files
PROFILE_SCHEMA = "repro.workload-profile/1"

#: rate-shape kind -> the rows of the parameters that kind reads (its
#: JSON keys, their intervals, the code pre-flight reports them under)
SHAPE_FIELDS = {
    "constant": (Field("factor", lo=0, lo_open=True, code="PRE140"),),
    "diurnal": (
        Field("amplitude", lo=0, hi=1, hi_open=True, code="PRE144",
              why="the rate would go negative at the trough"),
        # a microsecond period or a 30000-year phase is no diurnal cycle,
        # and past ~1e300 their quotient overflows into math.sin(inf)
        Field("period_s", lo=1e-6, code="PRE144"),
        Field("phase_s", lo=-1e12, hi=1e12, code="PRE144"),
    ),
    "flash-crowd": (
        Field("peak_multiplier", lo=1, code="PRE144", why="a flash crowd raises load"),
        Field("peak_at_s", lo=0, code="PRE144"),
        Field("ramp_s", lo=0, code="PRE144"),
        Field("decay_s", lo=0, code="PRE144"),
    ),
}

#: rate-shape kinds understood by :meth:`RateShape.value_at`
RATE_KINDS = tuple(SHAPE_FIELDS)

#: builtin profile names (``--workload NAME``)
BUILTIN_PROFILES = ("constant", "diurnal", "flash-crowd", "regional-surge")


@dataclass(frozen=True, slots=True)
class RateShape:
    """One multiplicative modulation of the base request rate.

    ``kind`` selects which parameters apply:

    * ``constant``: a flat ``factor``;
    * ``diurnal``: ``1 + amplitude * sin(2 pi (t + phase_s) / period_s)``
      (amplitude in ``[0, 1)`` keeps the rate positive);
    * ``flash-crowd``: 1 until ``peak_at_s - ramp_s``, linear ramp to
      ``peak_multiplier`` at ``peak_at_s``, linear decay back to 1 over
      ``decay_s``.
    """

    kind: str
    # constant
    factor: float = 1.0
    # diurnal
    amplitude: float = 0.5
    period_s: float = 86400.0
    phase_s: float = 0.0
    # flash-crowd
    peak_multiplier: float = 8.0
    peak_at_s: float = 120.0
    ramp_s: float = 30.0
    decay_s: float = 120.0

    def value_at(self, t: float) -> float:
        """The multiplicative factor at ``t`` seconds into the run."""
        if self.kind == "constant":
            return self.factor
        if self.kind == "diurnal":
            return 1.0 + self.amplitude * math.sin(
                2.0 * math.pi * (t + self.phase_s) / self.period_s
            )
        if self.kind == "flash-crowd":
            ramp_start = self.peak_at_s - self.ramp_s
            if t <= ramp_start or self.peak_multiplier <= 1.0:
                return 1.0
            if t < self.peak_at_s:
                frac = (t - ramp_start) / self.ramp_s if self.ramp_s > 0 else 1.0
                return 1.0 + (self.peak_multiplier - 1.0) * frac
            if t < self.peak_at_s + self.decay_s:
                frac = (t - self.peak_at_s) / self.decay_s
                return self.peak_multiplier - (self.peak_multiplier - 1.0) * frac
            return 1.0
        raise ValueError(f"unknown rate shape kind {self.kind!r}; have {RATE_KINDS}")

    def values_at(self, t: np.ndarray) -> np.ndarray | float:
        """:meth:`value_at` over an array of times, bit for bit.

        Same operations in the same order per element, and a branch is
        only evaluated for the elements :meth:`value_at` would take it
        for (a zero-length ramp or decay divides nothing). ``math.sin``
        rather than ``np.sin``: the two differ in the last bit.
        """
        import numpy as np

        if self.kind == "constant":
            return self.factor
        if self.kind == "diurnal":
            angle = 2.0 * math.pi * (t + self.phase_s) / self.period_s
            return 1.0 + self.amplitude * np.array(list(map(math.sin, angle.tolist())))
        if self.kind == "flash-crowd":
            out = np.ones(len(t))
            if self.peak_multiplier <= 1.0:
                return out
            ramp_start = self.peak_at_s - self.ramp_s
            rising = np.flatnonzero((t > ramp_start) & (t < self.peak_at_s))
            if rising.size:
                frac = (t[rising] - ramp_start) / self.ramp_s if self.ramp_s > 0 else 1.0
                out[rising] = 1.0 + (self.peak_multiplier - 1.0) * frac
            # t > ramp_start: with a zero-length ramp value_at(peak_at_s)
            # is still 1.0 (its first test wins), not the peak.
            falling = np.flatnonzero(
                (t > ramp_start) & (t >= self.peak_at_s)
                & (t < self.peak_at_s + self.decay_s)
            )
            if falling.size:
                frac = (t[falling] - self.peak_at_s) / self.decay_s
                out[falling] = self.peak_multiplier - (self.peak_multiplier - 1.0) * frac
            return out
        raise ValueError(f"unknown rate shape kind {self.kind!r}; have {RATE_KINDS}")

    def peak(self) -> float:
        """An upper bound on :meth:`value_at` over all t (for thinning)."""
        if self.kind == "constant":
            return self.factor
        if self.kind == "diurnal":
            return 1.0 + abs(self.amplitude)
        if self.kind == "flash-crowd":
            return max(1.0, self.peak_multiplier)
        raise ValueError(f"unknown rate shape kind {self.kind!r}; have {RATE_KINDS}")

    def to_dict(self) -> dict:
        rows = SHAPE_FIELDS.get(self.kind, ())
        return {"kind": self.kind, **{row.name: getattr(self, row.name) for row in rows}}


@dataclass(frozen=True, slots=True)
class WorkloadProfile:
    """A complete workload description (see module docstring)."""

    name: str
    #: aggregate request rate before shaping, requests/second
    base_rps: float = 200.0
    #: multiplicative modulations, applied as a product
    shapes: tuple[RateShape, ...] = ()
    #: Zipf exponent over client prefixes (popularity rank = list order)
    zipf_s: float = 0.9
    #: how long a failed request strands its user (the user-minutes-lost
    #: unit: each failed request costs ``think_time_s / 60`` user-minutes)
    think_time_s: float = 60.0
    #: workload engine drain cadence on the simulation clock
    tick_s: float = 0.5
    #: mixed into the stream seed, so two otherwise-identical profiles
    #: can draw decorrelated streams
    seed_salt: int = 0
    #: region whose clients get ``surge_weight`` times their Zipf weight
    #: ("" = no regional bias); biases *which* clients issue requests,
    #: never the arrival process, so the draw order stays seed-pure
    surge_region: str = ""
    #: popularity multiplier for clients in ``surge_region``
    surge_weight: float = 1.0

    # ------------------------------------------------------------------

    def rate(self, t: float) -> float:
        """Offered request rate (requests/second) at ``t``."""
        rate = self.base_rps
        for shape in self.shapes:
            rate *= shape.value_at(t)
        return rate

    def rates(self, t: np.ndarray) -> np.ndarray | float:
        """:meth:`rate` over an array of times, bit for bit (a bare
        float when no shape depends on ``t``)."""
        rate = self.base_rps
        for shape in self.shapes:
            rate = rate * shape.values_at(t)
        return rate

    def max_rate(self) -> float:
        """Upper bound on :meth:`rate` over all t (the thinning envelope)."""
        rate = self.base_rps
        for shape in self.shapes:
            rate *= shape.peak()
        return rate

    def expected_requests(self, duration_s: float, dt: float = 1.0) -> float:
        """Trapezoidal estimate of the offered volume over a run of
        ``duration_s`` > 0 (both callers pass a window the PRE135 check
        admitted)."""
        steps = max(1, int(duration_s / dt))
        dt = duration_s / steps
        total = 0.0
        previous = self.rate(0.0)
        for i in range(1, steps + 1):
            current = self.rate(i * dt)
            total += 0.5 * (previous + current) * dt
            previous = current
        return total

    def to_dict(self) -> dict:
        data = {row.name: getattr(self, row.name) for row in PROFILE_FIELDS}
        data["shapes"] = [shape.to_dict() for shape in self.shapes]
        return {"schema": PROFILE_SCHEMA, **data}


#: the rows of :class:`WorkloadProfile` (one per JSON key of a profile)
PROFILE_FIELDS = (
    Field("name", str),
    Field("base_rps", lo=0, lo_open=True, code="PRE140",
          why="the stream would never produce a request"),
    Field("shapes", [SHAPE_FIELDS]),
    Field("zipf_s", lo=0, lo_open=True, code="PRE141",
          why="Zipf popularity needs a decaying rank weight"),
    Field("think_time_s", lo=0, lo_open=True, code="PRE142",
          why="user-minutes-lost would be zero or negative by construction"),
    Field("tick_s", lo=0, lo_open=True, code="PRE142"),
    Field("seed_salt", int),
    Field("surge_region", str),
    Field("surge_weight", lo=0, code="PRE141",
          why="client popularity would not be a distribution"),
)


# ----------------------------------------------------------------------
# Builtins


def builtin_profile(name: str) -> WorkloadProfile:
    """A fresh builtin profile (``constant``, ``diurnal``, ``flash-crowd``)."""
    if name == "constant":
        return WorkloadProfile(name="constant")
    if name == "diurnal":
        # One full cycle compressed to 10 simulated minutes so short
        # failover windows actually see the swing.
        return WorkloadProfile(
            name="diurnal",
            shapes=(RateShape(kind="diurnal", amplitude=0.5, period_s=600.0),),
        )
    if name == "flash-crowd":
        return WorkloadProfile(
            name="flash-crowd",
            shapes=(
                RateShape(
                    kind="flash-crowd", peak_multiplier=6.0,
                    peak_at_s=120.0, ramp_s=30.0, decay_s=120.0,
                ),
            ),
        )
    if name == "regional-surge":
        # A flash crowd concentrated in one region: us-east clients
        # dominate the popularity table while the aggregate rate ramps,
        # overloading whichever site their anycast catchment lands on.
        return WorkloadProfile(
            name="regional-surge",
            base_rps=150.0,
            shapes=(
                RateShape(
                    kind="flash-crowd", peak_multiplier=4.0,
                    peak_at_s=90.0, ramp_s=30.0, decay_s=180.0,
                ),
            ),
            surge_region="us-east",
            surge_weight=6.0,
        )
    raise ValueError(
        f"unknown builtin workload profile {name!r}; have {', '.join(BUILTIN_PROFILES)}"
    )


# ----------------------------------------------------------------------
# JSON loading


def profile_from_dict(data: dict, source: str = "<dict>") -> WorkloadProfile:
    """Build a profile from parsed JSON, checking structure only.

    Out-of-range *values* (negative rates, bad Zipf exponents) are left
    for :func:`repro.analysis.preflight.check_workload`, so bad-profile
    fixtures load and produce PRE findings rather than parse errors.
    """
    parsed = read((Field("schema", str), *PROFILE_FIELDS), data, source)
    schema = parsed.pop("schema", PROFILE_SCHEMA)
    if schema != PROFILE_SCHEMA:
        raise ValueError(
            f"{source}: profile schema {schema!r} != {PROFILE_SCHEMA!r}"
        )
    shapes = tuple(RateShape(**shape) for shape in parsed.pop("shapes", ()))
    return WorkloadProfile(**{"name": source, **parsed, "shapes": shapes})


def load_profile(spec: str) -> WorkloadProfile:
    """Resolve ``--workload SPEC``: a builtin name or a JSON file path."""
    if spec in BUILTIN_PROFILES:
        return builtin_profile(spec)
    path = Path(spec)
    if not path.exists():
        raise ValueError(
            f"{spec!r} is neither a builtin profile "
            f"({', '.join(BUILTIN_PROFILES)}) nor a profile file"
        )
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{spec}: invalid JSON: {error}") from error
    return profile_from_dict(data, source=str(path))
