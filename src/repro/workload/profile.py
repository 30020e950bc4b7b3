"""Workload profiles: named, composable request-rate shapes.

A :class:`WorkloadProfile` is pure data describing a synthetic client
request workload -- how fast requests arrive (``base_rps`` modulated by
a product of :class:`RateShape` factors), how popularity is skewed
across client prefixes and content (Zipf exponents), and the accounting
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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

#: schema tag expected in JSON profile files
PROFILE_SCHEMA = "repro.workload-profile/1"

#: rate-shape kinds understood by :meth:`RateShape.value_at`
RATE_KINDS = ("constant", "diurnal", "flash-crowd")

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
        if self.kind == "constant":
            return {"kind": self.kind, "factor": self.factor}
        if self.kind == "diurnal":
            return {
                "kind": self.kind, "amplitude": self.amplitude,
                "period_s": self.period_s, "phase_s": self.phase_s,
            }
        return {
            "kind": self.kind, "peak_multiplier": self.peak_multiplier,
            "peak_at_s": self.peak_at_s, "ramp_s": self.ramp_s,
            "decay_s": self.decay_s,
        }


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
    #: Zipf exponent over the content catalogue
    content_zipf_s: float = 0.8
    #: size of the content catalogue (ids ``0 .. n_contents - 1``)
    n_contents: int = 1000
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
        """Trapezoidal estimate of the offered volume over a run."""
        if duration_s <= 0:
            return 0.0
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
        return {
            "schema": PROFILE_SCHEMA,
            "name": self.name,
            "base_rps": self.base_rps,
            "shapes": [shape.to_dict() for shape in self.shapes],
            "zipf_s": self.zipf_s,
            "content_zipf_s": self.content_zipf_s,
            "n_contents": self.n_contents,
            "think_time_s": self.think_time_s,
            "tick_s": self.tick_s,
            "seed_salt": self.seed_salt,
            "surge_region": self.surge_region,
            "surge_weight": self.surge_weight,
        }


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


_SHAPE_FIELDS = {f.name: f.type for f in fields(RateShape)}
_PROFILE_FIELDS = {f.name: f.type for f in fields(WorkloadProfile)}


def _numeric(value, what: str, source: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{source}: {what} must be a number, got {value!r}")
    return float(value)


def _shape_from_dict(data: dict, source: str) -> RateShape:
    if not isinstance(data, dict):
        raise ValueError(f"{source}: each shape must be an object, got {data!r}")
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise ValueError(f"{source}: shape is missing a string 'kind'")
    kwargs: dict = {"kind": kind}
    for key, value in data.items():
        if key == "kind":
            continue
        if key not in _SHAPE_FIELDS:
            raise ValueError(f"{source}: unknown shape key {key!r}")
        kwargs[key] = _numeric(value, f"shape {key}", source)
    return RateShape(**kwargs)


def profile_from_dict(data: dict, source: str = "<dict>") -> WorkloadProfile:
    """Build a profile from parsed JSON, checking structure only.

    Out-of-range *values* (negative rates, bad Zipf exponents) are left
    for :func:`repro.analysis.preflight.check_workload`, so bad-profile
    fixtures load and produce PRE findings rather than parse errors.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{source}: profile must be a JSON object")
    schema = data.get("schema")
    if schema is not None and schema != PROFILE_SCHEMA:
        raise ValueError(
            f"{source}: profile schema {schema!r} != {PROFILE_SCHEMA!r}"
        )
    kwargs: dict = {}
    for key, value in data.items():
        if key == "schema":
            continue
        if key not in _PROFILE_FIELDS:
            raise ValueError(f"{source}: unknown profile key {key!r}")
        if key in ("name", "surge_region"):
            if not isinstance(value, str):
                raise ValueError(f"{source}: {key} must be a string")
            kwargs[key] = value
        elif key == "shapes":
            if not isinstance(value, list):
                raise ValueError(f"{source}: shapes must be a list")
            kwargs[key] = tuple(_shape_from_dict(item, source) for item in value)
        elif key in ("n_contents", "seed_salt"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{source}: {key} must be an integer")
            kwargs[key] = value
        else:
            kwargs[key] = _numeric(value, key, source)
    if "name" not in kwargs:
        kwargs["name"] = source
    return WorkloadProfile(**kwargs)


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
