"""The request stream: seed stability, laziness, popularity skew, the
pinned digests, and the drawn arrivals against the Poisson process the
per-candidate loop defines."""

import itertools
import math
import os
import random
import resource
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.preflight import check_workload
from repro.workload import (
    RateShape,
    RequestStream,
    WorkloadProfile,
    builtin_profile,
    stream_digest,
)
from repro.workload import stream as stream_module
from repro.workload.profile import BUILTIN_PROFILES, PROFILE_FIELDS
from repro.workload.stream import client_weight_table

from tests.row_documents import _bad_numbers
from tests.stream_oracle import _marks, bigint_batches, scalar_requests

ROOT = Path(__file__).resolve().parent.parent
CLIENTS = [f"client-{i}" for i in range(40)]


def make_stream(seed=7, duration=60.0, profile=None):
    profile = profile or WorkloadProfile(name="t", base_rps=50.0)
    return RequestStream(profile, CLIENTS, duration, seed)


def drawn(stream):
    """⟨t, client⟩ per arrival, read from ``batches()``."""
    return [
        (t, stream.clients[index])
        for times, indices in stream.batches()
        for t, index in zip(times.tolist(), indices.tolist())
    ]


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        assert stream_digest(make_stream()) == stream_digest(make_stream())

    def test_reiterating_one_stream_is_stable(self):
        stream = make_stream()
        assert list(stream) == list(stream)

    def test_different_seed_differs(self):
        assert stream_digest(make_stream(seed=1)) != stream_digest(make_stream(seed=2))

    def test_seed_salt_decorrelates(self):
        base = WorkloadProfile(name="t", base_rps=50.0)
        salted = WorkloadProfile(name="t", base_rps=50.0, seed_salt=99)
        a = stream_digest(make_stream(profile=base))
        b = stream_digest(make_stream(profile=salted))
        assert a != b

    def test_arrivals_sorted_and_bounded(self):
        times = [r.t for r in make_stream(duration=30.0)]
        assert times == sorted(times)
        assert all(0 <= t < 30.0 for t in times)

    @pytest.mark.parametrize("candidates", [1, 2, 7])
    def test_sorted_and_bounded_across_chunk_seams(self, candidates, monkeypatch):
        monkeypatch.setattr(stream_module, "CHUNK_CANDIDATES", candidates)
        times = [t for t, _ in drawn(make_stream(duration=5.0))]
        assert times and times == sorted(times)
        assert all(0 <= t < 5.0 for t in times)

    def test_a_longer_window_only_extends_the_stream(self):
        short = drawn(make_stream(duration=20.0))
        assert drawn(make_stream(duration=40.0))[: len(short)] == short


class TestLaziness:
    def test_iterator_not_materialized(self):
        # A 10M-request window must cost nothing until consumed.
        profile = WorkloadProfile(name="big", base_rps=10_000.0)
        stream = RequestStream(profile, CLIENTS, 1_000.0, 3)
        first_three = list(itertools.islice(iter(stream), 3))
        assert len(first_three) == 3

    def test_million_requests_bounded_memory(self):
        """The ISSUE acceptance bound: ~1M requests, RSS growth < 50 MB."""
        profile = builtin_profile("flash-crowd")
        # ~200 rps base plus the crowd bump: >1M requests over 5000s.
        stream = RequestStream(profile, CLIENTS, 5000.0, 11)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        count = 0
        for _ in stream:
            count += 1
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert count > 1_000_000
        # ru_maxrss is KiB on Linux.
        assert (after - before) < 50 * 1024

    def test_zero_rate_yields_nothing(self):
        profile = WorkloadProfile(name="t", base_rps=0.0)
        assert list(RequestStream(profile, CLIENTS, 60.0, 1)) == []


class TestPopularity:
    def test_zipf_head_heavier_than_tail(self):
        counts = {}
        for request in make_stream(duration=200.0):
            counts[request.client] = counts.get(request.client, 0) + 1
        assert counts[CLIENTS[0]] > counts.get(CLIENTS[-1], 0) * 2

    def test_empty_clients_rejected(self):
        with pytest.raises(ValueError):
            RequestStream(WorkloadProfile(name="t"), [], 60.0, 1)

    def test_iterated_requests_are_the_drawn_batches(self):
        """Iterating requests reads ``batches()`` and draws nothing more:
        the engine's view and a caller's are the same arrivals."""
        stream = make_stream(duration=30.0)
        assert [(r.t, r.client) for r in stream] == drawn(stream)


class TestDigest:
    def test_digest_format(self):
        digest = stream_digest(make_stream(duration=10.0))
        count, _, crc = digest.partition(":")
        assert count.isdigit() and len(crc) == 8


# ----------------------------------------------------------------------
# surge_weight: the shrunk examples that used to pass the gate


SURGE_CLIENTS = [f"c{i}" for i in range(10)]


def surge_profile(weight):
    return WorkloadProfile(
        name="surge", base_rps=200, surge_region="us-east", surge_weight=weight
    )


class TestSurgeWeight:
    def test_negative_weight_is_refused_at_the_gate(self):
        """Used to pass the gate and then raise IndexError mid-stream: the
        cumulative table stopped being monotone."""
        profile = surge_profile(-3.0)
        assert [(f.code, f.message) for f in check_workload(profile)] == [(
            "PRE141",
            "surge_weight -3 is negative; client popularity would not be a distribution",
        )]
        with pytest.raises(ValueError, match="client weights"):
            RequestStream(profile, SURGE_CLIENTS, 60.0, 1, {"c3": "us-east", "c7": "us-east"})

    def test_a_silenced_region_holding_every_client_is_refused(self):
        """Used to send every request silently to client 0."""
        profile = surge_profile(0.0)
        assert check_workload(profile) == []
        with pytest.raises(ValueError, match="not all zero"):
            RequestStream(profile, SURGE_CLIENTS, 60.0, 1, dict.fromkeys(SURGE_CLIENTS, "us-east"))

    def test_a_silenced_region_never_requests(self):
        regions = dict.fromkeys(SURGE_CLIENTS[::2], "us-east")
        stream = RequestStream(surge_profile(0.0), SURGE_CLIENTS, 60.0, 1, regions)
        assert {client for _, client in drawn(stream)} == set(SURGE_CLIENTS[1::2])

    def test_generated_documents_probe_the_bound(self):
        (row,) = [row for row in PROFILE_FIELDS if row.name == "surge_weight"]
        assert row.lo == 0 and not row.lo_open
        assert -1 in _bad_numbers(row)


# ----------------------------------------------------------------------
# The stream is a contract: a changed digest is a changed stream -- every
# workload number in benchmarks/results.md and every bench result_digest
# moves with it.

PIN_CLIENTS = [f"c{i}" for i in range(150)]
PIN_REGIONS = {c: "us-east" if i % 5 == 0 else "eu" for i, c in enumerate(PIN_CLIENTS)}
MIXED = WorkloadProfile(
    name="mixed", base_rps=300,
    shapes=(
        RateShape(kind="diurnal", amplitude=0.9, period_s=50.0),
        RateShape(kind="flash-crowd", peak_multiplier=3, peak_at_s=20, ramp_s=0, decay_s=10),
        RateShape(kind="constant", factor=0.7),
    ),
)


class TestPinnedDigests:
    @pytest.mark.parametrize("profile, duration, seed, regions, digest", [
        (builtin_profile("flash-crowd"), 300.0, 42, None, "135296:ff78758e"),
        (builtin_profile("regional-surge"), 240.0, 42, PIN_REGIONS, "81826:5bd4ad97"),
        (builtin_profile("diurnal"), 300.0, 9, None, "78770:220d8374"),
        (builtin_profile("constant"), 100.0, 7, None, "19872:04aa81dc"),
        (MIXED, 90.0, 3, None, "22504:d04fbd52"),
    ], ids=["flash-crowd", "regional-surge", "diurnal", "constant", "mixed"])
    def test_stream_digest(self, profile, duration, seed, regions, digest):
        stream = RequestStream(profile, PIN_CLIENTS, duration, seed, regions)
        assert stream_digest(stream) == digest


class TestExactBits:
    """The stream's numpy ``MT19937`` draws the very bits a
    ``random.Random`` of the same seed would: every chunk equals the
    ``getrandbits`` draw kept in ``tests/stream_oracle.py``, byte for
    byte."""

    PROFILES = {name: builtin_profile(name) for name in BUILTIN_PROFILES} | {"mixed": MIXED}

    @pytest.mark.parametrize("salt", [None, 0x5EED], ids=["unsalted", "salted"])
    @pytest.mark.parametrize("seed", [0, 1, 42, -7, 2**40])
    @pytest.mark.parametrize("name", list(PROFILES))
    def test_batches_equal_the_bigint_draw(self, name, seed, salt):
        profile = self.PROFILES[name]
        if salt is not None:
            profile = replace(profile, seed_salt=salt)
        stream = RequestStream(profile, PIN_CLIENTS, 90.0, seed, PIN_REGIONS)
        chunks = list(stream.batches())
        expected = list(bigint_batches(stream))
        assert len(chunks) == len(expected) > 1
        for (times, indices), (want_times, want_indices) in zip(chunks, expected):
            assert times.tobytes() == want_times.tobytes()
            assert indices.tobytes() == want_indices.tobytes()

    @pytest.mark.parametrize("seed", [0, 42, -7, 2**40, "contents/42"])
    def test_random_and_gammavariate_equal_cpython(self, seed):
        bits, rng = stream_module._Bits(seed), random.Random(seed)
        assert [bits.random() for _ in range(10_000)] == [rng.random() for _ in range(10_000)]
        assert [bits.gammavariate(8192, 0.01) for _ in range(10_000)] == [
            rng.gammavariate(8192, 0.01) for _ in range(10_000)
        ]
        assert bits.words(7).tobytes() == rng.getrandbits(32 * 7).to_bytes(28, "little")

    def test_a_run_without_a_workload_never_loads_numpy_random(self):
        """``numpy.random`` (about 6 MB) loads with the first stream."""
        probe = (
            "import sys\n"
            "from repro.cli import main\n"
            "argv = ['failover', '-t', 'anycast', '-s', 'msn', '--targets', '4', "
            "'--duration', '30'] + sys.argv[1:]\n"
            "assert main(argv) == 0\n"
            "print('numpy.random' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

        def loaded(*argv):
            run = subprocess.run(
                [sys.executable, "-c", probe, *argv],
                env=env, capture_output=True, text=True, check=True,
            )
            return run.stdout.splitlines()[-1]

        assert loaded() == "False"
        assert loaded("--workload", "constant") == "True"


def boundary_words(cumulative):
    """Per entry, the first word whose plain mark passes it (2**32 if
    none does): a vectorised binary search of the monotone mark."""
    lo = np.zeros(len(cumulative), dtype=np.uint64)
    hi = np.full(len(cumulative), 2**32, dtype=np.uint64)
    while (active := lo < hi).any():
        mid = (lo + hi) // 2
        past = mid * 2.0**-32 * cumulative[-1] >= cumulative
        hi = np.where(active & past, mid, hi)
        lo = np.where(active & ~past, mid + 1, lo)
    return lo


class TestBucketedMarks:
    """The bucket table answers every word exactly as the oracle's plain
    ``searchsorted`` does, for the client tables streams build, and
    searches at most one bucket in 32."""

    @staticmethod
    def tables(deployment):
        clients = [info.node_id for info in deployment.topology.web_client_ases()]
        regions = {
            info.node_id: info.location.region for info in deployment.topology.web_client_ases()
        }
        surge = builtin_profile("regional-surge")
        tables = {
            f"clients/{name}": client_weight_table(builtin_profile(name), clients, regions)
            for name in BUILTIN_PROFILES
        }
        tables["zero-weights"] = client_weight_table(
            replace(surge, surge_weight=0.0), clients, regions
        )
        tables["one-client"] = client_weight_table(surge, clients[:1])
        tables["3000-clients"] = client_weight_table(surge, [f"c{i}" for i in range(3000)])
        return {name: np.array(table) for name, table in tables.items()}

    def test_every_word_class_equals_the_search(self, deployment):
        tables = self.tables(deployment)
        assert 0.0 in np.diff(tables["zero-weights"])
        words = np.random.default_rng(7).integers(0, 2**32, 10**5, dtype=np.uint64)
        for name, cumulative in tables.items():
            marks = stream_module._Marks(cumulative)
            buckets = len(marks._table)
            assert buckets >= 32 * len(cumulative) > buckets // 2, name
            assert (marks._table < 0).sum() * 32 <= buckets, name
            step = 2**32 // buckets
            starts = np.arange(buckets, dtype=np.uint64) * step
            edges = boundary_words(cumulative)
            checked = np.concatenate([starts, starts + (step - 1), edges - 1, edges, words])
            checked = checked[checked < 2**32].astype(np.uint32)
            want = _marks(cumulative, checked * 2.0**-32)
            assert marks(checked).tobytes() == want.tobytes(), name


# ----------------------------------------------------------------------
# The drawn arrivals are the process the per-candidate loop defines
#
# Each check refuses a true Poisson stream with probability at most
# ALPHA, so a seed that passes is no flake. The count and KS bounds hold
# for every volume; the chi-square bounds are Wilson-Hilferty quantiles
# taken at z = 5.3 (a normal tail of 6e-8), the margin over ALPHA
# covering the approximation at the >= 20 expected per cell used here.
# Every check also runs on the loop itself, which shows the bounds
# accept the reference distribution.

ALPHA = 1e-6
LOG_TERM = math.log(2 / ALPHA)
Z = 5.3


def chi2_bounds(dof: int) -> tuple[float, float]:
    spread = math.sqrt(2 / (9 * dof))
    return tuple(dof * (1 - 2 / (9 * dof) + z * spread) ** 3 for z in (-Z, Z))


def compensator(profile, duration):
    """``t -> ∫₀ᵗ rate``, by the midpoint rule on a fine grid that has
    every flash-crowd kink on it (exact between them, to O(dt³) on a
    sine), and its value at ``duration``."""
    kinks = [
        kink for shape in profile.shapes if shape.kind == "flash-crowd"
        for kink in (shape.peak_at_s - shape.ramp_s, shape.peak_at_s,
                     shape.peak_at_s + shape.decay_s)
        if 0 < kink < duration
    ]
    grid = np.union1d(np.linspace(0.0, duration, 200_001), kinks)
    mids = (grid[1:] + grid[:-1]) / 2
    cumulative = np.concatenate(([0.0], np.cumsum(profile.rates(mids) * np.diff(grid))))
    return (lambda t: np.interp(t, grid, cumulative)), float(cumulative[-1])


def assert_poisson(times, profile, duration):
    """``times`` are a Poisson process of intensity ``profile.rate``."""
    big_lambda, total = compensator(profile, duration)
    n = len(times)
    # The count: Bernstein's bound on a Poisson(total) deviation.
    assert abs(n - total) <= LOG_TERM / 3 + math.sqrt(LOG_TERM**2 / 9 + 2 * LOG_TERM * total)
    # Time-rescaled, the arrivals are a unit-rate process: gaps are
    # Exp(1) (KS, DKW-Massart bound) ...
    rescaled = big_lambda(np.asarray(times))
    gaps = np.sort(np.diff(rescaled, prepend=0.0))
    cdf = -np.expm1(-gaps)
    ranks = np.arange(1, n + 1)
    ks = max((ranks / n - cdf).max(), (cdf - (ranks - 1) / n).max())
    assert ks <= math.sqrt(LOG_TERM / (2 * n))
    # ... and counts in equal-mass windows are iid Poisson: neither over-
    # nor under-dispersed.
    windows = int(total // 50)
    mean = total / windows
    counts = np.bincount(
        np.minimum((rescaled / mean).astype(int), windows - 1), minlength=windows
    )
    low, high = chi2_bounds(windows)
    assert low <= (((counts - mean) ** 2) / mean).sum() <= high


def assert_marks(indices, cumulative):
    """``indices`` are draws from the weights ``cumulative`` accumulates:
    Pearson's chi-square, with cells under 20 expected pooled, and
    never a zero-weight index."""
    weights = np.diff(np.asarray(cumulative), prepend=0.0)
    weights /= weights.sum()
    counts = np.bincount(indices, minlength=len(weights))
    assert not counts[weights == 0].any()
    expected = weights[weights > 0] * len(indices)
    observed = counts[weights > 0]
    small = expected < 20
    expected = np.append(expected[~small], expected[small].sum())
    observed = np.append(observed[~small], observed[small].sum())
    if expected[-1] < 20:
        expected, observed = expected[:-1], observed[:-1]
    _, high = chi2_bounds(len(expected) - 1)
    assert (((observed - expected) ** 2) / expected).sum() <= high


def constant(factor):
    return RateShape(kind="constant", factor=factor)


def diurnal(amplitude, period_s, phase_s=0.0):
    return RateShape(kind="diurnal", amplitude=amplitude, period_s=period_s, phase_s=phase_s)


def flash(peak_multiplier, peak_at_s, ramp_s, decay_s):
    return RateShape(kind="flash-crowd", peak_multiplier=peak_multiplier,
                     peak_at_s=peak_at_s, ramp_s=ramp_s, decay_s=decay_s)


def clients_for(n):
    return PIN_CLIENTS[:n] + [f"x{i}" for i in range(n - 150)]


#: ⟨shape product, base_rps, duration, client count⟩, each some 10-60 k
#: arrivals: one and two shapes, zero-length ramps and decays, peaks far
#: above the base, periods shorter than a second
CASES = {
    "constant": ((constant(2.5),), 400.0, 30.0, 37),
    "diurnal": ((diurnal(0.99, 13.0),), 400.0, 60.0, 150),
    "short-period-x-sharp-crowd": (
        (diurnal(0.5, 0.7, 3.3), flash(40.0, 2.0, 0.0, 8.0)), 300.0, 20.0, 300),
    "crowd-no-decay-x-constant": (
        (flash(3.0, 0.4, 0.3, 0.0), constant(0.3)), 4000.0, 12.0, 1),
    "mixed": (MIXED.shapes, 300.0, 90.0, 150),
    "flash-crowd": (builtin_profile("flash-crowd").shapes, 200.0, 200.0, 150),
}


class TestDrawnProcess:
    @pytest.mark.parametrize("source", ["stream", "loop"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_arrivals_are_poisson_at_the_profile_rate(self, case, source):
        shapes, base_rps, duration, n_clients = CASES[case]
        profile = WorkloadProfile(name=case, base_rps=base_rps, shapes=shapes)
        clients = clients_for(n_clients)
        if source == "loop":
            times = [r.t for r in scalar_requests(profile, clients, duration, 17)]
        else:
            # The array rate may only evaluate a branch the scalar rate
            # would: a zero-length ramp or decay must divide nothing.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                times = [t for t, _ in drawn(RequestStream(profile, clients, duration, 17))]
        assert_poisson(times, profile, duration)

    @pytest.mark.parametrize("candidates", [1, 2, 7])
    def test_any_chunk_length_draws_the_same_process(self, candidates, monkeypatch):
        monkeypatch.setattr(stream_module, "CHUNK_CANDIDATES", candidates)
        profile = replace(MIXED, base_rps=150.0)
        times = [t for t, _ in drawn(RequestStream(profile, PIN_CLIENTS, 60.0, 5))]
        assert_poisson(times, profile, 60.0)

    @pytest.mark.parametrize("surge_weight", [1.0, 6.0, 0.0])
    @pytest.mark.parametrize("source", ["stream", "loop"])
    def test_clients_follow_the_weight_table(self, source, surge_weight):
        profile = WorkloadProfile(
            name="surge", base_rps=2000.0, surge_region="us-east", surge_weight=surge_weight,
        )
        if source == "loop":
            requests = scalar_requests(profile, PIN_CLIENTS, 20.0, 23, PIN_REGIONS)
            indices = [int(r.client[1:]) for r in requests]
        else:
            stream = RequestStream(profile, PIN_CLIENTS, 20.0, 23, PIN_REGIONS)
            indices = np.concatenate([clients for _, clients in stream.batches()])
        assert_marks(indices, client_weight_table(profile, PIN_CLIENTS, PIN_REGIONS))

    def test_array_rate_equals_scalar_rate(self):
        profile = replace(MIXED, shapes=MIXED.shapes + (
            RateShape(kind="flash-crowd", peak_multiplier=5.0, peak_at_s=40.0,
                      ramp_s=12.0, decay_s=0.0),
        ))
        times = [i * 0.137 for i in range(700)] + [20.0, 28.0, 40.0, 30.0]
        assert profile.rates(np.array(times)).tolist() == [profile.rate(t) for t in times]
