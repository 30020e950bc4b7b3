"""The request stream: seed stability, laziness, popularity skew, the
pinned digests, and chunked generation against the per-candidate loop."""

import itertools
import resource
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload import (
    RateShape,
    RequestStream,
    WorkloadProfile,
    builtin_profile,
    stream_digest,
)
from repro.workload import stream as stream_module

from tests.stream_oracle import scalar_requests

CLIENTS = [f"client-{i}" for i in range(40)]


def make_stream(seed=7, duration=60.0, profile=None):
    profile = profile or WorkloadProfile(name="t", base_rps=50.0)
    return RequestStream(profile, CLIENTS, duration, seed)


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

    def test_contents_within_catalogue(self):
        profile = WorkloadProfile(name="t", base_rps=50.0, n_contents=10)
        contents = {r.content for r in make_stream(profile=profile)}
        assert contents and all(0 <= c < 10 for c in contents)

    def test_empty_clients_rejected(self):
        with pytest.raises(ValueError):
            RequestStream(WorkloadProfile(name="t"), [], 60.0, 1)


class TestDigest:
    def test_digest_format(self):
        digest = stream_digest(make_stream(duration=10.0))
        count, _, crc = digest.partition(":")
        assert count.isdigit() and len(crc) == 8


# ----------------------------------------------------------------------
# The stream is a contract: these digests were taken from the
# per-candidate loop (tests/stream_oracle.py) before generation was
# chunked. A changed digest is a changed stream -- every workload number
# in benchmarks/results.md and every bench result_digest moves with it.

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
        (builtin_profile("flash-crowd"), 300.0, 42, None, "135268:fb11b7f1"),
        (builtin_profile("regional-surge"), 240.0, 42, PIN_REGIONS, "81780:b3e6281a"),
        (builtin_profile("diurnal"), 300.0, 9, None, "78867:72599f17"),
        (builtin_profile("constant"), 100.0, 7, None, "20144:9d61ed05"),
        (MIXED, 90.0, 3, None, "22189:2608b565"),
    ], ids=["flash-crowd", "regional-surge", "diurnal", "constant", "mixed"])
    def test_stream_digest(self, profile, duration, seed, regions, digest):
        stream = RequestStream(profile, PIN_CLIENTS, duration, seed, regions)
        assert stream_digest(stream) == digest


# ----------------------------------------------------------------------
# batches() == the per-candidate loop, value for value


def flatten(stream):
    return [
        (t, stream.clients[index], content)
        for times, indices, contents in stream.batches()
        for t, index, content in zip(times.tolist(), indices.tolist(), contents.tolist())
    ]


SHAPES = st.one_of(
    st.builds(RateShape, kind=st.just("constant"), factor=st.sampled_from([0.0, 0.3, 1.0, 2.5])),
    st.builds(
        RateShape, kind=st.just("diurnal"),
        amplitude=st.sampled_from([0.0, 0.5, 0.99]),
        period_s=st.sampled_from([0.7, 13.0, 600.0]),
        phase_s=st.sampled_from([0.0, 3.3]),
    ),
    st.builds(
        RateShape, kind=st.just("flash-crowd"),
        peak_multiplier=st.sampled_from([0.5, 1.0, 3.0, 40.0]),
        peak_at_s=st.sampled_from([0.0, 0.4, 2.0]),
        ramp_s=st.sampled_from([0.0, 0.3, 5.0]),
        decay_s=st.sampled_from([0.0, 0.5, 8.0]),
    ),
)

# (base_rps, duration): streams of at most a few thousand candidates,
# from one that ends inside its first chunk to one that spans many.
SIZES = st.sampled_from([(0.0, 5.0), (1e-2, 400.0), (40.0, 6.0), (1e4, 0.05)])


class TestBatchesEqualThePerCandidateLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        size=SIZES,
        shapes=st.lists(SHAPES, max_size=3),
        n_clients=st.integers(1, 300),
        surge_weight=st.sampled_from([1.0, 6.0]),
        seed=st.integers(0, 2**32),
        pairs=st.sampled_from([2, 3, 7, 8192]),
    )
    def test_value_for_value(self, size, shapes, n_clients, surge_weight, seed, pairs):
        base_rps, duration = size
        profile = WorkloadProfile(
            name="generated", base_rps=base_rps, shapes=tuple(shapes),
            n_contents=50, surge_region="us-east", surge_weight=surge_weight,
        )
        clients = PIN_CLIENTS[:n_clients] + [f"x{i}" for i in range(n_clients - 150)]
        stream = RequestStream(profile, clients, duration, seed, PIN_REGIONS)
        expected = [
            (r.t, r.client, r.content)
            for r in scalar_requests(profile, clients, duration, seed, PIN_REGIONS)
        ]
        saved = stream_module.CHUNK_PAIRS
        stream_module.CHUNK_PAIRS = pairs
        try:
            # The array rate may only evaluate a branch the scalar rate
            # would: a zero-length ramp or decay must divide nothing.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert flatten(stream) == expected
        finally:
            stream_module.CHUNK_PAIRS = saved
        assert [(r.t, r.client, r.content) for r in stream] == expected

    def test_array_rate_equals_scalar_rate(self):
        import numpy as np

        profile = replace(MIXED, shapes=MIXED.shapes + (
            RateShape(kind="flash-crowd", peak_multiplier=5.0, peak_at_s=40.0,
                      ramp_s=12.0, decay_s=0.0),
        ))
        times = [i * 0.137 for i in range(700)] + [20.0, 28.0, 40.0, 30.0]
        assert profile.rates(np.array(times)).tolist() == [profile.rate(t) for t in times]
