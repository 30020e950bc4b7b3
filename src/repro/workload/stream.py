"""Streaming request generation: Poisson arrivals, Zipf popularity.

:class:`RequestStream` never materializes the schedule: it produces one
numpy chunk of arrivals at a time (:meth:`RequestStream.batches`), so a
1M-request flash crowd costs the same memory as a 10-request one. The
per-stream state is the RNG, the two cumulative Zipf weight tables
(O(clients) and O(catalogue)) and one chunk of :data:`CHUNK_PAIRS`
candidate pairs.

Arrivals follow an inhomogeneous Poisson process via thinning: draw
candidate arrivals at the profile's constant envelope rate
``max_rate()`` (exponential inter-arrival gaps), then accept each
candidate with probability ``rate(t) / max_rate()``. Accepted arrivals
are exactly Poisson with intensity ``rate(t)``, and -- crucially for
determinism -- the RNG draw sequence is a pure function of (profile,
seed), never of network state.

The draw sequence is the one a per-candidate loop over
``random.Random(seed)`` makes -- gap and acceptance uniforms for every
candidate, client and content uniforms for every accepted one -- and the
chunks replay it bit for bit (``tests/stream_oracle.py`` keeps that loop
as the reference). See ``docs/workload.md`` for how.

Popularity: clients and contents are ranked by list position and
sampled from Zipf(``zipf_s``) / Zipf(``content_zipf_s``) by a
leftmost binary search of a precomputed cumulative-weight table.

The stream owns a dedicated ``random.Random(seed)``; it never touches
the network RNG. That isolation is what keeps the request stream
byte-identical across serial vs ``--workers N`` runs and across a
checkpoint fork (workload state is not part of the network snapshot).
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.workload.profile import WorkloadProfile

#: Pairs of uniforms drawn per chunk. Measured on flash-crowd at 1600 rps
#: (1.08 M arrivals in 1.08 s): 8192 pairs add 2.8 MB RSS; 2048 add
#: 1.1 MB and take 8 % longer; 32768 add 9 MB and take 3 % less.
CHUNK_PAIRS = 8192


@dataclass(frozen=True, slots=True)
class Request:
    """One client request: when, from which client AS, for what."""

    #: seconds since the stream's epoch (the engine instant it started)
    t: float
    #: AS node id of the aggregated client prefix issuing the request
    client: str
    #: content id (Zipf catalogue rank, 0 = most popular)
    content: int


def zipf_cumulative(n: int, s: float) -> list[float]:
    """Cumulative Zipf weights for ranks 1..n (weight ``rank ** -s``)."""
    total = 0.0
    out: list[float] = []
    for rank in range(1, n + 1):
        total += rank ** -s
        out.append(total)
    return out


def client_weight_table(
    profile: WorkloadProfile,
    clients: Sequence[str],
    regions: Mapping[str, str] | None = None,
) -> list[float]:
    """Cumulative client popularity: Zipf rank weight x surge multiplier.

    Regional surges (``profile.surge_region``) bias the table *values*
    only -- never the number or order of RNG draws -- so a surging and a
    non-surging stream with the same seed stay draw-for-draw aligned.
    Shared by :class:`RequestStream` and the capacity invariant's
    expected-load arithmetic so the two can never disagree.
    """
    surge = profile.surge_region
    weight = profile.surge_weight
    total = 0.0
    out: list[float] = []
    for rank, client in enumerate(clients, start=1):
        w = rank ** -profile.zipf_s
        if surge and regions is not None and regions.get(client) == surge:
            w *= weight
        total += w
        out.append(total)
    return out


def _uniforms(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.random()``, as one array.

    ``getrandbits`` emits the generator's 32-bit words in order, lowest
    first, and ``random()`` builds each double from two of them.
    """
    words = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4"
    )
    high = (words[0::2] >> 5).astype(np.float64)
    low = (words[1::2] >> 6).astype(np.float64)
    return (high * 67108864.0 + low) / 9007199254740992.0


def _accepted_starts(would_accept: np.ndarray, owed: bool) -> np.ndarray:
    """Which pairs open a candidate that is accepted.

    A pair opens a candidate unless the pair before it opened an
    accepted one (then it is that arrival's client/content payload). So
    inside a run of pairs that would be accepted if they opened a
    candidate, the ones that do alternate from the run's first. Element
    0 of the result stands for the pair before the chunk (``owed``: it
    was an accepted start whose payload is the chunk's first pair).
    """
    would = np.concatenate(([owed], would_accept))
    run_begins = would.copy()
    run_begins[1:] &= ~would[:-1]
    position = np.arange(len(would))
    run_first = np.maximum.accumulate(np.where(run_begins, position, 0))
    return would & ((position - run_first) & 1 == 0)


class RequestStream:
    """Iterable over one run's request arrivals (re-iterable: each
    ``iter()`` restarts an identical stream from the same seed)."""

    def __init__(
        self,
        profile: WorkloadProfile,
        clients: Sequence[str],
        duration_s: float,
        seed: int,
        regions: Mapping[str, str] | None = None,
    ) -> None:
        if not clients:
            raise ValueError("request stream needs at least one client AS")
        self.profile = profile
        self.clients = list(clients)
        self.duration_s = duration_s
        self.seed = seed ^ profile.seed_salt
        self._client_cum = np.array(client_weight_table(profile, self.clients, regions))
        self._content_cum = np.array(
            zipf_cumulative(max(1, profile.n_contents), profile.content_zipf_s)
        )

    def batches(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The arrivals in order, as chunks of parallel arrays ⟨arrival
        time, index into ``clients``, content id⟩ (never an empty chunk).

        The uniforms are read as pairs: a rejected candidate consumes one
        pair (gap, acceptance), an accepted one two (then client,
        content). Which pairs open a candidate depends on which earlier
        candidates were accepted, which depends on their times, which are
        the running sum of the gaps of the pairs that open candidates --
        so each chunk is iterated to a fixed point. Pair 0's role is
        known; if pairs ``0..k`` have their true roles then so do the
        times and acceptances up to ``k``, hence pair ``k + 1``: a fixed
        point is the per-candidate sequence.
        """
        rate_max = self.profile.max_rate()
        if rate_max <= 0:
            return
        rng = random.Random(self.seed)
        rates = self.profile.rates
        pairs = CHUNK_PAIRS
        client_total = self._client_cum[-1]
        content_total = self._content_cum[-1]
        now = 0.0  # time of the latest candidate
        owed = False  # it was accepted and its payload pair is the next drawn
        while True:
            uniforms = _uniforms(rng, 2 * pairs)
            first, second = uniforms[0::2], uniforms[1::2]
            # math.log, not np.log: numpy's differs from libm in the last
            # bit on some inputs, and every digit of t is observable.
            gaps = -np.array(list(map(math.log, (1.0 - first).tolist()))) / rate_max
            threshold = second * rate_max
            # First guess: the rate stands still over the chunk.
            accepted = _accepted_starts(~(threshold > rates(np.array([now]))), owed)
            while True:
                starts = ~accepted[:-1]
                steps = np.where(starts, gaps, 0.0)
                steps[0] += now
                t = np.cumsum(steps)
                previous = accepted
                accepted = _accepted_starts(~(threshold > rates(t)), owed)
                if np.array_equal(accepted, previous):
                    break
            ended = starts & (t >= self.duration_s)
            stop = int(ended.argmax()) if ended.any() else pairs
            payload = np.flatnonzero(~starts[:stop])
            if payload.size:
                yield (
                    t[payload],
                    np.searchsorted(self._client_cum, first[payload] * client_total),
                    np.searchsorted(self._content_cum, second[payload] * content_total),
                )
            if stop < pairs:
                return
            now = float(t[-1])
            owed = bool(accepted[-1])

    def __iter__(self) -> Iterator[Request]:
        clients = self.clients
        for times, indices, contents in self.batches():
            for t, index, content in zip(
                times.tolist(), indices.tolist(), contents.tolist()
            ):
                yield Request(t=t, client=clients[index], content=content)


def stream_digest(requests: Iterable[Request]) -> str:
    """CRC32 digest of a request stream, for byte-identity assertions.

    Folds every request through ``repr``-exact float formatting, so two
    streams digest equal iff they are identical arrival for arrival.
    """
    crc = 0
    count = 0
    for request in requests:
        crc = zlib.crc32(
            f"{request.t!r}/{request.client}/{request.content}\n".encode(), crc
        )
        count += 1
    return f"{count}:{crc:08x}"
