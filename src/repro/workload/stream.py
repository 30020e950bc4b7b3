"""Streaming request generation: Poisson arrivals, Zipf popularity.

:class:`RequestStream` never materializes the schedule: it draws one
numpy chunk of arrivals at a time (:meth:`RequestStream.batches`), so a
1M-request flash crowd costs the same memory as a 10-request one. The
per-stream state is the generator, the cumulative Zipf weight table
over clients, its bucket table (32 entries per client, rounded up to a
power of two) and one chunk of :data:`CHUNK_CANDIDATES` candidates.

Arrivals are an inhomogeneous Poisson process drawn by thinning a
homogeneous one at the profile's envelope rate ``max_rate()``, a chunk
of K candidates at a time: the span to the chunk's last candidate is a
Gamma(K, 1 / max_rate) draw, the K - 1 candidates before it are sorted
uniforms over that span, and a candidate at ``t`` is accepted when a
uniform times ``max_rate()`` is at most ``rate(t)``. That is exactly
Poisson with intensity ``rate(t)`` (``docs/workload.md``, "Arrival
model"), and the draw is a pure function of (profile, seed), never of
network state. ``tests/stream_oracle.py`` keeps the per-candidate loop
the stream is tested against as a distribution, and the ``getrandbits``
draw it is tested against bit for bit.

Popularity: clients are ranked by list position and sampled from
Zipf(``zipf_s``): the first entry of a precomputed cumulative-weight
table above a 32-bit word's fraction of the total, read from a bucket
table over the word's top bits (:class:`_Marks`) and searched only in
the buckets a boundary splits.

The stream owns a dedicated generator: a numpy ``MT19937`` that emits
exactly the bits of ``random.Random(seed)`` (:class:`_Bits`; a chunk's
16,382 words for the candidate times take about 68 µs, where
``getrandbits`` and ``int.to_bytes`` took 292 µs). It never touches the
network RNG. That isolation is what keeps the request stream
byte-identical across serial vs ``--workers N`` runs and across a
checkpoint fork (workload state is not part of the network snapshot).

numpy is imported inside the functions that compute with it, here and in
``profile.py`` and ``engine.py``, so a run that streams no workload never
loads it (about 14 MB of RSS and 0.05 s of set-up on a 2-vCPU Intel Xeon).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, cast

from repro.workload.profile import WorkloadProfile

if TYPE_CHECKING:
    import numpy as np

#: Candidates drawn per chunk. Measured on flash-crowd at 1600 rps (1.08 M
#: arrivals from 2.88 M candidates, 0.19 s on a 2-vCPU Intel Xeon): 8192
#: candidates add 0.9 MB RSS; 4096 to 32768 take the same time within
#: 5 %, and the memory grows with the chunk (+0.4 MB to +3.5 MB).
CHUNK_CANDIDATES = 8192


@dataclass(frozen=True, slots=True)
class Request:
    """One client request: when, and from which client AS."""

    #: seconds since the stream's epoch (the engine instant it started)
    t: float
    #: AS node id of the aggregated client prefix issuing the request
    client: str


def client_weight_table(
    profile: WorkloadProfile,
    clients: Sequence[str],
    regions: Mapping[str, str] | None = None,
) -> list[float]:
    """Cumulative client popularity: Zipf rank weight x surge multiplier.

    Regional surges (``profile.surge_region``) bias the table *values*
    only -- never the number or order of RNG draws -- so a surging and a
    non-surging stream with the same seed draw the same arrival times.
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


class _Bits:
    """The exact output of ``random.Random(seed)``, drawn in bulk.

    One numpy ``MT19937`` loaded with that generator's state: CPython's
    ``getrandbits(32 * n)`` is the next ``n`` raw 32-bit words, so a
    chunk's uniforms cost one ``random_raw`` call instead of a big-int
    round trip. :meth:`random` is CPython's 53-bit formula over two
    words, and :meth:`gammavariate` is CPython's own algorithm over it.
    """

    __slots__ = ("_raw",)

    def __init__(self, seed: int | str) -> None:
        import numpy as np
        from numpy.random import MT19937

        _, state, _ = random.Random(seed).getstate()
        key = np.array(state[:-1], dtype=np.uint32)
        # Built from seed material, then set to the exact state: the 624
        # words and the position in them.
        bits = MT19937(key)
        bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": state[-1]}}
        self._raw = bits.random_raw

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit words, as ``getrandbits(32 * count)``
        lays them out little-endian."""
        return self._raw(count).astype("<u4")

    def random(self) -> float:
        """``random.Random.random``: a 53-bit uniform on [0, 1)."""
        a, b = self._raw(2).tolist()
        return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)

    def gammavariate(self, alpha: float, beta: float) -> float:
        """CPython's own ``random.Random.gammavariate``: it draws only
        through ``self.random()``, so on these bits it returns what
        ``random.Random(seed)`` would."""
        return random.Random.gammavariate(cast(random.Random, self), alpha, beta)


def _uniforms(bits: _Bits, count: int) -> np.ndarray:
    """``count`` uniforms on [0, 1) with 53 random bits each, as fine as
    a float64 in [0, 1) resolves them."""
    return (bits.words(2 * count).view("<u8") >> 11) * 2.0**-53


def _fractions(bits: _Bits, count: int) -> np.ndarray:
    """``count`` uniforms on [0, 1) with 32 random bits each: enough to
    accept a candidate, at half the bits."""
    return bits.words(count) * 2.0**-32


def _search(cumulative: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Weighted indices: the first cumulative weight above each word's
    fraction of the total (``word / 2**32``), so a zero-weight entry is
    never picked."""
    import numpy as np

    return np.searchsorted(cumulative, words * 2.0**-32 * cumulative[-1], "right")


class _Marks:
    """:func:`_search` over one cumulative table, answered from a bucket
    table indexed by the top bits of the word.

    ``word / 2**32 * total`` is monotone in the word, so the answer is
    too: a bucket whose first and last word get the same answer has that
    answer for every word in it, and only a word in a bucket that some
    boundary splits searches. The table has the next power of two
    ≥ 32 × entries buckets, so at most one bucket in 32 is split (a
    boundary splits at most one) -- 4,096 buckets, 32 KB, for 126
    clients.
    """

    __slots__ = ("_cumulative", "_shift", "_table")

    def __init__(self, cumulative: np.ndarray) -> None:
        import numpy as np

        width = min(32, (32 * len(cumulative) - 1).bit_length())
        self._cumulative = cumulative
        self._shift = 32 - width
        first = np.arange(1 << width, dtype=np.uint64) << self._shift
        answer = _search(cumulative, first)
        last = _search(cumulative, first + ((1 << self._shift) - 1))
        #: a bucket's one answer, or -1 where a boundary splits it
        self._table = np.where(answer == last, answer, -1)

    def __call__(self, words: np.ndarray) -> np.ndarray:
        import numpy as np

        marks = self._table[words >> self._shift]
        split = np.flatnonzero(marks < 0)
        if split.size:
            marks[split] = _search(self._cumulative, words[split])
        return marks


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
        import numpy as np

        if not clients:
            raise ValueError("request stream needs at least one client AS")
        self.profile = profile
        self.clients = list(clients)
        self.duration_s = duration_s
        self.seed = seed ^ profile.seed_salt
        self._client_cum = np.array(client_weight_table(profile, self.clients, regions))
        if not self._client_cum[-1] > 0 or (np.diff(self._client_cum, prepend=0.0) < 0).any():
            raise ValueError(
                f"workload profile {profile.name!r}: client weights must be non-negative "
                "and not all zero (check surge_weight against the clients' regions)"
            )
        self._client_marks = _Marks(self._client_cum)

    def batches(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The arrivals in order, as chunks of parallel arrays ⟨arrival
        time, index into ``clients``⟩ (never an empty chunk).

        Each chunk thins :data:`CHUNK_CANDIDATES` candidates of the
        envelope process and starts where the previous one's last
        candidate fell, so a longer ``duration_s`` only extends the
        stream: its arrivals before the shorter horizon are the same.
        """
        import numpy as np

        rate_max = self.profile.max_rate()
        if rate_max <= 0:
            return
        bits = _Bits(self.seed)
        rates = self.profile.rates
        count = CHUNK_CANDIDATES
        start = 0.0  # time of the latest candidate
        while start < self.duration_s:
            span = bits.gammavariate(count, 1.0 / rate_max)
            positions = np.append(np.sort(_uniforms(bits, count - 1)), 1.0)
            t = start + span * positions
            accepted = _fractions(bits, count) * rate_max <= rates(t)
            if t[-1] >= self.duration_s:
                accepted &= t < self.duration_s
            times = t[accepted]
            if times.size:
                yield times, self._client_marks(bits.words(times.size))
            start = float(t[-1])

    def __iter__(self) -> Iterator[Request]:
        clients = self.clients
        for times, indices in self.batches():
            for t, index in zip(times.tolist(), indices.tolist()):
                yield Request(t=t, client=clients[index])


def stream_digest(requests: Iterable[Request]) -> str:
    """CRC32 digest of a request stream, for byte-identity assertions.

    Folds every request through ``repr``-exact float formatting, so two
    streams digest equal iff they are identical arrival for arrival.
    """
    crc = 0
    count = 0
    for request in requests:
        crc = zlib.crc32(f"{request.t!r}/{request.client}\n".encode(), crc)
        count += 1
    return f"{count}:{crc:08x}"
