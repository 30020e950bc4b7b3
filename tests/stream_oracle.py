"""The per-candidate request loop, kept as the reference distribution.

This is ``RequestStream.__iter__`` as it stood before the stream was
chunked into numpy arrays, moved here verbatim: one ``expovariate`` and
one acceptance uniform per candidate, one ``bisect_left`` lookup per
accepted arrival -- thinning spelled out one candidate at a time.
``RequestStream`` draws the same marked Poisson process a chunk at a
time from other uniforms, so the two agree in distribution, not value
for value: ``TestDrawnProcess`` in ``test_workload_stream.py`` holds
both to the same Poisson and client checks.

The loop is also the stream every record taken before that change was
taken on. :class:`LoopStream` serves it in the chunk shape the engine
reads, so those records (the per-request engine's surge ticks, the seed
tag accounts) still replay value for value. It was taken when a request
also carried a content id, so an accepted arrival still spends the one
uniform that id took: without it every later arrival would move.

:func:`bigint_batches` is the chunked stream as it drew its bits before
they came from numpy's ``MT19937``: ``random.Random.getrandbits`` turned
into bytes. The stream must equal it bit for bit, array for array. It
picks clients with a plain ``searchsorted`` (:func:`_marks`), the search
the stream's bucket table answers without.
"""

import random
from bisect import bisect_left
from typing import Iterator

import numpy as np

from repro.workload.stream import CHUNK_CANDIDATES, Request, client_weight_table


def scalar_requests(profile, clients, duration, seed, regions=None) -> Iterator[Request]:
    """What ``RequestStream(profile, clients, duration, seed, regions)``
    must yield in distribution, drawn one candidate at a time."""
    rng = random.Random(seed ^ profile.seed_salt)
    rate_max = profile.max_rate()
    if rate_max <= 0:
        return
    rate = profile.rate
    client_cum = client_weight_table(profile, clients, regions)
    client_total = client_cum[-1]
    uniform = rng.random
    expovariate = rng.expovariate
    t = 0.0
    while True:
        t += expovariate(rate_max)
        if t >= duration:
            return
        # Thinning: the acceptance draw happens for *every* candidate
        # (even when rate(t) == rate_max) so the draw order -- and
        # therefore the stream -- is a pure function of the seed.
        if uniform() * rate_max > rate(t):
            continue
        client = clients[bisect_left(client_cum, uniform() * client_total)]
        uniform()  # the content id's draw (module docstring)
        yield Request(t=t, client=client)


class LoopStream:
    """A stand-in for ``RequestStream`` in ``repro.workload.engine``:
    ``batches()`` yields the loop's arrivals as one ⟨times, client
    indices⟩ chunk."""

    def __init__(self, profile, clients, duration_s, seed, regions=None):
        self.clients = list(clients)
        self.requests = list(scalar_requests(profile, self.clients, duration_s, seed, regions))

    def batches(self):
        if self.requests:
            index = {client: i for i, client in enumerate(self.clients)}
            yield (
                np.array([r.t for r in self.requests]),
                np.array([index[r.client] for r in self.requests], dtype=np.intp),
            )


def _words(rng: random.Random, count: int, width: int) -> np.ndarray:
    """The generator's next ``count`` random ``width``-bit (32 or 64)
    unsigned integers."""
    raw = rng.getrandbits(width * count).to_bytes(width // 8 * count, "little")
    return np.frombuffer(raw, f"<u{width // 8}")


def _uniforms(rng: random.Random, count: int) -> np.ndarray:
    return (_words(rng, count, 64) >> 11) * 2.0**-53


def _fractions(rng: random.Random, count: int) -> np.ndarray:
    return _words(rng, count, 32) * 2.0**-32


def _marks(cumulative: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Weighted indices by plain binary search: the first cumulative
    weight above each fraction of the total."""
    return np.searchsorted(cumulative, fractions * cumulative[-1], "right")


def bigint_batches(stream) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """What ``stream.batches()`` must yield exactly, drawn from a
    ``random.Random`` through ``getrandbits``."""
    rate_max = stream.profile.max_rate()
    if rate_max <= 0:
        return
    rng = random.Random(stream.seed)
    rates = stream.profile.rates
    count = CHUNK_CANDIDATES
    start = 0.0
    while start < stream.duration_s:
        span = rng.gammavariate(count, 1.0 / rate_max)
        positions = np.append(np.sort(_uniforms(rng, count - 1)), 1.0)
        t = start + span * positions
        accepted = _fractions(rng, count) * rate_max <= rates(t)
        if t[-1] >= stream.duration_s:
            accepted &= t < stream.duration_s
        times = t[accepted]
        if times.size:
            yield times, _marks(stream._client_cum, _fractions(rng, times.size))
        start = float(t[-1])

