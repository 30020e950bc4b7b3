"""The per-candidate request loop, kept as the reference.

This is ``RequestStream.__iter__`` as it stood before the stream was
chunked into numpy arrays, moved here verbatim: one ``expovariate`` and
one acceptance uniform per candidate, two ``bisect_left`` lookups per
accepted arrival. ``RequestStream.batches()`` must reproduce it value
for value; the differential test in ``test_workload_stream.py`` is the
only caller.
"""

import random
from bisect import bisect_left
from typing import Iterator

from repro.workload.stream import Request, client_weight_table, zipf_cumulative


def scalar_requests(profile, clients, duration, seed, regions=None) -> Iterator[Request]:
    """What ``RequestStream(profile, clients, duration, seed, regions)``
    must yield, drawn one candidate at a time."""
    rng = random.Random(seed ^ profile.seed_salt)
    rate_max = profile.max_rate()
    if rate_max <= 0:
        return
    rate = profile.rate
    client_cum = client_weight_table(profile, clients, regions)
    client_total = client_cum[-1]
    content_cum = zipf_cumulative(max(1, profile.n_contents), profile.content_zipf_s)
    content_total = content_cum[-1]
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
        content = bisect_left(content_cum, uniform() * content_total)
        yield Request(t=t, client=client, content=content)
