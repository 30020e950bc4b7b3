"""How DNS clients handle record expiry, including TTL violators.

Allman (IMC 2020) found many connections established *after* the DNS
record's TTL expired, with a median of 890 s past expiration -- the
paper's §1/§2 cites this as the reason DNS TTLs cannot guarantee unicast
failover. :class:`TtlViolationModel` reproduces that behaviour: a
configurable fraction of lookups keep using an expired record for an
extra duration drawn from a long-tailed distribution.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.fields import Field, violations

#: Median seconds past TTL expiry observed by Allman 2020.
ALLMAN_MEDIAN_OVERSTAY_S = 890.0

#: lognormal shape of the overstay: a heavy tail similar in spirit to the
#: measured distribution
OVERSTAY_SIGMA = 1.2

#: the rows of :class:`TtlViolationModel`, refused at construction: a
#: NaN probability would make every record overstay
_ROWS = (Field("violation_prob", lo=0, hi=1),)


@dataclass(frozen=True, slots=True)
class TtlViolationModel:
    """How a client (mis)handles record expiry.

    Attributes:
        violation_prob: probability a given record is used past expiry,
            for a lognormal extra-use duration of median
            :data:`ALLMAN_MEDIAN_OVERSTAY_S` and shape
            :data:`OVERSTAY_SIGMA`.
    """

    violation_prob: float = 0.3

    def __post_init__(self) -> None:
        for _, message in violations(_ROWS, self):
            raise ValueError(message)

    def sample_overstay(self, rng: random.Random) -> float:
        """Seconds past expiry this record will keep being used (0 if the
        client honours the TTL this time)."""
        if rng.random() >= self.violation_prob:
            return 0.0
        return rng.lognormvariate(math.log(ALLMAN_MEDIAN_OVERSTAY_S), OVERSTAY_SIGMA)

    @classmethod
    def compliant(cls) -> "TtlViolationModel":
        """A client that always honours TTLs."""
        return cls(violation_prob=0.0)
