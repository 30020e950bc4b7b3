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

#: the rows of :class:`TtlViolationModel`, refused at construction: a
#: NaN or infinite number would turn every overstay into NaN or inf. The
#: upper bounds keep the lognormal draw ``exp(log(median) + z * sigma)``
#: finite: ``normalvariate`` returns ``|z| <= 2 * sqrt(53 * log(2))``
#: (< 12.2), and ``log(2**31 - 1) + 12.2 * 50`` (631.5) is below the log of
#: the largest float (709.78). ``2**31 - 1`` s is RFC 2181's longest TTL.
_OVERFLOW = "exp(log(median_overstay) + 12.2 * sigma) must stay finite"
_ROWS = (
    Field("violation_prob", lo=0, hi=1),
    Field("median_overstay", lo=0, hi=2**31 - 1, why=_OVERFLOW),
    Field("sigma", lo=0, hi=50, why=_OVERFLOW),
)


@dataclass(frozen=True, slots=True)
class TtlViolationModel:
    """How a client (mis)handles record expiry.

    Attributes:
        violation_prob: probability a given record is used past expiry.
        median_overstay: median of the lognormal extra-use duration.
        sigma: lognormal shape; the default gives a heavy tail similar in
            spirit to the measured distribution.
    """

    violation_prob: float = 0.3
    median_overstay: float = ALLMAN_MEDIAN_OVERSTAY_S
    sigma: float = 1.2

    def __post_init__(self) -> None:
        for _, message in violations(_ROWS, self):
            raise ValueError(message)

    def sample_overstay(self, rng: random.Random) -> float:
        """Seconds past expiry this record will keep being used (0 if the
        client honours the TTL this time)."""
        if rng.random() >= self.violation_prob:
            return 0.0
        return rng.lognormvariate(math.log(max(self.median_overstay, 1e-9)), self.sigma)

    @classmethod
    def compliant(cls) -> "TtlViolationModel":
        """A client that always honours TTLs."""
        return cls(violation_prob=0.0)
