"""Site serving capacity: profiles, runtime state, and load accounting.

The paper's technique matrix trades availability against control under
*failures*; the Sinha et al. load-management line (arXiv:1509.08194,
arXiv:1603.00406) extends the same axis to *capacity*: sites are finite
and the CDN must shed or shift load, not just survive outages. This
module supplies the capacity side of that extension:

* :class:`CapacityProfile` -- pure data: requests/second each site can
  serve, JSON-loadable (schema ``repro.capacity-profile/1``) exactly
  like workload profiles, shared across every cell of a sweep;
* :class:`CapacityState` -- one run's mutable view: brownouts scale a
  site's effective capacity down and back, and the DNS layer records
  per-site divert fractions for the DNS-weighted shedding hybrid;
* :func:`expected_site_load` -- the expectation the capacity invariant
  and the VER24x static checks both evaluate: each client's Zipf
  popularity share (surge weighting included) of the profile's peak
  request rate, summed into the site its requests currently resolve to.

Like workload profiles, parsing checks *types* only; value sanity
(non-positive rates, unknown sites) is the pre-flight validator's job
(PRE150-PRE153), so a known-bad capacity file loads fine and is then
refused with a stable finding code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.fields import Field, read
from repro.workload.profile import WorkloadProfile
from repro.workload.stream import client_weight_table

#: schema tag expected in JSON capacity profile files
CAPACITY_SCHEMA = "repro.capacity-profile/1"


@dataclass(frozen=True, slots=True)
class CapacityProfile:
    """Per-site serving capacity in requests/second (pure data).

    ``default_rps`` applies to every site not named in ``site_rps``;
    ``None`` means unlimited (the pre-capacity behaviour), so a profile
    can constrain a single hot site while leaving the rest unbounded.
    """

    name: str
    #: capacity for sites not listed in ``site_rps``; None = unlimited
    default_rps: float | None = None
    #: per-site overrides, site name -> requests/second
    site_rps: dict[str, float] = field(default_factory=dict)

    def capacity_for(self, site: str) -> float | None:
        """The site's configured capacity (None = unlimited)."""
        if site in self.site_rps:
            return self.site_rps[site]
        return self.default_rps

    def to_dict(self) -> dict:
        return {
            "schema": CAPACITY_SCHEMA,
            "name": self.name,
            "default_rps": self.default_rps,
            "site_rps": dict(sorted(self.site_rps.items())),
        }


#: the rows of :class:`CapacityProfile`; an absent or ``null``
#: ``default_rps`` is how a profile says unlimited (inf is not)
CAPACITY_FIELDS = (
    Field("name", str),
    Field("default_rps", lo=0, lo_open=True, nullable=True, code="PRE150",
          why="every unlisted site would serve nothing"),
    Field("site_rps", {str: float}, lo=0, lo_open=True, code="PRE150",
          why="the site would serve nothing (fail it instead)"),
)


class CapacityState:
    """One run's mutable capacity view (never pickled, never shared).

    Built per run from the deployment's site list and a
    :class:`CapacityProfile`. Brownout faults and scenario events scale a
    site's effective capacity down (``scale``) and back (``restore``);
    the controller records DNS divert fractions here when a DNS-weighted
    shedding technique reacts to overload. All mutation happens from
    engine callbacks on the simulated clock, so the state evolves
    identically across repeats, worker counts, and checkpoint forks.
    """

    __slots__ = ("profile", "sites", "_factors", "dns_divert")

    def __init__(self, profile: CapacityProfile, sites: Iterable[str]) -> None:
        self.profile = profile
        self.sites = list(sites)
        #: site -> brownout factor currently applied (absent = 1.0)
        self._factors: dict[str, float] = {}
        #: site -> fraction of its requests the DNS layer diverts away
        self.dns_divert: dict[str, float] = {}

    def effective_rps(self, site: str) -> float:
        """The site's capacity right now (``math.inf`` when unlimited)."""
        configured = self.profile.capacity_for(site)
        base = math.inf if configured is None else configured
        return base * self._factors.get(site, 1.0)

    def scale(self, site: str, factor: float) -> None:
        """Apply a brownout: capacity drops to ``factor`` of configured."""
        self._factors[site] = factor

    def restore(self, site: str) -> None:
        """End a brownout: capacity returns to the configured value."""
        self._factors.pop(site, None)

    def browned_out(self, site: str) -> bool:
        return site in self._factors


# ----------------------------------------------------------------------
# Expected load (the capacity invariant's arithmetic)


def expected_site_load(
    profile: WorkloadProfile,
    clients: Sequence[str],
    resolve: Callable[[str], str | None],
    regions: Mapping[str, str] | None = None,
) -> dict[str, float]:
    """Expected *peak* offered load per site, requests/second.

    Each client's share of the profile's peak rate (``max_rate()``) is
    its popularity weight -- Zipf rank weight times the surge multiplier,
    the same table the request stream samples from -- and the share lands
    on whatever site ``resolve(client)`` currently returns (None for
    clients whose requests are not delivered to any site). Using the
    peak rate makes the check conservative: a site is over capacity if
    the workload's worst moment, applied to the *current* catchment,
    exceeds what the site can serve.
    """
    loads: dict[str, float] = {}
    if not clients:
        return loads
    cumulative = client_weight_table(profile, clients, regions)
    total = cumulative[-1]
    if total <= 0:
        return loads
    peak = profile.max_rate()
    previous = 0.0
    for client, bound in zip(clients, cumulative):
        share = (bound - previous) / total
        previous = bound
        site = resolve(client)
        if site is not None:
            loads[site] = loads.get(site, 0.0) + share * peak
    return loads


# ----------------------------------------------------------------------
# JSON loading


def capacity_from_dict(data: dict, source: str = "<dict>") -> CapacityProfile:
    """Build a capacity profile from parsed JSON, checking structure only.

    Out-of-range *values* (non-positive rates, unknown sites) are left
    for :func:`repro.analysis.preflight.check_capacity`, so bad-profile
    fixtures load and produce PRE findings rather than parse errors.
    """
    parsed = read((Field("schema", str), *CAPACITY_FIELDS), data, source)
    schema = parsed.pop("schema", CAPACITY_SCHEMA)
    if schema != CAPACITY_SCHEMA:
        raise ValueError(
            f"{source}: capacity schema {schema!r} != {CAPACITY_SCHEMA!r}"
        )
    return CapacityProfile(**{"name": source, **parsed})


def load_capacity(spec: str) -> CapacityProfile:
    """Resolve ``--capacity SPEC``: a uniform rps number or a JSON path.

    A bare number (``--capacity 250``) means every site serves at most
    that many requests/second; anything else is a capacity profile file.
    """
    try:
        uniform = float(spec)
    except ValueError:
        pass
    else:
        return CapacityProfile(name=f"uniform-{spec}", default_rps=uniform)
    path = Path(spec)
    if not path.exists():
        raise ValueError(
            f"{spec!r} is neither a requests/second number nor a capacity "
            "profile file"
        )
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{spec}: invalid JSON: {error}") from error
    return capacity_from_dict(data, source=str(path))
