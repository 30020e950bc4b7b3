"""Geography and latency model.

ASes and CDN sites are placed in named regions with (x, y) coordinates on
an abstract plane scaled so that distances translate to realistic fiber
propagation delays. The model only needs to support the paper's uses of
latency: the 50 ms site-proximity filter of §5.1 and plausible per-link
delays for the data plane.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Propagation speed used to convert distance to delay: ~200,000 km/s in
#: fiber, i.e. 1 ms one-way per 200 km.
KM_PER_MS = 200.0

#: per-link serialization, queuing and equipment delay, ms
LINK_OVERHEAD_MS = 1.0


@dataclass(frozen=True, slots=True)
class Region:
    """A coarse geographic region with representative coordinates (km)."""

    name: str
    x: float
    y: float
    #: jitter radius (km) when placing ASes "in" the region
    spread: float = 300.0


#: Regions roughly laid out on a plane with transatlantic-scale distances,
#: chosen to cover the paper's site locations (US coasts + interior,
#: Western/Southern Europe, Brazil).
REGIONS: dict[str, Region] = {
    "us-west": Region("us-west", 0.0, 0.0),
    "us-mountain": Region("us-mountain", 1100.0, 100.0),
    "us-central": Region("us-central", 2300.0, 200.0),
    "us-east": Region("us-east", 3900.0, 100.0),
    "eu-west": Region("eu-west", 9500.0, -300.0),
    "eu-south": Region("eu-south", 11500.0, 600.0),
    "sa-east": Region("sa-east", 6500.0, 7500.0),
}


@dataclass(frozen=True, slots=True)
class Location:
    """A concrete placement of one AS or site."""

    region: str
    x: float
    y: float


def place_in(region_name: str, rng: random.Random) -> Location:
    """Pick jittered coordinates inside a region."""
    region = REGIONS[region_name]
    angle = rng.uniform(0, 2 * math.pi)
    radius = rng.uniform(0, region.spread)
    return Location(
        region=region_name,
        x=region.x + radius * math.cos(angle),
        y=region.y + radius * math.sin(angle),
    )


def distance_km(a: Location, b: Location) -> float:
    """Euclidean distance between two placements, in km."""
    return math.hypot(a.x - b.x, a.y - b.y)


def link_latency_s(a: Location, b: Location) -> float:
    """One-way latency of a direct link between two placements, seconds:
    propagation plus :data:`LINK_OVERHEAD_MS`."""
    return (distance_km(a, b) / KM_PER_MS + LINK_OVERHEAD_MS) / 1000.0
