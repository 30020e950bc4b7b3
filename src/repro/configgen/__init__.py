"""Router configuration generation.

The techniques are, operationally, just announcement policies -- which
means they compile to router configuration. This package renders a
site's announcements under a chosen technique as BIRD 2.x configuration
(the daemon PEERING itself runs at its muxes), so the simulated policies
can be lifted onto real routers.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BirdConfig": ".bird",
    "generate_bird_config": ".bird",
})
