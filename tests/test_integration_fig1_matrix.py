"""End-to-end check of the Figure 1 announcement matrix.

Simulator and config renderer read one plan value
(:meth:`repro.core.plan.Technique.originations`); these tests close the
loop over what each *does* with it: the origin tables a
:class:`~repro.core.controller.CdnController` leaves on the routers must
equal what the rendered BIRD filters announce, for every technique and
site role, before and after the specific site fails.
"""

import pytest

from repro.configgen.bird import generate_bird_config
from repro.core.controller import CdnController
from repro.core.techniques import (
    Anycast,
    Combined,
    ProactiveMed,
    ProactivePrepending,
    ProactiveSuperprefix,
    ReactiveAnycast,
    ShedDns,
    ShedPrepend,
    ShedWithdraw,
    Unicast,
)
from repro.net.addr import IPv4Prefix
from repro.topology.testbed import SPECIFIC_PREFIX, SUPERPREFIX

from tests.conftest import FAST_TIMING

TECHNIQUES = [
    Unicast(),
    Anycast(),
    ProactiveSuperprefix(),
    ReactiveAnycast(),
    ProactivePrepending(3),
    ProactiveMed(100),
    Combined(),
    ShedPrepend(),
    ShedWithdraw(),
    ShedDns(),
]


def simulator_originations(deployment, technique, site, specific_site, emergency):
    """What the controller leaves originated at ``site``:
    {prefix: (prepend, med)}."""
    network = deployment.topology.build_network(seed=1, timing=FAST_TIMING)
    controller = CdnController(
        network=network, deployment=deployment, technique=technique,
        prefix=SPECIFIC_PREFIX, superprefix=SUPERPREFIX,
    )
    controller.deploy(specific_site)
    if emergency:
        controller.fail_site(specific_site)
        network.run_for(controller.detection_delay + 1.0)
    router = network.routers[deployment.site_node(site)]
    result = {}
    for prefix in router.originated_prefixes():
        config = router.origins.get(prefix)
        result[prefix] = (config.prepend, config.med)
    return result


def configgen_originations(deployment, technique, site, specific_site, emergency):
    """What the rendered export filter announces: {prefix: (prepend, med)}."""
    config = generate_bird_config(deployment, technique, site, specific_site)
    text = config.emergency if emergency and config.emergency else config.normal
    result = {}
    for line in (raw.strip() for raw in text.splitlines()):
        if line.startswith("if net = "):
            prefix = IPv4Prefix.parse(line.split()[3])
            result[prefix] = (0, 0)
        elif line.startswith("bgp_path.prepend("):
            result[prefix] = (result[prefix][0] + 1, result[prefix][1])
        elif line.startswith("bgp_med = "):
            result[prefix] = (result[prefix][0], int(line.removeprefix("bgp_med = ").rstrip(";")))
    return result


@pytest.mark.parametrize("technique", TECHNIQUES, ids=lambda t: t.name)
@pytest.mark.parametrize("site", ["sea1", "ams"], ids=["specific", "other"])
class TestFigure1Agreement:
    def test_normal_operation(self, deployment, technique, site):
        simulated = simulator_originations(deployment, technique, site, "sea1", False)
        rendered = configgen_originations(deployment, technique, site, "sea1", False)
        assert simulated == rendered, (
            f"{technique.name} at {site}: simulator {simulated} != config {rendered}"
        )

    def test_after_failure(self, deployment, technique, site):
        if site == "sea1":
            pytest.skip("the failed site announces nothing afterwards")
        simulated = simulator_originations(deployment, technique, site, "sea1", True)
        rendered = configgen_originations(deployment, technique, site, "sea1", True)
        assert simulated == rendered, (
            f"{technique.name} at {site} post-failure: "
            f"simulator {simulated} != config {rendered}"
        )
