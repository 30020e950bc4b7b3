"""The §5.1 proximity reads, pinned as digests.

Target selection keeps a hitlist entry when the policy path from the
site to the entry's AS is within 50 ms RTT, and ``SiteRttTable`` prices
every ⟨web client, site⟩ pair along the same paths. Both read the
settled single-origin routes toward a client AS; these digests hold
every site's selection (``nearby``, ``anycast_routed_here``, the
targets) and every RTT, to the bit, on the testbed at seed 42 and on
the wide parameter set of ``TestAgreementMatrix``, so a change to how
those routes are solved cannot move a paper number silently.
"""

import zlib

import pytest

from repro.measurement.catchment import anycast_catchment
from repro.measurement.hitlist import Hitlist, select_targets
from repro.measurement.performance import SiteRttTable
from repro.topology.testbed import build_deployment

from tests.test_verify_propagation import WORLDS

#: ⟨world, select_targets digest, rtt_ms digest⟩
CASES = [
    pytest.param(WORLDS[0], 0xF3EC717B, 0x4E4789F6, id="testbed-42"),
    pytest.param(WORLDS[-1], 0x67CAC77F, 0x06F4A423, id="wide-42"),
]


def crc(lines: list[str]) -> int:
    return zlib.crc32("\n".join(lines).encode())


@pytest.mark.parametrize("params, selection_crc, rtt_crc", CASES)
def test_selection_and_rtt_digests(params, selection_crc, rtt_crc):
    deployment = build_deployment(params=params)
    topology = deployment.topology
    catchment = anycast_catchment(topology, deployment)
    hitlist = Hitlist(topology, seed=params.seed)
    selections = []
    for site in deployment.site_names:
        selection = select_targets(
            topology, deployment, site, catchment, hitlist,
            max_targets=25, seed=params.seed,
        )
        targets = sorted((str(address), node) for address, node in selection.targets.items())
        selections.append(f"{site} {selection.nearby} {selection.anycast_routed_here} {targets}")
    table = SiteRttTable(topology, deployment)
    rtts = [
        f"{info.node_id} {site} {table.rtt_ms(info.node_id, site)!r}"
        for info in topology.web_client_ases()
        for site in deployment.site_names
    ]
    assert len(rtts) > 1000
    assert (crc(selections), crc(rtts)) == (selection_crc, rtt_crc)
