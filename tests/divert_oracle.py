"""The per-request admission loop, kept as the reference for a
DNS-diverting tick.

These are ``WorkloadEngine._divert_target`` and
``WorkloadEngine._serve_in_order`` as they stood before the engine
admitted a diverting tick with a loop over its diversion candidates
only, moved here verbatim as functions of the engine (``self``): every
request of the tick, one at a time, in arrival order.
``WorkloadEngine._admit_diverting`` must return what
:func:`_serve_in_order` returns, dict key order included
(``tests/test_workload_tick.py::TestAdmissionAgainstTheLoop``).
"""

from __future__ import annotations

import math
import zlib

import numpy as np


def _divert_target(
    self,
    site: str,
    t: float,
    client: str,
    fraction: float,
    budgets: dict[str, float],
    used: dict[str, float],
) -> str:
    """DNS-weighted shedding: maybe redirect a request off ``site``.

    A deterministic per-request hash (never the stream RNG -- the
    arrival sequence must not depend on shedding state) selects the
    diverted fraction; diverted requests go to the live site with
    the most spare capacity left this tick. Returns the final site.
    """
    draw = zlib.crc32(f"{t!r}/{client}".encode()) % 10_000
    if draw >= fraction * 10_000:
        return site
    best = site
    best_spare = 0.0
    for alt in self._site_order:
        if alt == site or alt in self.dead_sites:
            continue
        spare = budgets[alt] - used.get(alt, 0.0)
        if spare >= 1.0 and spare > best_spare:
            best = alt
            best_spare = spare
    return best


def _serve_in_order(
    self,
    times: np.ndarray,
    clients: np.ndarray,
    landed: dict[int, str],
    budgets: dict[str, float],
    divert: dict[str, float],
) -> tuple[dict[str, int], dict[str, int]]:
    """Admit a tick's requests one at a time, in arrival order.

    Only needed while some site diverts: where a diverted request
    goes depends on the credit the requests before it have spent.
    ``landed`` maps a client index to the live site its requests
    reach; the rest were lost on the way and take no credit.
    Returns ⟨served, attempts⟩ per site after diversion.
    """
    served: dict[str, int] = {}
    attempts: dict[str, int] = {}
    used: dict[str, float] = {}
    for t, index in zip(times.tolist(), clients.tolist()):
        site = landed.get(index)
        if site is None:
            continue
        fraction = divert.get(site, 0.0)
        if fraction > 0.0:
            site = _divert_target(
                self, site, t, self.clients[index], fraction, budgets, used
            )
        attempts[site] = attempts.get(site, 0) + 1
        spent = used.get(site, 0.0)
        if spent + 1.0 <= budgets.get(site, math.inf) + 1e-9:
            used[site] = spent + 1.0
            served[site] = served.get(site, 0) + 1
    return served, attempts
