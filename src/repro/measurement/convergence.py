"""Per-⟨collector peer, event⟩ convergence and propagation times.

Appendix A computes, for each withdrawal event, each collector peer's
*convergence time*: the delay from the (estimated) withdrawal to the last
update from that peer within a 1000 s window -- path hunting shows up as
a long trail of updates. Appendix B computes each peer's *propagation
time*: the delay from the (estimated) announcement to the peer's first
announcement of the prefix.

Both appendices estimate the event time itself from the update stream
("the first time when 5 withdrawals are seen within 20 seconds"), since
the real event time at the origin is unknown; the same estimator is
implemented here and validated against ground truth in the tests,
mirroring the paper's own validation against PEERING withdrawals.
"""

from __future__ import annotations

from repro.bgp.collector import CollectorEntry, RouteCollector
from repro.net.addr import IPv4Prefix

#: Appendix A window within which a peer's updates count toward an event.
CONVERGENCE_WINDOW_S = 1000.0


def estimate_event_time(
    entries: list[CollectorEntry],
    prefix: IPv4Prefix,
    announce: bool,
    threshold: int = 5,
    window_s: float = 20.0,
) -> float | None:
    """The paper's event-time estimator.

    Returns the first time at which ``threshold`` updates of the given
    kind (announcements or withdrawals) for ``prefix`` occur within
    ``window_s`` seconds -- or None if that never happens (e.g. too few
    collector peers saw the event).
    """
    times = sorted(
        e.time for e in entries if e.prefix == prefix and e.announce == announce
    )
    for i in range(len(times) - threshold + 1):
        if times[i + threshold - 1] - times[i] <= window_s:
            return times[i]
    return None


def withdrawal_convergence_times(
    collector: RouteCollector,
    prefix: IPv4Prefix,
    event_time: float,
    window_s: float = CONVERGENCE_WINDOW_S,
) -> dict[str, float]:
    """Appendix A metric: per-peer last-update delay after a withdrawal.

    Only peers whose final state in the window is *withdrawn* count
    (the paper verifies 90% of peers eventually withdraw before using an
    event at all); a peer still announcing at the end of the window never
    converged and is omitted.
    """
    per_peer: dict[str, CollectorEntry] = {}
    for entry in collector.entries:
        if entry.prefix != prefix:
            continue
        if not event_time <= entry.time <= event_time + window_s:
            continue
        current = per_peer.get(entry.peer)
        if current is None or entry.time >= current.time:
            per_peer[entry.peer] = entry
    return {
        peer: entry.time - event_time
        for peer, entry in per_peer.items()
        if not entry.announce
    }


def propagation_times(
    collector: RouteCollector,
    prefix: IPv4Prefix,
    event_time: float,
    window_s: float = CONVERGENCE_WINDOW_S,
) -> dict[str, float]:
    """Appendix B metric: per-peer first-announcement delay."""
    firsts: dict[str, float] = {}
    for entry in collector.entries:
        if entry.prefix != prefix or not entry.announce:
            continue
        if entry.time < event_time or entry.time > event_time + window_s:
            continue
        if entry.peer not in firsts or entry.time < firsts[entry.peer]:
            firsts[entry.peer] = entry.time
    return {peer: t - event_time for peer, t in firsts.items()}

