"""Hot-path profiler: wall-clock and count attribution per event kind.

The :class:`~repro.bgp.engine.EventEngine` processes tens of thousands
of callbacks per Fig. 2-style run; the ROADMAP's "raw speed" work
(checkpoint/fork, event batching) needs to know *which* callbacks the
wall time actually goes to. :class:`EventProfiler` aggregates per
callback qualname -- ``Session._make_delivery.<locals>.deliver``,
``Session._make_mrai_expiry.<locals>.mrai_expired`` (queued only for a
timer an update waits on), ``BgpRouter._schedule_fib_install.<locals>
.<lambda>``, ``Prober._round.<locals>.<lambda>`` and friends are each a
distinct simulated event kind -- plus
the telemetry phases' :class:`~repro.telemetry.summary.PhaseTable` (the
fold ``repro trace summarize`` reads too), and what the run left for the
cycle collector.

The profiler never reads a clock on the hot path: the engine and the
telemetry ``phase()`` context hand it durations they already measured,
so enabling it adds only dict bumps there. State merges associatively
(counts and durations sum), which is how ``--workers N`` profile output
stays identical to the serial run -- bar the ``collector`` table, whose
passes and seconds belong to the host (:func:`watch_collector`).
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.telemetry.summary import PhaseTable, fold_rows
from repro.telemetry.trace import PhaseEnd

#: schema tag written into profile JSON files (``--profile PATH``)
PROFILE_SCHEMA = "repro.profile/2"

#: the flat tables of a profile (the third, ``phases``, is a
#: :class:`PhaseTable`): name -> the fields of one entry, all summed on
#: merge; each table is optional on read.
_TABLES = {
    "callbacks": ("count", "wall_s"),
    "collector": ("passes", "wall_s", "collected"),
}


def callback_name(callback: Callable) -> str:
    """A stable attribution key for an engine callback."""
    name = getattr(callback, "__qualname__", None)
    if name is None:  # partials, callables without a qualname
        name = type(callback).__name__
    return name


class EventProfiler:
    """Accumulates per-callback and per-phase timing attribution."""

    __slots__ = ("callbacks", "phases", "collector")

    def __init__(self) -> None:
        #: callback qualname -> [count, total wall seconds]
        self.callbacks: dict[str, list] = {}
        #: phase name -> [runs, total wall seconds, total sim seconds,
        #: {integer end tag: [sum, runs that carried it]}]
        self.phases = PhaseTable()
        #: cycle-collector generation -> [passes, total wall seconds,
        #: objects collected]; what the run left for the collector
        self.collector: dict[str, list] = {}

    # ------------------------------------------------------------------
    # Recording (called from the engine / telemetry hot paths)

    def record_callback(self, name: str, wall_s: float) -> None:
        entry = self.callbacks.get(name)
        if entry is None:
            entry = self.callbacks[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += wall_s

    def record_phase(self, end: PhaseEnd) -> None:
        self.phases.add(end)

    def record_collection(self, generation: int, wall_s: float, collected: int) -> None:
        entry = self.collector.setdefault(f"gen{generation}", [0, 0.0, 0])
        entry[0] += 1
        entry[1] += wall_s
        entry[2] += collected

    # ------------------------------------------------------------------
    # Mergeable state (ships across the worker-pool process boundary)

    def state(self) -> dict:
        """Plain-data view, JSON-serializable and mergeable."""
        document: dict = {"schema": PROFILE_SCHEMA, "phases": self.phases.state()}
        for table, fields in _TABLES.items():
            document[table] = {
                name: dict(zip(fields, entry))
                for name, entry in sorted(getattr(self, table).items())
            }
        return document

    def merge_state(self, state: dict) -> None:
        """Fold another profiler's :meth:`state` -- or a profile file's
        document -- into this one; a table that is not ``{name: {field:
        number}}`` is a ``ValueError``."""
        for table, fields in _TABLES.items():
            fold_rows(getattr(self, table), state.get(table, {}), fields, table)
        self.phases.merge_state(state.get("phases", {}))


@contextmanager
def watch_collector(profiler: EventProfiler | None) -> Iterator[None]:
    """Feed ``profiler`` every cycle-collector pass made inside the block
    (a no-op without one). The one place the profiler reads a clock: the
    interpreter reports a pass's start and stop, not its duration."""
    if profiler is None:
        yield
        return
    started = [0.0]

    def hook(phase: str, info: dict) -> None:
        now = time.perf_counter()  # repro: noqa[DET004]
        if phase == "stop":
            profiler.record_collection(info["generation"], now - started[0], info["collected"])
        started[0] = now

    gc.callbacks.append(hook)
    try:
        yield
    finally:
        gc.callbacks.remove(hook)


def render_profile(state: dict, top: int = 15) -> str:
    """Format a profile ``state`` dict as the ``repro profile`` report.

    The document is read through :meth:`EventProfiler.merge_state`, so
    a malformed one is a ``ValueError``, not a half-printed report."""
    profile = EventProfiler()
    profile.merge_state(state)
    state = profile.state()
    lines: list[str] = []
    callbacks = state["callbacks"]
    total_wall = sum(d["wall_s"] for d in callbacks.values())
    total_count = sum(d["count"] for d in callbacks.values())
    lines.append(
        f"{total_count} engine callbacks, {total_wall:.3f}s wall inside callbacks"
    )
    if callbacks:
        lines.append("")
        lines.append("top event kinds by wall time:")
        lines.append(
            f"  {'callback':44s} {'count':>8s} {'wall':>9s} {'share':>6s} {'mean':>9s}"
        )
        ranked = sorted(callbacks.items(), key=lambda kv: (-kv[1]["wall_s"], kv[0]))
        for name, data in ranked[:top]:
            share = data["wall_s"] / total_wall if total_wall else 0.0
            mean_us = data["wall_s"] / data["count"] * 1e6 if data["count"] else 0.0
            lines.append(
                f"  {name:44s} {data['count']:8} {data['wall_s']:8.3f}s "
                f"{share:5.1%} {mean_us:7.1f}us"
            )
        if len(ranked) > top:
            rest = sum(d["wall_s"] for _, d in ranked[top:])
            lines.append(f"  ... {len(ranked) - top} more ({rest:.3f}s)")
    lines += profile.phases.lines()
    collector = state["collector"]
    if collector:
        lines.append("")
        lines.append("collector (cycle-collector passes inside the run; host-side):")
        lines.append(f"  {'generation':22s} {'passes':>6s} {'wall':>9s} {'collected':>10s}")
        for name, data in collector.items():
            lines.append(
                f"  {name:22s} {data['passes']:6} {data['wall_s']:8.3f}s "
                f"{data['collected']:10}"
            )
    return "\n".join(lines)
