"""Hot-path profiler: wall-clock and count attribution per event kind.

The :class:`~repro.bgp.engine.EventEngine` processes tens of thousands
of callbacks per Fig. 2-style run; the ROADMAP's "raw speed" work
(checkpoint/fork, event batching) needs to know *which* callbacks the
wall time actually goes to. :class:`EventProfiler` aggregates per
callback qualname -- ``Session._make_delivery.<locals>.deliver``,
``Session._make_mrai_expiry.<locals>.mrai_expired`` (queued only for a
timer an update waits on), ``BgpRouter._schedule_fib_install.<locals>
.<lambda>``, ``Prober._tick.<locals>.<lambda>`` and friends are each a
distinct simulated event kind -- plus
the phase-level wall-vs-sim breakdown the telemetry phases already
measure, and what the run left for the cycle collector.

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

from repro.telemetry.summary import fork_split

#: schema tag written into profile JSON files (``--profile PATH``)
PROFILE_SCHEMA = "repro.profile/1"

#: the tables of a profile: name -> the fields of one entry, all summed
#: on merge. ``rewinds`` and ``collector`` are optional on read (older
#: /1 files lack them).
_TABLES = {
    "callbacks": ("count", "wall_s"),
    "phases": ("runs", "wall_s", "sim_s"),
    "rewinds": ("cells", "routers"),
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

    __slots__ = tuple(_TABLES)

    def __init__(self) -> None:
        #: callback qualname -> [count, total wall seconds]
        self.callbacks: dict[str, list] = {}
        #: phase name -> [runs, total wall seconds, total sim seconds]
        self.phases: dict[str, list] = {}
        #: phase name -> [cells that rewound a held fork instead of
        #: restoring one, routers those rewinds reloaded]
        self.rewinds: dict[str, list] = {}
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

    def record_phase(self, name: str, wall_s: float, sim_s: float) -> None:
        entry = self.phases.get(name)
        if entry is None:
            entry = self.phases[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += wall_s
        entry[2] += sim_s

    def record_rewind(self, phase: str, routers: int) -> None:
        entry = self.rewinds.setdefault(phase, [0, 0])
        entry[0] += 1
        entry[1] += routers

    def record_collection(self, generation: int, wall_s: float, collected: int) -> None:
        entry = self.collector.setdefault(f"gen{generation}", [0, 0.0, 0])
        entry[0] += 1
        entry[1] += wall_s
        entry[2] += collected

    # ------------------------------------------------------------------
    # Mergeable state (ships across the worker-pool process boundary)

    def state(self) -> dict:
        """Plain-data view, JSON-serializable and mergeable."""
        document: dict = {"schema": PROFILE_SCHEMA}
        for table, fields in _TABLES.items():
            document[table] = {
                name: dict(zip(fields, entry))
                for name, entry in sorted(getattr(self, table).items())
            }
        return document

    def merge_state(self, state: dict) -> None:
        """Fold another profiler's :meth:`state` into this one."""
        for table, fields in _TABLES.items():
            mine = getattr(self, table)
            for name, data in state.get(table, {}).items():
                entry = mine.setdefault(name, [0] * len(fields))
                for i, field in enumerate(fields):
                    entry[i] += data[field]


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
    """Format a profile ``state`` dict as the ``repro profile`` report."""
    lines: list[str] = []
    callbacks = state.get("callbacks", {})
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
                f"  {name:44s} {data['count']:8d} {data['wall_s']:8.3f}s "
                f"{share:5.1%} {mean_us:7.1f}us"
            )
        if len(ranked) > top:
            rest = sum(d["wall_s"] for _, d in ranked[top:])
            lines.append(f"  ... {len(ranked) - top} more ({rest:.3f}s)")
    phases = state.get("phases", {})
    if phases:
        lines.append("")
        lines.append("phases (sim = simulated seconds covered, wall = host seconds):")
        lines.append(f"  {'phase':22s} {'runs':>5s} {'wall':>9s} {'sim':>11s} {'sim/wall':>9s}")
        rewinds = state.get("rewinds", {})
        for name, data in phases.items():
            speedup = data["sim_s"] / data["wall_s"] if data["wall_s"] else 0.0
            lines.append(
                f"  {name:22s} {data['runs']:5d} {data['wall_s']:8.3f}s "
                f"{data['sim_s']:10.1f}s {speedup:8.1f}x"
            )
            if name in rewinds:
                lines.append(fork_split(data["runs"], **rewinds[name]))
    collector = state.get("collector", {})
    if collector:
        lines.append("")
        lines.append("collector (cycle-collector passes inside the run; host-side):")
        lines.append(f"  {'generation':22s} {'passes':>6s} {'wall':>9s} {'collected':>10s}")
        for name, data in collector.items():
            lines.append(
                f"  {name:22s} {data['passes']:6d} {data['wall_s']:8.3f}s "
                f"{data['collected']:10d}"
            )
    return "\n".join(lines)
