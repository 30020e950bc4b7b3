"""Structured trace events and their recorder.

A trace is an append-only sequence of typed events, each stamped with
the *simulated* time it happened at (``EventEngine.now``), so a recorded
failover run can be replayed analytically: which withdrawals left when,
when each router's FIB moved, when the first reply surfaced at a
surviving site. Events serialize to one JSON object per line (JSONL) and
parse back into the same dataclasses, so traces survive a process
boundary (``repro failover --trace out.jsonl`` then ``repro trace
summarize out.jsonl``).

The recorder has two storage modes: unbounded (experiments that will be
exported) and a bounded ring buffer that keeps only the newest N events
(long soak runs where only the recent past matters); evicted events are
counted, never silently forgotten.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Type, TypeVar

E = TypeVar("E", bound="TraceEvent")

#: kind string -> event class, populated by ``_register``
EVENT_TYPES: dict[str, Type["TraceEvent"]] = {}


def _register(cls: Type[E]) -> Type[E]:
    EVENT_TYPES[cls.kind] = cls
    return cls


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base event: ``t`` is simulated seconds since the engine epoch."""

    kind: ClassVar[str] = "event"

    t: float

    def to_dict(self) -> dict:
        data = asdict(self)
        data["kind"] = self.kind
        return data


@_register
@dataclass(frozen=True, slots=True)
class RootCause(TraceEvent):
    """A new provenance chain began: a root action was taken.

    Every root event -- a scenario action, a fired fault, a controller
    reaction, a direct announce/withdraw -- allocates a fresh ``cause``
    id from the network's monotone counter and emits one of these. All
    downstream events (updates on the wire, route selections, FIB
    installs, DNS changes) carry the same ``cause``, so ``repro
    explain`` can walk the full chain.
    """

    kind: ClassVar[str] = "root_cause"

    cause: int
    action: str  # "site-fail" | "fault:link-down" | "announce" | ...
    target: str  # site, node, or link the action acted on
    detail: str = ""


@_register
@dataclass(frozen=True, slots=True)
class BgpUpdateSent(TraceEvent):
    """An update left a session (post-MRAI, on the wire)."""

    kind: ClassVar[str] = "bgp_update_sent"

    sender: str
    receiver: str
    prefix: str
    update: str  # "announce" | "withdraw"
    as_path_len: int = 0
    #: provenance id of the root action this update descends from
    cause: int = 0


@_register
@dataclass(frozen=True, slots=True)
class RouteSelected(TraceEvent):
    """A router's decision process picked a new best path (or none)."""

    kind: ClassVar[str] = "route_selected"

    node: str
    prefix: str
    via: str | None  # neighbor the best route was learned from; None = local/withdrawn
    as_path_len: int = 0
    #: provenance id of the root action this re-selection descends from
    cause: int = 0


@_register
@dataclass(frozen=True, slots=True)
class FibInstalled(TraceEvent):
    """A best-path change reached the forwarding plane."""

    kind: ClassVar[str] = "fib_installed"

    node: str
    prefix: str
    next_hop: str | None  # None = route removed
    #: provenance id of the root action this install descends from
    cause: int = 0


@_register
@dataclass(frozen=True, slots=True)
class FlapDamped(TraceEvent):
    """RFC 2439 damping started suppressing a (prefix, neighbor)."""

    kind: ClassVar[str] = "flap_damped"

    node: str
    prefix: str
    neighbor: str
    penalty: float


@_register
@dataclass(frozen=True, slots=True)
class ProbeSent(TraceEvent):
    """One echo request left the vantage site."""

    kind: ClassVar[str] = "probe_sent"

    target: str
    seq: int


@_register
@dataclass(frozen=True, slots=True)
class ProbeReply(TraceEvent):
    """An echo reply landed at a live site's capture."""

    kind: ClassVar[str] = "probe_reply"

    target: str
    seq: int
    site: str


@_register
@dataclass(frozen=True, slots=True)
class ProbeLost(TraceEvent):
    """An echo went unanswered, with the reason its reply died.

    ``reason`` is one of the forwarding drop reasons (``no-route``,
    ``loop``, ``ttl-exceeded``), ``off-net`` (delivered under someone
    else's covering prefix), ``dead-site`` (delivered to a site that is
    down), or ``unreachable`` (no static path from the vantage at send
    time). The availability ledger folds these into blackhole / loop /
    wrong-site outage classes.
    """

    kind: ClassVar[str] = "probe_lost"

    target: str
    seq: int
    reason: str
    #: the (dead or wrong) site the reply landed at, when it landed
    site: str = ""


@_register
@dataclass(frozen=True, slots=True)
class WorkloadSample(TraceEvent):
    """One engine tick's workload tally.

    The workload engine never traces per-request events -- a 1M-request
    run would dwarf every other event kind combined -- it emits one
    sample per non-empty tick. A sample is everything the tick adds to
    its run's :class:`~repro.workload.engine.WorkloadAccount`: the engine
    books it there (``WorkloadAccount.book``) and the availability
    ledger books the same samples, under the surrounding ``PhaseStart``
    run context, into its per-⟨technique, site⟩ rows. ``user_seconds_lost``
    is ``(blackhole + loop + wrong_site + overload) * think_time_s``,
    computed at the tick so the metric definition lives in one place
    (see docs/workload.md).
    """

    kind: ClassVar[str] = "workload_sample"

    offered: int
    served: int
    blackhole: int = 0
    loop: int = 0
    wrong_site: int = 0
    #: requests dropped at a live site whose serving capacity ran out
    #: (only nonzero when a capacity profile is attached)
    overload: int = 0
    user_seconds_lost: float = 0.0
    #: the overload share of ``user_seconds_lost``
    user_seconds_lost_overload: float = 0.0
    #: requests served per live site (sites that served none are absent)
    served_by_site: dict = field(default_factory=dict)


@_register
@dataclass(frozen=True, slots=True)
class SiteSwitched(TraceEvent):
    """A target's replies moved from one serving site to another."""

    kind: ClassVar[str] = "site_switched"

    target: str
    from_site: str
    to_site: str


@_register
@dataclass(frozen=True, slots=True)
class SiteFailed(TraceEvent):
    """The controller failed a site (the experiment's t=0 for failover)."""

    kind: ClassVar[str] = "site_failed"

    site: str
    silent: bool = False
    #: provenance id of the failure (the root of its chain)
    cause: int = 0


@_register
@dataclass(frozen=True, slots=True)
class SiteOverloaded(TraceEvent):
    """A site's offered load first exceeded its serving capacity.

    Emitted once per site by the workload engine when a tick exhausts
    the site's capacity budget (the overload latch); the controller's
    shedding reaction is scheduled ``detection_delay`` later, exactly
    like :class:`SiteFailed` for outages.
    """

    kind: ClassVar[str] = "site_overloaded"

    site: str
    #: offered request rate observed in the latching tick
    offered_rps: float = 0.0
    #: the site's effective capacity at that instant
    capacity_rps: float = 0.0
    #: provenance id of the overload reaction chain, when known
    cause: int = 0


@_register
@dataclass(frozen=True, slots=True)
class DnsRecordChanged(TraceEvent):
    """The controller changed the authoritative DNS answer pool."""

    kind: ClassVar[str] = "dns_record_changed"

    site: str
    action: str  # "remove" | "restore"
    address: str = ""
    #: provenance id of the root action that triggered the change
    cause: int = 0


@_register
@dataclass(frozen=True, slots=True)
class FaultInjected(TraceEvent):
    """The fault-injection layer fired one scheduled fault."""

    kind: ClassVar[str] = "fault_injected"

    fault: str  # "link-down" | "link-up" | "session-reset" | ...
    target: str  # link ("a<->b") or node the fault acted on
    detail: str = ""
    #: provenance id of the fault (the root of its chain)
    cause: int = 0


@_register
@dataclass(frozen=True, slots=True)
class FaultSkipped(TraceEvent):
    """A scheduled fault found its target in an incompatible state
    (e.g. flapping a link something else already failed) and did
    nothing; skips are traced so a plan that silently no-ops is
    visible."""

    kind: ClassVar[str] = "fault_skipped"

    fault: str
    target: str
    reason: str = ""


@_register
@dataclass(frozen=True, slots=True)
class InvariantViolated(TraceEvent):
    """The runtime invariant checker found an inconsistency."""

    kind: ClassVar[str] = "invariant_violated"

    invariant: str  # "forwarding-loop" | "advertised-sync" | "rib-fib-coherence"
    node: str
    detail: str = ""


@_register
@dataclass(frozen=True, slots=True)
class PhaseStart(TraceEvent):
    kind: ClassVar[str] = "phase_start"

    name: str
    tags: dict = field(default_factory=dict)


@_register
@dataclass(frozen=True, slots=True)
class PhaseEnd(TraceEvent):
    kind: ClassVar[str] = "phase_end"

    name: str
    #: host wall-clock seconds the phase took to execute
    wall_s: float = 0.0
    #: simulated seconds that elapsed inside the phase
    sim_s: float = 0.0
    tags: dict = field(default_factory=dict)


@_register
@dataclass(frozen=True, slots=True)
class CellStart(TraceEvent):
    """A parallel-sweep cell's events begin.

    Worker processes record their own traces; the parent merges them in
    deterministic cell order, bracketing each cell's events between
    ``CellStart`` and ``CellEnd`` so every event in between is
    attributable to the named ⟨technique, site⟩ cell. ``t`` restarts at
    each cell's own engine epoch.
    """

    kind: ClassVar[str] = "cell_start"

    cell: str
    worker: int = -1


@_register
@dataclass(frozen=True, slots=True)
class CellEnd(TraceEvent):
    """A parallel-sweep cell's events end (see :class:`CellStart`)."""

    kind: ClassVar[str] = "cell_end"

    cell: str
    status: str = "ok"
    #: host wall-clock seconds the cell took in its worker
    wall_s: float = 0.0
    #: number of events the cell contributed to the merged trace
    events: int = 0


@dataclass(slots=True)
class Run:
    """One simulation's stretch of a trace (:func:`split_runs`);
    ``technique`` / ``site`` fill in as its phases name them."""

    index: int
    technique: str = ""
    site: str = ""
    last_root: int = 0  # ids are monotone within a network

    @property
    def label(self) -> str:
        return "/".join(part for part in (self.technique, self.site) if part)


def split_runs(events: Iterable[TraceEvent]) -> Iterator[tuple[Run, TraceEvent]]:
    """Pair each event with the run it belongs to.

    A trace holds one run after another (a sweep's baselines and cells,
    a drill's sites), and what numbers itself per network -- cause ids,
    probe sequence numbers -- restarts with each. A new run starts at a
    ``CellStart``, at a ``PhaseStart`` whose ``technique`` or ``site`` tag
    contradicts the run's phases so far (a tag it lacked only completes
    its label), and at a ``RootCause`` whose id does not exceed the run's
    last one.
    """
    run = Run(0)
    for event in events:
        if isinstance(event, CellStart):
            run = Run(run.index + 1)
        elif isinstance(event, PhaseStart):
            technique = str(event.tags.get("technique", ""))
            site = str(event.tags.get("site", ""))
            if (technique and run.technique not in ("", technique)) or (
                site and run.site not in ("", site)
            ):
                run = Run(run.index + 1)
            run.technique = technique or run.technique
            run.site = site or run.site
        elif isinstance(event, RootCause):
            if event.cause <= run.last_root:
                run = Run(run.index + 1)
            run.last_root = event.cause
        yield run, event


@_register
@dataclass(frozen=True, slots=True)
class TraceMeta(TraceEvent):
    """Recorder bookkeeping written as the first line of a JSONL trace
    whose ring buffer evicted events: ``recorded`` counts everything the
    run emitted, ``dropped`` how many of those the file is missing. A
    trace without this line is complete."""

    kind: ClassVar[str] = "trace_meta"

    recorded: int = 0
    dropped: int = 0


def event_from_dict(data: dict) -> TraceEvent:
    """Rebuild a typed event from its JSONL dictionary; a record that is
    not an object of a known ``kind`` with every field that has no
    default is a ``ValueError`` (present fields' types are not checked)."""
    if not isinstance(data, dict):
        raise ValueError(f"a trace event must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    names = {f.name for f in fields(cls)}
    try:
        return cls(**{key: value for key, value in data.items() if key in names})
    except TypeError as error:  # a field without a default is missing
        raise ValueError(f"{kind} event: {error}") from error


class TraceRecorder:
    """Collects trace events, optionally in a bounded ring buffer.

    ``capacity=None`` keeps everything; a positive capacity keeps only
    the newest ``capacity`` events and counts the evicted ones in
    :attr:`dropped`.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        #: total events ever recorded (including evicted ones)
        self.recorded = 0

    def record(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.recorded += 1

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer."""
        return self.recorded - len(self._events)

    def events_of(self, cls: Type[E]) -> list[E]:
        return [e for e in self._events if isinstance(e, cls)]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    # ------------------------------------------------------------------
    # JSONL persistence

    def write_jsonl(self, path: str | Path) -> int:
        """Write one JSON object per event; returns the line count.

        When the ring buffer evicted events, a :class:`TraceMeta` line
        is prepended carrying the recorded/dropped totals, so a bounded
        trace is never silently incomplete. Complete traces carry no
        meta line and round-trip to exactly :attr:`events`.
        """
        if self.dropped:
            meta = TraceMeta(t=0.0, recorded=self.recorded, dropped=self.dropped)
            return write_jsonl(path, [meta, *self._events])
        return write_jsonl(path, self._events)


def write_jsonl(path: str | Path, events: Iterable[TraceEvent]) -> int:
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    """Parse a JSONL trace back into typed events (blank lines skipped);
    a line that is not one is a ``ValueError`` naming ``path:line``."""
    events: list[TraceEvent] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                events.append(event_from_dict(data))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_no}: invalid JSON") from error
            except ValueError as error:
                raise ValueError(f"{path}:{line_no}: {error}") from error
    return events
