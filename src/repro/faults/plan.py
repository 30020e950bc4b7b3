"""The run's timeline: timed actions on the one simulated clock.

Everything scheduled onto a run is an :class:`Action` -- an *edge*
``<at, action, target, params>`` over one vocabulary (:data:`ACTIONS`).
The two ways to write a timeline both build actions through that one
constructor, which owns the kind and time rule:

* a :class:`FaultPlan` is a list of *interval* faults -- link flaps,
  session resets, per-link message loss/duplication, delayed FIB
  downloads, partial site failures, capacity brownouts -- expressed as
  plain data so a plan can live in a JSON file, travel across the
  parallel sweep's process boundary unchanged, and inject
  byte-identically into every run that shares a seed; each fault
  expands into its start/end edges (:meth:`FaultSpec.actions`);
* a scenario's ``-e KIND:SITE@TIME`` event is one site action.

:func:`timeline` merges them into the ordered tuple the scheduler
(:class:`~repro.faults.injector.FaultInjector`) fires and the pre-run
gate checks (see ``docs/faults.md`` for the schema, the action table
and the determinism guarantees).

Times are *relative to arming*: the injector schedules every action as
a delay from the simulated instant :meth:`FaultInjector.arm` is called
(the run rig arms right after its initial convergence), so one plan is
meaningful across experiments whose absolute clocks differ.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import ClassVar, Type, Union

from repro.fields import Field, read, violations

#: the timeline's vocabulary (the names the trace uses): action -> what
#: its target names (a ``a<->b`` link, a topology node, a CDN site)
ACTIONS = {
    "link-down": "link", "link-up": "link", "session-reset": "link",
    "message-loss-start": "link", "message-loss-end": "link",
    "fib-delay-start": "node", "fib-delay-end": "node",
    "partial-site-down": "node", "partial-site-up": "node",
    "brownout-start": "site", "brownout-end": "site",
    "fail": "site", "fail-silent": "site", "recover": "site",
    "drain": "site", "undrain": "site",
}

#: the ``-e`` spellings that are sugar for an action
SUGAR = {"brownout": "brownout-start", "unbrownout": "brownout-end"}
_SPELLING = {action: sugar for sugar, action in SUGAR.items()}


def link_target(a: str, b: str) -> str:
    """How an action names the ``a <-> b`` adjacency (the trace's form)."""
    return f"{a}<->{b}"


def link_ends(target: str) -> tuple[str, str]:
    """The two ends a :func:`link_target` names."""
    a, _, b = target.partition("<->")
    return a, b


@dataclass(frozen=True, slots=True)
class Action:
    """One edge of the timeline: ``action`` happens to ``target``,
    ``at`` seconds after arming.

    ``brownout-start`` scales a site's serving capacity down to
    ``params["factor"]`` of its configured value (the site keeps
    routing, just serves less); ``brownout-end`` restores it and clears
    any shed the overload latched. Both need a bound capacity model to
    have any effect.
    """

    at: float
    action: str  # one of ACTIONS (or its SUGAR spelling)
    target: str
    params: Mapping[str, float] = field(default_factory=dict)
    #: the entry this edge belongs to, as findings name it
    origin: str = ""

    def __post_init__(self) -> None:
        action = SUGAR.get(self.action, self.action)
        if action not in ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r}; have {', '.join([*ACTIONS, *SUGAR])}"
            )
        if not 0 <= self.at < math.inf:
            raise ValueError(f"time must be finite and non-negative, got {self.at}")
        if not 0.0 <= self.params.get("factor", 0.0) < 1.0:
            raise ValueError(
                f"factor must be in [0, 1) -- a blackout is a fail event, "
                f"not a brownout -- got {self.params['factor']}"
            )
        object.__setattr__(self, "action", action)
        if not self.origin:
            object.__setattr__(
                self, "origin",
                f"scenario event ({self.spelling}:{self.target}@{self.at:g})",
            )

    @property
    def spelling(self) -> str:
        """The action as ``-e`` spells it."""
        return _SPELLING.get(self.action, self.action)


#: kind string -> fault dataclass, populated by ``_register``
FAULT_KINDS: dict[str, Type["FaultSpec"]] = {}


def _register(cls):
    FAULT_KINDS[cls.kind] = cls
    return cls


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Base interval fault: ``at`` is seconds after the injector arms."""

    kind: ClassVar[str] = "fault"
    #: one row per constructor argument, which is one per JSON key
    FIELDS: ClassVar[tuple[Field, ...]] = (Field("at", lo=0, required=True),)

    at: float

    def __post_init__(self) -> None:
        for row in self.FIELDS:
            if row.kind is str and not getattr(self, row.name):
                raise ValueError(f"{self.kind} needs {row.name!r}")
        for _, message in violations(self.FIELDS, self):
            raise ValueError(message)
        # Building the edges puts every one of them -- the start and the
        # end(s) -- through the Action constructor's kind and time rule.
        for _ in self.actions():
            pass

    def actions(self) -> Iterator[Action]:
        """The fault's edges, in the order they are scheduled."""
        return iter(())

    def to_dict(self) -> dict:
        data = asdict(self)
        data["kind"] = self.kind
        return data


_LINK_ENDS = (Field("a", str, required=True), Field("b", str, required=True))


@_register
@dataclass(frozen=True, slots=True)
class LinkFlap(FaultSpec):
    """Take the ``a <-> b`` adjacency down for ``down_for`` seconds,
    ``repeat`` times, one flap every ``period`` seconds."""

    kind: ClassVar[str] = "link_flap"
    FIELDS = (
        *FaultSpec.FIELDS, *_LINK_ENDS, Field("down_for", lo=0, lo_open=True),
        Field("repeat", int, lo=1), Field("period"),
    )

    a: str = ""
    b: str = ""
    down_for: float = 10.0
    repeat: int = 1
    period: float = 0.0

    def __post_init__(self) -> None:
        FaultSpec.__post_init__(self)
        if self.repeat > 1 and self.period <= self.down_for:
            raise ValueError(
                f"period ({self.period}) must exceed down_for ({self.down_for}) "
                "when repeating, or flaps would overlap"
            )

    def actions(self) -> Iterator[Action]:
        link = link_target(self.a, self.b)
        for occurrence in range(self.repeat):
            start = self.at + occurrence * self.period
            yield Action(start, "link-down", link)
            yield Action(start + self.down_for, "link-up", link)


@_register
@dataclass(frozen=True, slots=True)
class SessionReset(FaultSpec):
    """Bounce the BGP session between ``a`` and ``b``: in-flight
    messages die, both Adj-RIB-Ins flush, then the session reopens and
    each side re-advertises its Loc-RIB (full re-establishment)."""

    kind: ClassVar[str] = "session_reset"
    FIELDS = (*FaultSpec.FIELDS, *_LINK_ENDS)

    a: str = ""
    b: str = ""

    def actions(self) -> Iterator[Action]:
        yield Action(self.at, "session-reset", link_target(self.a, self.b))


@_register
@dataclass(frozen=True, slots=True)
class MessageLoss(FaultSpec):
    """For ``duration`` seconds, each message delivered on the
    ``a <-> b`` link is independently lost with ``loss_prob`` and
    duplicated with ``dup_prob``.

    Lost updates leave the two ends genuinely inconsistent (real BGP
    rides TCP and cannot lose individual updates while the session
    lives) -- follow a loss window with a :class:`SessionReset` to model
    the hold-timer expiry that restores coherence, or expect the
    ``advertised-sync`` invariant to flag the divergence.
    """

    kind: ClassVar[str] = "message_loss"
    FIELDS = (
        *FaultSpec.FIELDS, *_LINK_ENDS, Field("duration", lo=0, lo_open=True),
        Field("loss_prob", lo=0, hi=1), Field("dup_prob", lo=0, hi=1),
    )

    a: str = ""
    b: str = ""
    duration: float = 30.0
    loss_prob: float = 0.0
    dup_prob: float = 0.0

    def __post_init__(self) -> None:
        FaultSpec.__post_init__(self)
        if self.loss_prob == 0.0 and self.dup_prob == 0.0:
            raise ValueError("message_loss with zero probabilities does nothing")

    def actions(self) -> Iterator[Action]:
        link = link_target(self.a, self.b)
        odds = {"loss_prob": self.loss_prob, "dup_prob": self.dup_prob}
        yield Action(self.at, "message-loss-start", link, odds)
        yield Action(self.at + self.duration, "message-loss-end", link)


@_register
@dataclass(frozen=True, slots=True)
class FibDelay(FaultSpec):
    """For ``duration`` seconds, every RIB->FIB download at ``node``
    takes ``extra_delay`` additional seconds (an overloaded line card /
    slow BGP speaker)."""

    kind: ClassVar[str] = "fib_delay"
    FIELDS = (
        *FaultSpec.FIELDS, Field("node", str, required=True),
        Field("duration", lo=0, lo_open=True), Field("extra_delay", lo=0, lo_open=True),
    )

    node: str = ""
    duration: float = 30.0
    extra_delay: float = 5.0

    def actions(self) -> Iterator[Action]:
        extra = {"extra_delay": self.extra_delay}
        yield Action(self.at, "fib-delay-start", self.node, extra)
        yield Action(self.at + self.duration, "fib-delay-end", self.node)


@_register
@dataclass(frozen=True, slots=True)
class PartialSiteFailure(FaultSpec):
    """Fail a ``fraction`` of ``node``'s adjacencies for ``down_for``
    seconds (losing some but not all of a site's transit/peering --
    the partial failures §4's clean site-withdrawal model skips).

    The subset is chosen deterministically from the plan seed over the
    node's sorted neighbor list at fire time.
    """

    kind: ClassVar[str] = "partial_site_failure"
    FIELDS = (
        *FaultSpec.FIELDS, Field("node", str, required=True),
        Field("fraction", lo=0, hi=1, lo_open=True, hi_open=True,
              why="use link_flap for a total failure"),
        Field("down_for", lo=0, lo_open=True),
    )

    node: str = ""
    fraction: float = 0.5
    down_for: float = 30.0

    def actions(self) -> Iterator[Action]:
        share = {"fraction": self.fraction}
        yield Action(self.at, "partial-site-down", self.node, share)
        yield Action(self.at + self.down_for, "partial-site-up", self.node)


@_register
@dataclass(frozen=True, slots=True)
class Brownout(FaultSpec):
    """Scale ``site``'s serving capacity to ``factor`` of configured for
    ``down_for`` seconds (a cooling failure, a rack offline: the site
    keeps routing but serves less).

    Requires the run to carry a capacity profile; the injector skips the
    fault (traced as such) when no capacity model is armed.
    """

    kind: ClassVar[str] = "brownout"
    FIELDS = (
        *FaultSpec.FIELDS, Field("site", str, required=True),
        Field("factor", lo=0, hi=1, hi_open=True,
              why="a blackout is a fail event, not a brownout"),
        Field("down_for", lo=0, lo_open=True),
    )

    site: str = ""
    factor: float = 0.5
    down_for: float = 60.0

    def actions(self) -> Iterator[Action]:
        yield Action(self.at, "brownout-start", self.site, {"factor": self.factor})
        yield Action(self.at + self.down_for, "brownout-end", self.site)


#: the rows of a plan document; an entry's ``kind`` picks its class's rows
PLAN_FIELDS = (
    Field("seed", int),
    Field("faults", [{kind: fault.FIELDS for kind, fault in FAULT_KINDS.items()}]),
)

Fault = Union[
    LinkFlap, SessionReset, MessageLoss, FibDelay, PartialSiteFailure, Brownout
]


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An ordered fault timeline plus the seed for its own randomness.

    The plan's seed drives only fault-side choices (which links a
    partial failure picks); the network's RNG is never reseeded, so a
    run with an armed-but-empty plan is byte-identical to a run with no
    plan at all.
    """

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def __len__(self) -> int:
        return len(self.faults)

    def actions(self) -> tuple[Action, ...]:
        """Every fault's edges in plan order, labelled with their entry."""
        return tuple(
            replace(edge, origin=f"faults[{index}] ({fault.kind})")
            for index, fault in enumerate(self.faults)
            for edge in fault.actions()
        )

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        parsed = read(PLAN_FIELDS, data)
        faults = []
        for index, entry in enumerate(parsed.get("faults", ())):
            kind = entry.pop("kind")
            try:
                faults.append(FAULT_KINDS[kind](**entry))
            except ValueError as error:
                raise ValueError(f"faults[{index}] ({kind}): {error}") from error
        return cls(faults=tuple(faults), seed=parsed.get("seed", 0))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def timeline(
    plan: FaultPlan | None, events: Iterable[Action] = ()
) -> tuple[Action, ...] | None:
    """The run's one schedule: the plan's edges in plan order, then the
    scripted events by time -- the order the scheduler queues them, so
    the order the engine breaks same-instant ties in. None when the run
    has neither a plan nor events (an empty plan is an empty timeline).
    """
    if plan is None and not events:
        return None
    return (*(plan.actions() if plan else ()), *sorted(events, key=lambda e: e.at))


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read a fault plan from a JSON file (see ``docs/faults.md``)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return FaultPlan.from_json(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: invalid JSON: {error}") from error
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from error
