"""Route flap damping (RFC 2439).

Path hunting makes a withdrawn prefix *flap* at downstream routers:
each exploration step replaces or withdraws the route again. Routers
that deploy flap damping accumulate a penalty per flap and suppress the
route once the penalty crosses a threshold, releasing it only after
exponential decay brings the penalty back under the reuse level.

Damping is the classic explanation for the extreme tail of withdrawal
convergence (and for prolonged unreachability after a flapping episode);
the simulator supports it as an opt-in per-router feature so its effect
on the paper's Figure 3 distribution can be measured
(``benchmarks/test_bench_damping.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.fields import Field, violations
from repro.net.addr import IPv4Prefix
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import FlapDamped

if TYPE_CHECKING:
    from repro.bgp.engine import EventEngine


#: the rows of :class:`DampingConfig` (the ``damping`` object of a
#: world document); construction refuses a bad value. Penalties are pure
#: numbers and ``half_life`` is seconds: the one band keeps every ratio
#: the decay and the verifier take (threshold / per-flap penalty,
#: ceiling / reuse) a finite, non-zero float.
_BAND = {"lo": 1e-6, "hi": 1e12}
DAMPING_FIELDS = (
    Field("penalty_per_flap", **_BAND),
    Field("suppress_threshold", **_BAND),
    Field("reuse_threshold", **_BAND),
    Field("half_life", **_BAND),
    Field("max_penalty", **_BAND),
)


@dataclass(frozen=True, slots=True)
class DampingConfig:
    """RFC 2439-style parameters (Cisco-like defaults, in simulated s)."""

    penalty_per_flap: float = 1000.0
    suppress_threshold: float = 2000.0
    reuse_threshold: float = 750.0
    #: penalty half-life, seconds
    half_life: float = 900.0
    #: ceiling on accumulated penalty (bounds suppression time)
    max_penalty: float = 12000.0

    def __post_init__(self) -> None:
        for _, message in violations(DAMPING_FIELDS, self):
            raise ValueError(message)
        if self.reuse_threshold >= self.suppress_threshold:
            raise ValueError("reuse_threshold must be below suppress_threshold")


@dataclass(slots=True)
class _FlapState:
    penalty: float = 0.0
    updated_at: float = 0.0
    suppressed: bool = False
    #: release-callback generation. Each scheduled release captures the
    #: generation current at scheduling time; a callback whose captured
    #: generation no longer matches is stale (a newer release supersedes
    #: it, or the state was released and re-suppressed in between) and
    #: returns immediately instead of acting on state it no longer owns.
    generation: int = 0


class RouteDamping:
    """Per-router damping state across (prefix, neighbor) pairs.

    ``on_release`` is called (with the prefix) when a suppressed route
    becomes reusable, so the router can rerun its decision process.
    """

    def __init__(
        self,
        engine: "EventEngine",
        config: DampingConfig,
        on_release: Callable[[IPv4Prefix], None],
        owner: str = "",
    ) -> None:
        self.engine = engine
        self.config = config
        self.on_release = on_release
        #: node id of the router this damping state belongs to (telemetry)
        self.owner = owner
        self._telemetry = telemetry_registry.current()
        self._state: dict[tuple[IPv4Prefix, str], _FlapState] = {}
        #: per-prefix index of currently suppressed neighbors, kept in
        #: sync with the ``suppressed`` flags in ``_state`` so the
        #: per-reselect ``suppressed_neighbors`` query is O(1) instead of
        #: a scan over every (prefix, neighbor) pair ever flapped.
        self._suppressed: dict[IPv4Prefix, set[str]] = {}
        #: flaps recorded (diagnostics)
        self.flaps = 0
        #: suppression episodes started (diagnostics)
        self.suppressions = 0

    # ------------------------------------------------------------------

    def _decayed_penalty(self, state: _FlapState, now: float) -> float:
        elapsed = max(0.0, now - state.updated_at)
        return state.penalty * math.pow(2.0, -elapsed / self.config.half_life)

    def record_flap(self, prefix: IPv4Prefix, neighbor: str) -> None:
        """Charge one flap to (prefix, neighbor) and maybe suppress."""
        now = self.engine.now
        state = self._state.setdefault((prefix, neighbor), _FlapState())
        penalty = self._decayed_penalty(state, now) + self.config.penalty_per_flap
        state.penalty = min(penalty, self.config.max_penalty)
        state.updated_at = now
        self.flaps += 1
        if not state.suppressed and state.penalty >= self.config.suppress_threshold:
            state.suppressed = True
            self._suppressed.setdefault(prefix, set()).add(neighbor)
            self.suppressions += 1
            telemetry = self._telemetry
            if telemetry.enabled:
                telemetry.inc("bgp.flaps_damped")
                telemetry.emit(
                    FlapDamped(
                        t=now,
                        node=self.owner,
                        prefix=str(prefix),
                        neighbor=neighbor,
                        penalty=state.penalty,
                    )
                )
            self._schedule_release(prefix, neighbor, state)

    def _schedule_release(
        self, prefix: IPv4Prefix, neighbor: str, state: _FlapState
    ) -> None:
        # Time until the penalty decays to the reuse threshold, measured
        # from the *decayed* penalty (state.penalty is as of updated_at,
        # which may be long past; using it raw overshoots the release).
        current = self._decayed_penalty(state, self.engine.now)
        ratio = current / self.config.reuse_threshold
        delay = self.config.half_life * math.log2(max(ratio, 1.0))
        state.generation += 1
        generation = state.generation
        self.engine.schedule(
            delay + 1e-6, lambda: self._maybe_release(prefix, neighbor, generation)
        )

    def _maybe_release(self, prefix: IPv4Prefix, neighbor: str, generation: int) -> None:
        state = self._state.get((prefix, neighbor))
        if state is None or state.generation != generation or not state.suppressed:
            return  # stale callback: a newer release owns this state
        now = self.engine.now
        penalty = self._decayed_penalty(state, now)
        if penalty <= self.config.reuse_threshold:
            state.penalty = penalty
            state.updated_at = now
            state.suppressed = False
            remaining = self._suppressed.get(prefix)
            if remaining is not None:
                remaining.discard(neighbor)
                if not remaining:
                    del self._suppressed[prefix]
            self.on_release(prefix)
        else:
            # More flaps arrived while suppressed; wait out the new decay.
            self._schedule_release(prefix, neighbor, state)

    # ------------------------------------------------------------------

    def is_suppressed(self, prefix: IPv4Prefix, neighbor: str) -> bool:
        state = self._state.get((prefix, neighbor))
        return state is not None and state.suppressed

    def suppressed_neighbors(self, prefix: IPv4Prefix) -> set[str]:
        """Neighbors whose routes for ``prefix`` are currently unusable.

        Served from the per-prefix index (O(suppressed entries for this
        prefix)); every ``_reselect`` asks, so scanning the full flap
        state here was the damped sweep's hot spot.
        """
        suppressed = self._suppressed.get(prefix)
        return set(suppressed) if suppressed else set()

    def penalty(self, prefix: IPv4Prefix, neighbor: str) -> float:
        """Current (decayed) penalty, for tests and diagnostics."""
        state = self._state.get((prefix, neighbor))
        if state is None:
            return 0.0
        return self._decayed_penalty(state, self.engine.now)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.checkpoint)

    def export_state(self) -> list[tuple[IPv4Prefix, str, float, float, bool, int]]:
        """Plain-data flap state, sorted for deterministic snapshots."""
        return sorted(
            (prefix, neighbor, s.penalty, s.updated_at, s.suppressed, s.generation)
            for (prefix, neighbor), s in self._state.items()
        )

    def import_state(
        self,
        entries: list[tuple[IPv4Prefix, str, float, float, bool, int]],
        flaps: int,
        suppressions: int,
    ) -> None:
        """Rebuild flap state from :meth:`export_state` output.

        Suppressed entries re-arm their release timers (a live network
        always has one scheduled per suppression; the snapshot dropped
        it along with the rest of the event queue).
        """
        self._state = {}
        self._suppressed = {}
        for prefix, neighbor, penalty, updated_at, suppressed, generation in entries:
            state = _FlapState(
                penalty=penalty,
                updated_at=updated_at,
                suppressed=suppressed,
                generation=generation,
            )
            self._state[(prefix, neighbor)] = state
            if suppressed:
                self._suppressed.setdefault(prefix, set()).add(neighbor)
                self._schedule_release(prefix, neighbor, state)
        self.flaps = flaps
        self.suppressions = suppressions
