"""Causal-chain reconstruction from a recorded trace.

Every root action in a run -- a scenario event, a fired fault, a
controller failure reaction, a direct announce/withdraw -- allocates a
monotone ``cause`` id (:meth:`repro.bgp.network.BgpNetwork.new_cause`)
and emits a :class:`~repro.telemetry.trace.RootCause` event. The id is
threaded through every BGP message the action generates, the route
re-selections those messages trigger (including after a session reset:
the reopened session's full-table resync carries the reset's cause),
the FIB installs that follow, and the DNS record changes the controller
makes. This module groups a trace back into those chains and answers
"why is traffic for prefix P at site S?".

Catchment shifts (:class:`~repro.telemetry.trace.SiteSwitched`) happen
in the data plane, where replies are routed by whatever FIB state they
meet hop by hop -- there is no single causal message to carry an id. A
shift is therefore attributed *temporally*: to the most recent cause
that changed a FIB before the shift was observed. This matches operator
reasoning ("the catchment moved after that withdrawal converged") and is
exact whenever root actions do not overlap in time.

Pure functions over event lists: no engine, no network, reusable from
tests and the CLI alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.trace import (
    BgpUpdateSent,
    DnsRecordChanged,
    FaultInjected,
    FibInstalled,
    RootCause,
    RouteSelected,
    Run,
    SiteFailed,
    SiteSwitched,
    TraceEvent,
    split_runs,
)

#: canonical step order of a failover chain, used for rendering
_STEP_ORDER = (
    "root",
    "fault",
    "site-failed",
    "withdrawal",
    "announcement",
    "reselect",
    "fib-install",
    "dns-update",
    "catchment-shift",
)


@dataclass(slots=True)
class CauseChain:
    """Everything one root action caused, in trace order."""

    cause: int
    #: the run whose network allocated the id (ids restart per network)
    run: Run
    root: RootCause | None = None
    events: list[TraceEvent] = field(default_factory=list)
    #: catchment shifts attributed to this cause (temporal attribution)
    shifts: list[SiteSwitched] = field(default_factory=list)

    @property
    def t(self) -> float:
        if self.root is not None:
            return self.root.t
        return self.events[0].t if self.events else 0.0

    def prefixes(self) -> set[str]:
        return {
            e.prefix for e in self.events if isinstance(e, (BgpUpdateSent, RouteSelected, FibInstalled))
        }

    def sites(self) -> set[str]:
        """Sites this chain touches (root target, failures, DNS, shifts).

        A root targeting a link ("a<->b") matches on either endpoint,
        and a "site:X" node name also matches its bare site name, so
        ``repro explain --site sea1`` finds faults on sea1's sessions.
        """
        sites: set[str] = set()
        if self.root is not None:
            sites.add(self.root.target)
            for part in self.root.target.split("<->"):
                sites.add(part)
                if part.startswith("site:"):
                    sites.add(part[len("site:"):])
        for event in self.events:
            if isinstance(event, (SiteFailed, DnsRecordChanged)):
                sites.add(event.site)
        for shift in self.shifts:
            sites.add(shift.from_site)
            sites.add(shift.to_site)
        return sites

    def steps(self) -> list[str]:
        """The chain's step tokens, in canonical pipeline order."""
        present = set()
        if self.root is not None:
            present.add("root")
        for event in self.events:
            if isinstance(event, FaultInjected):
                present.add("fault")
            elif isinstance(event, SiteFailed):
                present.add("site-failed")
            elif isinstance(event, BgpUpdateSent):
                present.add("withdrawal" if event.update == "withdraw" else "announcement")
            elif isinstance(event, RouteSelected):
                present.add("reselect")
            elif isinstance(event, FibInstalled):
                present.add("fib-install")
            elif isinstance(event, DnsRecordChanged):
                present.add("dns-update")
        if self.shifts:
            present.add("catchment-shift")
        return [step for step in _STEP_ORDER if step in present]


def build_chains(events: list[TraceEvent]) -> dict[tuple[int, int], CauseChain]:
    """Group a trace into per-cause chains, keyed by <run index, cause id>.

    Only nonzero causes form chains; cause 0 marks uncaused background
    activity (e.g. damping releases). Cause ids restart with every
    network, so an id names a chain only within its run
    (:func:`repro.telemetry.trace.split_runs`: the rule the availability
    ledger reads its run context by); a catchment shift is attributed to
    the last FIB change of its own run.
    """
    chains: dict[tuple[int, int], CauseChain] = {}

    def chain_for(run: Run, cause: int) -> CauseChain:
        chain = chains.get((run.index, cause))
        if chain is None:
            chain = chains[run.index, cause] = CauseChain(cause=cause, run=run)
        return chain

    last_fib: tuple[Run, int] | None = None
    for run, event in split_runs(events):
        if isinstance(event, RootCause):
            chain_for(run, event.cause).root = event
            continue
        if isinstance(event, SiteSwitched):
            if last_fib is not None and last_fib[0] is run:
                chain_for(*last_fib).shifts.append(event)
            continue
        cause = getattr(event, "cause", 0)
        if not cause:
            continue
        chain_for(run, cause).events.append(event)
        if isinstance(event, FibInstalled):
            last_fib = (run, cause)
    return chains


def explain(
    events: list[TraceEvent],
    prefix: str | None = None,
    site: str | None = None,
) -> list[CauseChain]:
    """Chains matching the filters, in <run, cause> order.

    ``prefix`` keeps chains that moved that prefix (updates, selections,
    or FIB installs naming it); ``site`` keeps chains rooted at, failing,
    or shifting catchment to/from that site. Both filters AND together.
    """
    chains = [chain for _, chain in sorted(build_chains(events).items())]
    if prefix is not None:
        chains = [c for c in chains if prefix in c.prefixes()]
    if site is not None:
        chains = [c for c in chains if site in c.sites()]
    return chains


# ----------------------------------------------------------------------
# Rendering


def _summarize_group(chain: CauseChain) -> list[str]:
    """One line per event class in the chain, aggregated."""
    lines: list[str] = []
    for event in chain.events:
        if isinstance(event, SiteFailed):
            silent = " (silent)" if event.silent else ""
            lines.append(f"  t={event.t:9.2f}s  site {event.site} failed{silent}")
        elif isinstance(event, FaultInjected):
            detail = f" [{event.detail}]" if event.detail else ""
            lines.append(
                f"  t={event.t:9.2f}s  fault {event.fault} on {event.target}{detail}"
            )
        elif isinstance(event, DnsRecordChanged):
            lines.append(f"  t={event.t:9.2f}s  dns {event.action} {event.site}")

    def aggregate(kind_events, label, describe):
        if not kind_events:
            return
        first = kind_events[0]
        last = kind_events[-1]
        span = (
            f"t={first.t:9.2f}s"
            if len(kind_events) == 1
            else f"t={first.t:9.2f}s..{last.t:.2f}s"
        )
        lines.append(f"  {span}  {len(kind_events)} {label} (first: {describe(first)})")

    aggregate(
        [e for e in chain.events if isinstance(e, BgpUpdateSent) and e.update == "withdraw"],
        "withdrawal(s) on the wire",
        lambda e: f"{e.sender} -> {e.receiver} {e.prefix}",
    )
    aggregate(
        [e for e in chain.events if isinstance(e, BgpUpdateSent) and e.update == "announce"],
        "announcement(s) on the wire",
        lambda e: f"{e.sender} -> {e.receiver} {e.prefix}",
    )
    aggregate(
        [e for e in chain.events if isinstance(e, RouteSelected)],
        "route re-selection(s)",
        lambda e: f"{e.node} via {e.via if e.via is not None else '(none)'}",
    )
    aggregate(
        [e for e in chain.events if isinstance(e, FibInstalled)],
        "FIB install(s)",
        lambda e: f"{e.node} -> {e.next_hop if e.next_hop is not None else '(removed)'}",
    )
    aggregate(
        chain.shifts,
        "catchment shift(s)",
        lambda e: f"{e.target} {e.from_site} -> {e.to_site}",
    )
    return lines


def render_explanation(
    chains: list[CauseChain],
    prefix: str | None = None,
    site: str | None = None,
) -> str:
    """Format chains as the ``repro explain`` report. Chains of a trace
    that holds several runs name theirs: ``cause 3 of anycast/sea1``."""
    scope = []
    if prefix is not None:
        scope.append(f"prefix {prefix}")
    if site is not None:
        scope.append(f"site {site}")
    header = f"{len(chains)} causal chain(s)" + (
        f" for {', '.join(scope)}" if scope else ""
    )
    lines = [header]
    several_runs = len({chain.run.index for chain in chains}) > 1
    for chain in chains:
        lines.append("")
        name = f"cause {chain.cause}"
        if several_runs:
            name += f" of {chain.run.label or 'run ' + str(chain.run.index)}"
        if chain.root is not None:
            detail = f" [{chain.root.detail}]" if chain.root.detail else ""
            lines.append(
                f"{name}: {chain.root.action} {chain.root.target}"
                f"{detail} @ t={chain.root.t:.2f}s"
            )
        else:
            lines.append(f"{name}: (root event not in trace)")
        lines.append("  chain: " + " -> ".join(chain.steps()))
        lines.extend(_summarize_group(chain))
    return "\n".join(lines)
