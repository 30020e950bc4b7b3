"""The VER2xx check catalogue.

Every static-verifier rule has a stable code, a kebab-case name, a
one-line summary, and a default severity — the same shape as the
linter's DET registry, so ``repro verify --list-checks`` and
``--select``/``--ignore`` work the way ``repro lint`` users expect.

Codes group by analysis:

* VER20x — Gao-Rexford safety over the relationship graph
* VER21x — convergence: dispute wheels, prepending, damping
* VER22x — symbolic announcement propagation / catchment
* VER23x — fault-plan vacuity
* VER24x — site capacity under the symbolic catchment

Checks marked ``strict_only`` report *lost control opportunity* rather
than outright misconfiguration; they stay silent unless the world (or
``repro verify --strict``) opts in, because the paper's own testbed
deliberately ships configurations where prepending cannot steer every
client (Table 1's sea1 6%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.findings import Finding, Severity, resolve_codes_in


@dataclass(frozen=True, slots=True)
class VerifyCheck:
    """Descriptor for one VER rule."""

    code: str
    name: str
    summary: str
    severity: Severity = Severity.ERROR
    #: only reported under the strict profile (see module docstring)
    strict_only: bool = False

    def finding(self, message: str, source: str) -> Finding:
        return Finding(
            code=self.code, message=message,
            severity=self.severity, source=source,
        )


def sample(names: list[str], limit: int = 6) -> str:
    """The first ``limit`` names of a finding's message, and how many more."""
    shown = ", ".join(names[:limit])
    if len(names) > limit:
        shown += f", ... ({len(names) - limit} more)"
    return shown


#: registry of check code -> descriptor, in catalogue order
CHECKS: dict[str, VerifyCheck] = {}


def _register(check: VerifyCheck) -> VerifyCheck:
    if check.code in CHECKS:
        raise ValueError(f"duplicate verify check code {check.code!r}")
    CHECKS[check.code] = check
    return check


# ----------------------------------------------------------------------
# VER20x — Gao-Rexford safety

GAO_CYCLE = _register(VerifyCheck(
    code="VER201", name="gao-cycle",
    summary="provider-customer cycle breaks the customer-cone hierarchy",
))

CORE_PARTITION = _register(VerifyCheck(
    code="VER202", name="core-partition",
    summary="provider-free core ASes are not connected by peering",
))

CLIENT_UNREACHABLE = _register(VerifyCheck(
    code="VER203", name="client-unreachable",
    summary="web-client AS no valley-free path from any CDN site can reach",
    severity=Severity.WARNING,
))

# ----------------------------------------------------------------------
# VER21x — convergence

DISPUTE_WHEEL = _register(VerifyCheck(
    code="VER211", name="dispute-wheel",
    summary="preference/export policies admit persistent BGP oscillation",
))

PREPEND_INEFFECTIVE = _register(VerifyCheck(
    code="VER212", name="prepend-ineffective",
    summary="prepend depth too short to flip path-length-decided clients",
    severity=Severity.WARNING, strict_only=True,
))

DAMPING_STARVATION = _register(VerifyCheck(
    code="VER213", name="damping-starvation",
    summary="damping parameters can suppress reconvergence past the run",
    severity=Severity.WARNING,
))

# ----------------------------------------------------------------------
# VER22x — announcement plans / catchment

DEAD_PREFIX = _register(VerifyCheck(
    code="VER221", name="dead-prefix",
    summary="planned prefix announcement reaches zero web-client ASes",
))

SUPERPREFIX_MISMATCH = _register(VerifyCheck(
    code="VER222", name="superprefix-mismatch",
    summary="superprefix does not strictly cover the specific prefix",
))

AMBIGUOUS_CATCHMENT = _register(VerifyCheck(
    code="VER223", name="ambiguous-catchment",
    summary="client's site choice rests on the arbitrary final tie-break",
    severity=Severity.WARNING, strict_only=True,
))

SITE_DARK = _register(VerifyCheck(
    code="VER224", name="site-dark",
    summary="site's announcements reach no client under any planned prefix",
    severity=Severity.WARNING,
))

# ----------------------------------------------------------------------
# VER23x — fault-plan vacuity

FAULT_UNKNOWN_TARGET = _register(VerifyCheck(
    code="VER231", name="fault-unknown-target",
    summary="fault plan references a link or node the world does not have",
))

FAULT_VACUOUS = _register(VerifyCheck(
    code="VER232", name="fault-vacuous",
    summary="fault cannot affect forwarding toward any planned prefix",
    severity=Severity.WARNING,
))

PLAN_VACUOUS = _register(VerifyCheck(
    code="VER233", name="plan-vacuous",
    summary="fault plan or invariant window is provably without effect",
    severity=Severity.WARNING,
))

# ----------------------------------------------------------------------
# VER24x — site capacity

SITE_OVER_CAPACITY = _register(VerifyCheck(
    code="VER241", name="site-over-capacity",
    summary="technique's symbolic catchment exceeds a site's capacity at peak",
    severity=Severity.WARNING,
))

CAPACITY_UNKNOWN_SITE = _register(VerifyCheck(
    code="VER242", name="capacity-unknown-site",
    summary="capacity profile names a site the world does not deploy",
))

CAPACITY_VACUOUS = _register(VerifyCheck(
    code="VER243", name="capacity-vacuous",
    summary="capacity profile cannot constrain anything in this world",
    severity=Severity.WARNING,
))


def resolve_codes(tokens: list[str]) -> set[str]:
    """Map ``VERnnn`` codes or kebab-case check names to check codes;
    ``ValueError`` for anything unknown."""
    return resolve_codes_in(CHECKS, "verify check", tokens)
