"""The shared finding model for both analysis layers.

A :class:`Finding` is one diagnosed problem, produced either by the
AST determinism linter (:mod:`repro.analysis.rules`) or by the semantic
pre-flight validator (:mod:`repro.analysis.preflight`). Lint findings
carry a file position; pre-flight findings carry a logical subject
("scenario", "topology", ...) instead. Both render the same way and
flow through the same telemetry counters, so CI and the CLI treat the
two layers uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.telemetry import registry as telemetry_registry


class Severity(enum.Enum):
    """How bad a finding is.

    ERROR findings block a gated run (without ``--no-check``)
    and fail ``repro lint``; WARNING findings are reported but advisory.
    """

    WARNING = "warning"
    ERROR = "error"

    @property
    def blocking(self) -> bool:
        return self is Severity.ERROR


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnosed hazard, from either analysis layer.

    Attributes:
        code: the stable rule/check code (``DET001``, ``PRE105``, ...).
        message: human-readable description of the specific occurrence.
        severity: ERROR blocks, WARNING advises.
        source: file path (linter) or logical subject (pre-flight).
        line: 1-based line for lint findings, None for pre-flight.
        col: 0-based column for lint findings, None for pre-flight.
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    source: str = "<preflight>"
    line: int | None = None
    col: int | None = None

    def format(self) -> str:
        """``path:line:col: CODE severity: message`` (position optional)."""
        locus = self.source
        if self.line is not None:
            locus += f":{self.line}"
            if self.col is not None:
                locus += f":{self.col + 1}"
        return f"{locus}: {self.code} {self.severity.value}: {self.message}"

    def to_dict(self) -> dict:
        """JSON-serializable view (the ``--format json`` payload)."""
        return {
            "code": self.code,
            "message": self.message,
            "severity": self.severity.value,
            "source": self.source,
            "line": self.line,
            "col": self.col,
        }

    def sort_key(self) -> tuple:
        # message is the final tie-break so reports are byte-stable even
        # when one rule fires twice on the same node
        return (self.source, self.line or 0, self.col or 0, self.code, self.message)


@dataclass(slots=True)
class FindingCollector:
    """Accumulates findings and answers the pass/fail question."""

    findings: list[Finding] = field(default_factory=list)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity.blocking]

    @property
    def ok(self) -> bool:
        """True when nothing blocking was found."""
        return not self.errors


def emit_findings(findings: Iterable[Finding], layer: str) -> None:
    """Feed findings into the active telemetry counters.

    ``layer`` is ``"lint"``, ``"preflight"``, or ``"verify"``; counters are
    ``analysis.<layer>.findings`` (total), ``analysis.<layer>.errors``,
    and ``analysis.finding.<CODE>`` per rule/check code. With the null
    backend installed this is a no-op.
    """
    tel = telemetry_registry.current()
    if not tel.enabled:
        return
    for finding in findings:
        tel.inc(f"analysis.{layer}.findings")
        if finding.severity.blocking:
            tel.inc(f"analysis.{layer}.errors")
        tel.inc(f"analysis.finding.{finding.code}")


def resolve_codes_in(catalogue: Mapping[str, Any], noun: str, tokens: list[str]) -> set[str]:
    """Map user-supplied codes or names to the codes of ``catalogue``
    (``{code: entry with a kebab-case .name}``, the lint rules or the
    verify checks).

    Accepts a code in any case or an entry's name; raises ``ValueError``
    naming the ``noun`` for anything unknown.
    """
    by_name = {entry.name: code for code, entry in catalogue.items()}
    resolved: set[str] = set()
    for token in tokens:
        token = token.strip()
        if not token:
            continue
        code = token.upper() if token.upper() in catalogue else by_name.get(token.lower())
        if code is None:
            raise ValueError(
                f"unknown {noun} {token!r}; have {sorted(catalogue)} "
                f"(or names {sorted(by_name)})"
            )
        resolved.add(code)
    return resolved
