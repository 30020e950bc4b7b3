"""The determinism lint engine.

Parses each file once, walks the AST once, and dispatches every node to
the rules registered for its type (:mod:`repro.analysis.rules`).
Suppressions are source comments::

    rng = random.Random()          # repro: noqa[DET001]
    value = time.time()            # repro: noqa[DET004, DET006]
    anything_goes()                # repro: noqa

A bare ``# repro: noqa`` suppresses every rule on that line; the
bracketed form suppresses only the listed codes. Rule-level path
exemptions (e.g. the telemetry layer may read the wall clock) are
declared on the rule class itself.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import LintContext, LintRule, all_rules

#: matches ``# repro: noqa`` and ``# repro: noqa[DET001, DET004]``
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_\-\s,]*)\])?", re.IGNORECASE
)

#: finding code for files the parser rejects
PARSE_ERROR_CODE = "DET000"


def _noqa_directives(source: str) -> dict[int, frozenset[str] | None]:
    """Per-line suppressions: ``None`` means suppress everything."""
    directives: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            directives[lineno] = None
        else:
            directives[lineno] = frozenset(
                token.strip().upper() for token in codes.split(",") if token.strip()
            )
    return directives


def _suppressed(
    finding: Finding, directives: dict[int, frozenset[str] | None]
) -> bool:
    if finding.line is None or finding.line not in directives:
        return False
    codes = directives[finding.line]
    return codes is None or finding.code in codes


class LintEngine:
    """Runs a rule set over sources, files, and directory trees."""

    def __init__(
        self,
        rules: Sequence[LintRule] | None = None,
        select: set[str] | None = None,
        ignore: set[str] | None = None,
    ) -> None:
        rules = list(rules) if rules is not None else all_rules()
        if select is not None:
            rules = [rule for rule in rules if rule.code in select]
        if ignore is not None:
            rules = [rule for rule in rules if rule.code not in ignore]
        self.rules = rules
        #: files examined by the most recent :meth:`lint_paths` call
        self.files_checked = 0

    # ------------------------------------------------------------------

    def lint_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Lint a source string; ``path`` labels findings and exemptions."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            return [
                Finding(
                    code=PARSE_ERROR_CODE,
                    message=f"cannot parse: {error.msg}",
                    severity=Severity.ERROR,
                    source=path,
                    line=error.lineno or 1,
                    col=(error.offset or 1) - 1,
                )
            ]
        ctx = LintContext(path=path, path_parts=tuple(Path(path).parts))
        active = [
            rule
            for rule in self.rules
            if not any(part in rule.exempt_path_parts for part in ctx.path_parts)
        ]
        dispatch: dict[type, list[LintRule]] = {}
        for rule in active:
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        findings: list[Finding] = []
        for node in ast.walk(tree):
            for rule in dispatch.get(type(node), ()):
                findings.extend(rule.check(node, ctx))
        directives = _noqa_directives(source)
        if directives:
            findings = [f for f in findings if not _suppressed(f, directives)]
        findings.sort(key=Finding.sort_key)
        return findings

    def lint_file(self, path: str | Path) -> list[Finding]:
        path = Path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            return [
                Finding(
                    code=PARSE_ERROR_CODE,
                    message=f"cannot read: {error}",
                    severity=Severity.ERROR,
                    source=str(path),
                )
            ]
        return self.lint_source(source, path=str(path))

    def lint_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        """Lint files and directory trees (``*.py``, sorted for stable output).

        Sets :attr:`files_checked` to the number of files examined, so
        callers can distinguish "clean" from "nothing to check" (an
        empty directory tree yields no findings *and* zero files).
        """
        findings: list[Finding] = []
        self.files_checked = 0
        for path in paths:
            path = Path(path)
            if path.is_dir():
                for file in sorted(path.rglob("*.py")):
                    findings.extend(self.lint_file(file))
                    self.files_checked += 1
            else:
                findings.extend(self.lint_file(path))
                self.files_checked += 1
        return findings
