"""Outside input, declared once: one :class:`Field` row per key of a
document a user writes (workload and capacity profiles, fault plans,
worlds) or a number a flag sets (run shape, session timing, damping).

A row states the key's JSON type, the interval a number must lie in and
the finding code a violation is reported under. Rows live beside the
dataclass they describe; two walkers read them:

* :func:`read` is the *type* pass. It raises :class:`ValueError`, and
  nothing else, for an unknown key, a missing required key or a value of
  the wrong JSON type -- so a malformed document is a load error, never
  a traceback from whichever consumer first touches the value.
* :func:`violations` is the *value* pass. It yields one
  ``(row, message)`` per number that is NaN, infinite or outside its
  row's interval. Constructors raise the message; the pre-run gate
  reports it under ``row.code`` (``docs/architecture.md``, "Outside
  input").

This module imports nothing from ``repro``: every layer may state rows.

A row's ``kind`` is written as the Python value it resembles: ``str`` /
``int`` / ``float`` / ``bool`` for a scalar (``true`` is never a
number, an integer is a number), ``object`` for a value the caller
types itself, ``[kind]`` for a list, ``{str: kind}`` for a string-keyed
map, a tuple of rows for a record and ``{name: rows}`` for a record
whose ``"kind"`` key picks its rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any, NoReturn

#: the kinds the value pass reads
_NUMBERS = (int, float, {str: float})
_SCALARS = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}


@dataclass(frozen=True, slots=True)
class Field:
    """What one key of a document may hold."""

    name: str
    kind: Any = float
    #: the interval a number (or each number of a map) must lie in
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    #: JSON ``null`` is a value (it reads as None)
    nullable: bool = False
    #: the key must be present
    required: bool = False
    #: finding code the gate reports a bad value under
    code: str = ""
    #: what goes wrong out of range, appended to the message
    why: str = ""


def _refuse(*parts: str) -> NoReturn:
    raise ValueError(": ".join(part for part in parts if part))


def _typed(kind: Any, value: Any, source: str, path: str) -> Any:
    """``value`` as ``kind`` reads it, or a ValueError naming ``path``."""
    if kind is object:
        return value
    if isinstance(kind, type):
        accepts = (int, float) if kind is float else kind
        if not isinstance(value, accepts) or (isinstance(value, bool) and kind is not bool):
            _refuse(source, f"{path} must be {_SCALARS[kind]}, got {value!r}")
        if kind is not float:
            return value
        try:
            return float(value)
        except OverflowError:  # a JSON integer past the float range
            return math.inf if value > 0 else -math.inf
    if isinstance(kind, list):
        if not isinstance(value, list):
            _refuse(source, f"{path} must be a list, got {value!r}")
        return [
            _typed(kind[0], item, source, f"{path}[{index}]")
            for index, item in enumerate(value)
        ]
    if not isinstance(value, dict):
        _refuse(source, f"{path or 'document'} must be an object, got {value!r}")
    if isinstance(kind, tuple):
        return _record(kind, value, source, path)
    if str in kind:
        return {
            key: _typed(kind[str], item, source, f"{path}[{key!r}]")
            for key, item in value.items()
        }
    name = value.get("kind")
    if not isinstance(name, str) or name not in kind:
        _refuse(source, path, f"unknown kind {name!r}; have {', '.join(kind)}")
    rest = {key: item for key, item in value.items() if key != "kind"}
    return {"kind": name, **_record(kind[name], rest, source, path)}


def _record(rows: tuple[Field, ...], data: dict, source: str, path: str) -> dict:
    by_name = {row.name: row for row in rows}
    for key in data:
        if key not in by_name:
            _refuse(source, path, f"unknown key {key!r}; have {', '.join(by_name)}")
    parsed = {}
    for row in rows:
        if row.name not in data:
            if row.required:
                _refuse(source, path, f"missing required key {row.name!r}")
        elif data[row.name] is None and row.nullable:
            parsed[row.name] = None
        else:
            at = f"{path}.{row.name}" if path else row.name
            parsed[row.name] = _typed(row.kind, data[row.name], source, at)
    return parsed


def read(rows: tuple[Field, ...], data: Any, source: str = "") -> dict:
    """The type pass: ``data`` as ``rows`` read it, keys present only.

    Numbers come back as floats, records and maps as dicts, lists as
    lists. Anything else about ``data`` -- not an object, an unknown or
    missing key, a wrong JSON type at any depth -- is a ``ValueError``
    that starts with ``source`` and names the key.
    """
    return _typed(rows, data, source, "")


def _bounds(row: Field) -> str:
    if row.hi is None and row.lo == 0:
        return "is not positive" if row.lo_open else "is negative"
    lo = "(-inf" if row.lo is None else f"{'(' if row.lo_open else '['}{row.lo:g}"
    hi = "inf)" if row.hi is None else f"{row.hi:g}{')' if row.hi_open else ']'}"
    return f"is outside {lo}, {hi}"


def _breach(row: Field, label: str, value: float) -> str | None:
    """What is wrong with one number, as a message, or None."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"{label} {value:g} is not finite"
    lo, hi = row.lo, row.hi
    if (lo is None or (value > lo if row.lo_open else value >= lo)) and (
        hi is None or (value < hi if row.hi_open else value <= hi)
    ):
        return None
    shown = f"{value:g}" if isinstance(value, float) else str(value)
    return f"{label} {shown} {_bounds(row)}" + (f"; {row.why}" if row.why else "")


def violations(rows: tuple[Field, ...], record: Any) -> Iterator[tuple[Field, str]]:
    """The value pass: ``(row, message)`` per number of ``record`` (an
    object or a dict) that is not finite or not in its row's interval.

    A value that is both (``-inf`` below a bound) reports once, as not
    finite; absent and None values state nothing and are skipped. Lists
    and nested records are the caller's to walk, with their own rows.
    """
    for row in rows:
        if row.kind not in _NUMBERS:
            continue
        held = record.get(row.name) if isinstance(record, dict) else getattr(record, row.name)
        if held is None:
            continue
        stated = (
            [(f"{row.name}[{key!r}]", held[key]) for key in sorted(held)]
            if isinstance(held, dict) else ((row.name, held),)
        )
        for label, value in stated:
            message = _breach(row, label, value)
            if message:
                yield row, message
