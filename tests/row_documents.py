"""Documents generated from ``repro.fields`` rows.

One Hypothesis strategy per row set: a document the rows accept (every
number inside its interval), then at most one mutation -- a wrong JSON
type, a NaN / infinite / out-of-interval number, an unknown key, a
missing required key, a wrong ``kind``. ``tests/test_fields.py`` runs
it over the four documents a user writes; ``tests/test_faults_plan.py``
feeds it to the plan loader beside arbitrary JSON.
"""

from __future__ import annotations

import copy
import math

from hypothesis import strategies as st

from repro.fields import Field


def _numbers(row: Field, kind) -> st.SearchStrategy:
    lo = -1000 if row.lo is None else row.lo
    hi = lo + 1000 if row.hi is None else row.hi
    if kind is int:
        return st.integers(lo + row.lo_open, hi - row.hi_open)
    return st.floats(lo, hi, exclude_min=row.lo_open, exclude_max=row.hi_open)


def _values(kind, row: Field, samples: dict) -> st.SearchStrategy:
    """Values ``kind`` accepts; ``samples`` names the strings (and the
    untyped values) that mean something to the document's loader."""
    if kind in (str, object):
        return st.sampled_from(samples.get(row.name, ["a", "b", "c"]))
    if kind is bool:
        return st.booleans()
    if kind in (int, float):
        return _numbers(row, kind)
    if isinstance(kind, list):
        return st.lists(_values(kind[0], row, samples), max_size=2)
    if isinstance(kind, tuple):
        return documents(kind, samples)
    if str in kind:
        return st.dictionaries(
            st.sampled_from(["a", "b", "c"]), _values(kind[str], row, samples), max_size=2
        )
    return st.sampled_from(sorted(kind)).flatmap(
        lambda name: documents(kind[name], samples).map(lambda rest: {"kind": name, **rest})
    )


def documents(rows: tuple[Field, ...], samples: dict) -> st.SearchStrategy:
    """Documents ``read(rows, ...)`` accepts, every number in its interval."""
    return st.fixed_dictionaries(
        {row.name: _values(row.kind, row, samples) for row in rows if row.required},
        optional={row.name: _values(row.kind, row, samples) for row in rows if not row.required},
    )


def _sites(rows: tuple[Field, ...], doc: dict):
    """Every ⟨record, row⟩ of ``doc`` a mutation can land on, at any depth."""
    for row in rows:
        if row.name not in doc:
            continue
        yield doc, row
        kind, held = row.kind, doc[row.name]
        if isinstance(kind, tuple):
            yield from _sites(kind, held)
        elif isinstance(kind, list) and isinstance(kind[0], (tuple, dict)):
            for item in held:
                picked = kind[0][item["kind"]] if isinstance(kind[0], dict) else kind[0]
                yield from _sites(picked, item)


_WRONG_TYPE = {str: 5, int: 1.5, float: "1", bool: 1}


def _bad_numbers(row: Field) -> list[float]:
    """Numbers ``row`` refuses: non-finite ones, and the nearest one
    past each end of its interval."""
    bad = [math.nan, math.inf, -math.inf] if row.kind is not int else []
    if row.lo is not None:
        bad.append(row.lo if row.lo_open else row.lo - 1)
    if row.hi is not None:
        bad.append(row.hi if row.hi_open else row.hi + 1)
    return bad


def _mutations(holder: dict, row: Field) -> list[str]:
    ways = ["none", "unknown"]
    if row.kind is not object:
        ways.append("type")
    if (
        row.kind in (int, float, {str: float})
        and holder[row.name] not in (None, {}) and _bad_numbers(row)
    ):
        ways.append("value")
    if row.required:
        ways.append("missing")
    if "kind" in holder:
        ways.append("kind")
    return ways


@st.composite
def mutated(draw, rows: tuple[Field, ...], samples: dict):
    """⟨document, how it was mutated ("none": it was not), the row the
    mutation landed on⟩."""
    doc = copy.deepcopy(draw(documents(rows, samples)))
    sites = list(_sites(rows, doc))
    if not sites:
        return doc, "none", None
    holder, row = draw(st.sampled_from(sites))
    how = draw(st.sampled_from(_mutations(holder, row)))
    if how == "unknown":
        holder["no-such-key"] = 1
    elif how == "type":
        holder[row.name] = _WRONG_TYPE[row.kind] if isinstance(row.kind, type) else 5
    elif how == "missing":
        del holder[row.name]
    elif how == "kind":
        holder["kind"] = "no-such-kind"
    elif how == "value":
        value = draw(st.sampled_from(_bad_numbers(row)))
        if isinstance(holder[row.name], dict):
            holder[row.name][draw(st.sampled_from(sorted(holder[row.name])))] = value
        else:
            holder[row.name] = value
    return doc, how, row
