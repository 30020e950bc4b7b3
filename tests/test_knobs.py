"""The knob census: every settable value of the runners, the controller,
the techniques and the measurement helpers is one that something people
run sets.

A value is an init field with a default (a dataclass field, or a keyword
of a class's ``__init__``) or a keyword default of a function. It is
*passed* when a call found by an AST scan of ``src/repro`` (outside the
owner's own body), ``bench/``, ``benchmarks/`` or ``examples/`` gives
it, by keyword or by position. A keyword given to a ``**kwargs``
forwarder (a function that passes its ``**kwargs`` on to another call)
counts for the callee it forwards to. A value no such call passes is a
constant in disguise: it becomes a named module constant, run state
(``field(init=False)``), or a :data:`KEEP` row saying why it stays.
"""

from __future__ import annotations

import ast
import pathlib
from collections.abc import Iterator

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
SRC = ROOT / "src"
#: where the callers are looked for
CALLER_DIRS = ("src/repro", "bench", "benchmarks", "examples")

#: owner -> its definition, ``path::qualname`` under ``src``
OWNERS: dict[str, str] = {
    "FailoverConfig": "repro/core/experiment.py::FailoverConfig",
    "ScenarioRunner": "repro/core/scenarios.py::ScenarioRunner",
    "RotationDrill": "repro/core/drill.py::RotationDrill",
    "CdnController": "repro/core/controller.py::CdnController",
    "CdnController.drain_site": "repro/core/controller.py::CdnController.drain_site",
    "Playbook": "repro/core/playbook.py::Playbook",
    "RunRig": "repro/core/rig.py::RunRig",
    "ProactiveMed": "repro/core/techniques.py::ProactiveMed",
    "ShedPrepend": "repro/core/techniques.py::ShedPrepend",
    "ShedDns": "repro/core/techniques.py::ShedDns",
    "Prober.start": "repro/dataplane/ping.py::Prober.start",
    "select_targets": "repro/measurement/hitlist.py::select_targets",
    "measure_control": "repro/measurement/control.py::measure_control",
    "measure_control_all_sites": "repro/measurement/control.py::measure_control_all_sites",
    "render_cdfs": "repro/measurement/plotting.py::render_cdfs",
    "estimate_event_time": "repro/measurement/convergence.py::estimate_event_time",
    "withdrawal_convergence_times":
        "repro/measurement/convergence.py::withdrawal_convergence_times",
    "propagation_times": "repro/measurement/convergence.py::propagation_times",
    "run_propagation_study": "repro/measurement/appendix.py::run_propagation_study",
    "link_latency_s": "repro/topology/geo.py::link_latency_s",
}

#: ``owner.value`` -> why it stays settable although no caller sets it
KEEP: dict[str, str] = {
    "FailoverConfig.probe_interval":
        "the probing cadence a calibration of the Fig. 2 fit moves; Prober.start's "
        "refusal and the probe-window hang tests drive it",
    "ScenarioRunner.timing":
        "the tests' fast session timings keep tier-1 short; a timing calibration fits it",
    "RotationDrill.timing":
        "the tests' fast session timings keep tier-1 short; a timing calibration fits it",
    "run_propagation_study.timing":
        "the Appendix B tests run a fast session timing to stay short",
}

#: the values the scope may hold (84 when the census was first taken)
VALUES_CEILING = 47


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _find(tree: ast.Module, qualname: str) -> ast.ClassDef | ast.FunctionDef:
    node: ast.AST = tree
    for part in qualname.split("."):
        node = next(
            child for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == part
        )
    return node


def _is_init_false(value: ast.expr | None) -> bool:
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) == "field"
        and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        )
    )


def _parameters(node: ast.ClassDef | ast.FunctionDef) -> tuple[list[str], set[str]]:
    """The owner's parameters in positional order, and those with a default."""
    if isinstance(node, ast.ClassDef):
        init = next(
            (c for c in node.body if isinstance(c, ast.FunctionDef) and c.name == "__init__"),
            None,
        )
        if init is None:  # a dataclass: its annotated fields are its parameters
            fields = [
                stmt for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and "ClassVar" not in ast.unparse(stmt.annotation)
                and not _is_init_false(stmt.value)
            ]
            return (
                [f.target.id for f in fields],
                {f.target.id for f in fields if f.value is not None},
            )
        node = init
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    keyword_only = [
        a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]
    return positional, set(defaulted) | set(keyword_only)


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _caller_files() -> Iterator[pathlib.Path]:
    for directory in CALLER_DIRS:
        yield from sorted((ROOT / directory).rglob("*.py"))


def _forwarders(trees: dict[pathlib.Path, ast.Module]) -> dict[str, set[str]]:
    """Function name -> the callees it hands its ``**kwargs`` to."""
    forwards: dict[str, set[str]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.args.kwarg is None:
                continue
            name = node.args.kwarg.arg
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and any(
                    k.arg is None and isinstance(k.value, ast.Name) and k.value.id == name
                    for k in call.keywords
                ):
                    callee = _callee(call)
                    if callee is not None:
                        forwards.setdefault(node.name, set()).add(callee)
    return forwards


def _census() -> tuple[set[str], set[str]]:
    """Every ``owner.value`` in scope, and those some caller passes."""
    values: set[str] = set()
    order: dict[str, list[str]] = {}
    for owner, where in OWNERS.items():
        path, qualname = where.split("::")
        positional, defaulted = _parameters(_find(_parse(SRC / path), qualname))
        order[owner] = positional
        values.update(f"{owner}.{name}" for name in defaulted)
    by_callee: dict[str, list[str]] = {}
    for owner in OWNERS:
        by_callee.setdefault(owner.rsplit(".", 1)[-1], []).append(owner)

    trees = {path: _parse(path) for path in _caller_files()}
    forwards = _forwarders(trees)
    passed: set[str] = set()
    for path, tree in trees.items():
        # A call inside an owner's own body does not count for that owner.
        own = {
            (id(node), owner)
            for owner, where in OWNERS.items()
            if SRC / where.split("::")[0] == path
            for node in ast.walk(_find(tree, where.split("::")[1]))
        }
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = _callee(call)
            keywords = {k.arg for k in call.keywords if k.arg is not None}
            n_positional = sum(1 for a in call.args if not isinstance(a, ast.Starred))
            for owner in by_callee.get(callee, ()):
                if (id(call), owner) not in own:
                    given = keywords | set(order[owner][:n_positional])
                    passed.update(f"{owner}.{name}" for name in given)
            for target in forwards.get(callee, ()):
                for owner in by_callee.get(target, ()):
                    passed.update(f"{owner}.{name}" for name in keywords)
    return values, passed & values


@pytest.fixture(scope="module")
def census():
    return _census()


def test_the_scope_holds_no_more_values_than_its_ceiling(census):
    values, _ = census
    assert len(values) <= VALUES_CEILING


def test_every_value_is_passed_or_kept(census):
    values, passed = census
    unset = sorted(values - passed - set(KEEP))
    assert not unset, (
        "settable values no command, bench, paper row or example passes -- make each a "
        f"module constant or run state, or give it a KEEP row: {unset}"
    )


def test_every_keep_row_names_an_unpassed_value(census):
    values, passed = census
    assert not set(KEEP) - values, "KEEP rows naming no value in scope"
    assert not set(KEEP) & passed, "KEEP rows for values a caller passes"


def test_forwarded_keywords_count_for_their_callee():
    trees = {path: _parse(path) for path in _caller_files()}
    assert _forwarders(trees)["measure_control_all_sites"] == {"measure_control"}
