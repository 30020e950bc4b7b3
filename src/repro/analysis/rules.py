"""Determinism lint rules (the ``DET`` series).

Each rule targets one hazard class that can silently corrupt the
simulator's determinism guarantee: the same seed must always produce the
same event sequence, across processes and machines. Rules are small AST
pattern matchers registered in :data:`RULES`; the engine in
:mod:`repro.analysis.linter` drives them over every file in one pass.

A rule fires :class:`~repro.analysis.findings.Finding` objects with its
stable code; occurrences can be suppressed in source with
``# repro: noqa[CODE]`` (see :mod:`repro.analysis.linter`).
"""

from __future__ import annotations

import abc
import ast
import builtins
from dataclasses import dataclass
from typing import ClassVar, Iterator

from repro.analysis.findings import Finding, Severity


@dataclass(frozen=True, slots=True)
class LintContext:
    """Per-file state handed to every rule."""

    path: str
    #: path components, used for rule-level path exemptions
    path_parts: tuple[str, ...]


#: registry of rule code -> rule class, in registration order
RULES: dict[str, "type[LintRule]"] = {}


def register(cls: "type[LintRule]") -> "type[LintRule]":
    """Class decorator adding a rule to :data:`RULES`."""
    if cls.code in RULES:
        raise ValueError(f"duplicate lint rule code {cls.code!r}")
    RULES[cls.code] = cls
    return cls


class LintRule(abc.ABC):
    """One determinism hazard detector.

    Subclasses declare the AST node types they inspect; the engine calls
    :meth:`check` for each matching node in the file.
    """

    #: stable finding code, e.g. ``DET001``
    code: ClassVar[str]
    #: short kebab-case name used in ``--select``/``--ignore``
    name: ClassVar[str]
    #: one-line description shown by ``repro lint --list-rules``
    summary: ClassVar[str]
    severity: ClassVar[Severity] = Severity.ERROR
    node_types: ClassVar[tuple[type, ...]] = ()
    #: skip files whose path contains any of these parts (e.g. the
    #: telemetry layer is allowed to read the wall clock)
    exempt_path_parts: ClassVar[frozenset[str]] = frozenset()

    @abc.abstractmethod
    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        """Yield findings for ``node`` (already type-filtered)."""

    def finding(self, node: ast.AST, ctx: LintContext, message: str) -> Finding:
        return Finding(
            code=self.code,
            message=message,
            severity=self.severity,
            source=ctx.path,
            line=getattr(node, "lineno", None),
            col=getattr(node, "col_offset", None),
        )


# ----------------------------------------------------------------------
# AST helpers


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_random_class(func: ast.AST) -> bool:
    """True for ``random.Random`` / ``Random`` / ``SystemRandom`` refs."""
    dotted = _dotted_name(func)
    return dotted in ("random.Random", "Random", "random.SystemRandom", "SystemRandom")


def _call_args(node: ast.Call) -> Iterator[ast.AST]:
    yield from node.args
    for keyword in node.keywords:
        yield keyword.value


# ----------------------------------------------------------------------
# Rules


@register
class UnseededRandom(LintRule):
    """``random.Random()`` with no seed draws entropy from the OS."""

    code = "DET001"
    name = "unseeded-random"
    summary = "random.Random() constructed without an explicit seed"
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if _is_random_class(node.func) and not node.args and not node.keywords:
            yield self.finding(
                node, ctx,
                "random.Random() without a seed is nondeterministic; "
                "pass an explicit seed (or thread an existing rng through)",
            )


#: module-level functions of :mod:`random` that use the hidden global RNG
_MODULE_RANDOM_FNS = frozenset({
    "random", "uniform", "triangular", "randint", "randrange", "getrandbits",
    "choice", "choices", "sample", "shuffle", "seed", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "paretovariate", "vonmisesvariate", "weibullvariate", "randbytes",
})


#: names in numpy's ``random`` module that build a generator instead of
#: drawing from its hidden global ``RandomState``; only a call with no
#: seed material is a hazard
_NUMPY_RNG_CONSTRUCTORS = frozenset({
    "default_rng", "RandomState", "Generator", "SeedSequence", "BitGenerator",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
})


@register
class ModuleLevelRandom(LintRule):
    """Calls into the hidden global RNG of :mod:`random` or of numpy's
    ``random`` module (and numpy generators built without a seed)."""

    code = "DET002"
    name = "module-random"
    summary = "module-level random.* / numpy random call shares the hidden global RNG"

    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        parts = (_dotted_name(node.func) or "").split(".")
        if len(parts) == 2 and parts[0] == "random" and parts[1] in _MODULE_RANDOM_FNS:
            yield self.finding(
                node, ctx,
                f"random.{parts[1]}() uses the process-global RNG, whose state "
                "any import can perturb; use a seeded random.Random instance",
            )
        elif len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            call = ".".join(parts)
            if parts[2] not in _NUMPY_RNG_CONSTRUCTORS:
                yield self.finding(
                    node, ctx,
                    f"{call}() draws from numpy's process-global RandomState; "
                    "draw from the run's seeded random.Random instead",
                )
            elif not node.args and not node.keywords:
                yield self.finding(
                    node, ctx,
                    f"{call}() without a seed draws entropy from the OS; "
                    "pass an explicit seed",
                )


@register
class HashDerivedSeed(LintRule):
    """``hash()`` feeding a seed varies across processes."""

    code = "DET003"
    name = "hash-seed"
    summary = "hash()-derived seed varies across processes (PYTHONHASHSEED)"
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        is_seed_sink = _is_random_class(func) or (
            isinstance(func, ast.Attribute) and func.attr == "seed"
        )
        if not is_seed_sink:
            return
        for arg in _call_args(node):
            for sub in ast.walk(arg):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "hash"
                ):
                    yield self.finding(
                        sub, ctx,
                        "hash() is salted per process (PYTHONHASHSEED) and must "
                        "not derive a seed; use a stable digest such as zlib.crc32",
                    )


#: dotted call names that read the wall clock
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "date.today",
})


@register
class WallClockRead(LintRule):
    """Wall-clock reads outside the telemetry layer.

    Simulation logic must take time from the :class:`EventEngine` clock;
    wall-clock values leaking into event scheduling or results make runs
    irreproducible. The telemetry layer measures real elapsed time by
    design and is exempt.
    """

    code = "DET004"
    name = "wall-clock"
    summary = "wall-clock read (time.time/datetime.now/...) outside telemetry"
    node_types = (ast.Call,)
    exempt_path_parts = frozenset({"telemetry"})

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        dotted = _dotted_name(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            yield self.finding(
                node, ctx,
                f"{dotted}() reads the wall clock; simulation code must use "
                "the engine's simulated clock (telemetry code is exempt)",
            )


@register
class SetIterationOrder(LintRule):
    """Iterating a set lets hash order leak into event order."""

    code = "DET005"
    name = "set-iteration"
    summary = "iteration over a bare set leaks hash order into scheduling"
    node_types = (ast.For, ast.AsyncFor, ast.comprehension)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        iter_node = node.iter  # type: ignore[union-attr]
        is_set = isinstance(iter_node, ast.Set) or (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("set", "frozenset")
        )
        if is_set:
            yield self.finding(
                iter_node, ctx,
                "iterating a set yields hash order, which PYTHONHASHSEED "
                "reshuffles per process; wrap the set in sorted()",
            )


#: attribute names whose values carry simulated timestamps (``event.t``)
_TIME_ATTRS = frozenset({"now", "t", "at", "time", "timestamp"})
#: bare variable names that are unambiguously timestamps; ``t`` and
#: ``time`` are excluded here because they are common generic names
_TIME_NAMES = frozenset({"now", "at", "timestamp"})
_TIME_SUFFIXES = ("_at", "_time", "_timestamp")


def _looks_like_timestamp(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _TIME_NAMES or node.id.endswith(_TIME_SUFFIXES)
    if isinstance(node, ast.Attribute):
        return node.attr in _TIME_ATTRS or node.attr.endswith(_TIME_SUFFIXES)
    return False


@register
class FloatTimeEquality(LintRule):
    """``==`` on simulated timestamps is float-precision roulette."""

    code = "DET006"
    name = "float-time-eq"
    summary = "== / != comparison on simulated-time values"
    severity = Severity.WARNING
    node_types = (ast.Compare,)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            # `x == None`-style literal comparisons are not time math.
            if isinstance(left, ast.Constant) or isinstance(right, ast.Constant):
                continue
            if _looks_like_timestamp(left) or _looks_like_timestamp(right):
                yield self.finding(
                    node, ctx,
                    "exact equality on simulated timestamps breaks under float "
                    "arithmetic; compare with a tolerance or use <=/>= windows",
                )
                return


@register
class MutableDefaultArgument(LintRule):
    """Mutable default arguments are shared across calls."""

    code = "DET007"
    name = "mutable-default"
    summary = "mutable default argument shared across calls"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        args = node.args  # type: ignore[union-attr]
        for default in (*args.defaults, *args.kw_defaults):
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                yield self.finding(
                    default, ctx,
                    "mutable default argument is created once and shared by "
                    "every call; default to None and construct inside",
                )


#: dotted call names that draw entropy from the operating system
_OS_ENTROPY_CALLS = frozenset({
    "os.urandom", "os.getrandom",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.randbits", "secrets.choice",
    "secrets.SystemRandom",
    "uuid.uuid1", "uuid.uuid4",
})


@register
class OsEntropy(LintRule):
    """OS entropy sources (``os.urandom``, ``secrets``, ``uuid4``)."""

    code = "DET008"
    name = "os-entropy"
    summary = "os.urandom/secrets/uuid4 draw irreproducible OS entropy"
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        dotted = _dotted_name(node.func)
        if dotted in _OS_ENTROPY_CALLS:
            yield self.finding(
                node, ctx,
                f"{dotted}() draws entropy from the OS and can never be "
                "replayed; derive values from a seeded random.Random (or a "
                "stable digest of run inputs)",
            )


#: constructors that freeze an iterable's order into a sequence
_SEQUENCE_SINKS = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_set_expr(node: ast.AST) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register
class SetToSequence(LintRule):
    """Hash order frozen into a sequence (``list(set(...))``) or output
    (``",".join(set(...))``).

    DET005 catches direct ``for`` loops over sets; this rule catches the
    laundered version, where the set's arbitrary order is first captured
    into a list/tuple (or straight into a string) and *then* flows into
    scheduling or output. ``sorted(set(...))`` is the fix and is not
    flagged.
    """

    code = "DET009"
    name = "set-to-sequence"
    summary = "set materialized into an ordered sequence without sorted()"
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        is_sink = (
            isinstance(func, ast.Name) and func.id in _SEQUENCE_SINKS
        ) or (
            isinstance(func, ast.Attribute) and func.attr == "join"
        )
        if not is_sink or not node.args:
            return
        if _is_set_expr(node.args[0]):
            sink = func.id if isinstance(func, ast.Name) else "str.join"
            yield self.finding(
                node, ctx,
                f"{sink}() over a set freezes hash order, which "
                "PYTHONHASHSEED reshuffles per process, into a sequence; "
                "use sorted() to pick a stable order first",
            )


#: dotted call names that iterate the filesystem in on-disk order
_FS_ITER_CALLS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})
#: method names on Path-like objects with the same hazard
_FS_ITER_METHODS = frozenset({"iterdir", "glob", "rglob"})


@register
class UnsortedFsIteration(LintRule):
    """Filesystem iteration order is an OS artifact, not a contract.

    ``os.listdir``/``Path.iterdir``/``glob`` return entries in whatever
    order the filesystem reports them — which differs across machines
    and even across runs. Any result that feeds file processing order or
    output paths must be wrapped in ``sorted(...)``.
    """

    code = "DET010"
    name = "fs-order"
    summary = "filesystem iteration (listdir/glob/iterdir) without sorted()"
    # The engine dispatches nodes without parent links; this rule needs
    # to know each call's enclosing expression, so it hooks the Module
    # node (ast.walk yields it first, exactly once) and does its own
    # parent-tracked walk.
    node_types = (ast.Module,)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Module)
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(node):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            dotted = _dotted_name(sub.func)
            is_fs_iter = dotted in _FS_ITER_CALLS or (
                isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _FS_ITER_METHODS
            )
            if not is_fs_iter:
                continue
            wrapper = parents.get(sub)
            if (
                isinstance(wrapper, ast.Call)
                and isinstance(wrapper.func, ast.Name)
                and wrapper.func.id == "sorted"
            ):
                continue
            label = dotted or f"<path>.{sub.func.attr}"  # type: ignore[union-attr]
            yield self.finding(
                sub, ctx,
                f"{label}() yields entries in filesystem order, which is "
                "not stable across machines; wrap the call in sorted()",
            )


#: callee name -> the only modules under ``repro/`` that may call it.
#: Each row is a fact the tree states once: a run's components are
#: assembled by the rig, and a network is simulated only by the four
#: runners -- settled catchments come from the symbolic fixed point
#: (docs/architecture.md, "Three regimes"), never from a scratch
#: network; the valley-free rule is
#: read through ``policy.exported`` / ``relayed``, which both engines
#: and the reachability walk call, never restated beside them; and a
#: FIB is written by the router's install, whose hook re-walks the
#: packets in the air, or filled by a restore (no packet is in the air
#: yet); and a command's prologue -- the testbed at ``--seed``, the
#: pre-run gate, the telemetry session -- is stated once by the CLI
#: registrar (fixture worlds build their own small deployments). A
#: dotted row names the attribute the method is called on.
_SINGLE_CALL_SITES: dict[str, tuple[str, ...]] = {
    **dict.fromkeys(
        ("CdnController", "WorkloadEngine", "CapacityState", "FaultInjector", "Prober"),
        ("core/rig.py",),
    ),
    "build_network": (
        "core/experiment.py", "core/drill.py", "core/scenarios.py", "measurement/appendix.py",
    ),
    "should_export": ("bgp/policy.py",),
    **dict.fromkeys(("fib.insert", "fib.remove"), ("bgp/router.py", "checkpoint/codec.py")),
    "build_deployment": ("cli/common.py", "verify/world.py"),
    **dict.fromkeys(("gate", "telemetry_session"), ("cli/common.py",)),
}


def _callee_names(func: ast.AST) -> tuple[str, ...]:
    """``insert`` and ``fib.insert`` for ``router.fib.insert(...)``."""
    if isinstance(func, ast.Name):
        return (func.id,)
    if not isinstance(func, ast.Attribute):
        return ()
    owner = func.value
    if isinstance(owner, ast.Attribute):
        return func.attr, f"{owner.attr}.{func.attr}"
    if isinstance(owner, ast.Name):
        return func.attr, f"{owner.id}.{func.attr}"
    return (func.attr,)


@register
class SingleCallSite(LintRule):
    """Calls that only designated modules of the package may make.

    A second assembler of a run's components, or a fifth place that
    builds a network, restates what the rig or the solvers already
    state. Code outside the ``repro`` package (tests, examples) may
    call anything.
    """

    code = "DET011"
    name = "single-call-site"
    summary = "call to a rig/runner-only callable from another module"
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if "repro" not in ctx.path_parts:
            return
        module = "/".join(ctx.path_parts[-2:])
        for callee in _callee_names(node.func):
            allowed = _SINGLE_CALL_SITES.get(callee)
            if allowed is not None and module not in allowed:
                yield self.finding(
                    node, ctx,
                    f"{callee}() may only be called from {', '.join(allowed)}; go through "
                    "that module instead of stating the same fact a second time",
                )


#: numpy ufuncs whose vectorised kernels can differ from libm in the last
#: bit, and from one CPU's dispatch path to another's
_NUMPY_TRANSCENDENTALS = frozenset(
    f"{module}.{name}"
    for module in ("np", "numpy")
    for name in ("log", "log2", "log10", "log1p", "exp", "expm1", "sin", "cos", "tan", "power")
)


@register
class NumpyTranscendental(LintRule):
    """numpy's ``log`` / ``exp`` / ``sin`` / ... inside the package.

    A value they compute can reach a pinned digest (an arrival time, a
    rate) and change it on another host. ``math`` calls libm, whose
    results the digests are pinned on.
    """

    code = "DET012"
    name = "numpy-transcendental"
    summary = "numpy log/exp/sin/... ufunc inside the repro package (last bit varies by CPU)"
    # An Attribute, not a Call: `map(np.log, ...)` computes as much as `np.log(x)`.
    node_types = (ast.Attribute,)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if "repro" not in ctx.path_parts:
            return
        dotted = _dotted_name(node)
        if dotted in _NUMPY_TRANSCENDENTALS:
            yield self.finding(
                node, ctx,
                f"{dotted} can differ from libm in the last bit depending on the "
                "CPU numpy dispatches to; map the math module's function over the "
                "values instead",
            )


def _module_level(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """The statements of a module body, with those of its top-level
    ``if`` / ``try`` blocks (``TYPE_CHECKING``, optional imports)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _module_level(stmt.body)
            yield from _module_level(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, *(h.body for h in stmt.handlers), stmt.orelse,
                          stmt.finalbody):
                yield from _module_level(block)


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(module: ast.Module) -> set[str]:
    """Every name the module reads, counting the names inside quoted
    annotations and the strings listed in ``__all__``."""
    used = {
        node.id for node in ast.walk(module)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(module):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for stmt in module.body:
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign)
            else [stmt.target] if isinstance(stmt, (ast.AugAssign, ast.AnnAssign))
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) and stmt.value:
            used.update(
                node.value for node in ast.walk(stmt.value)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            )
    return used


@register
class UnusedImport(LintRule):
    """A module-level import no code of the module reads.

    Inside the package only. ``from x import y as y`` is an explicit
    re-export and is not flagged; neither is a name listed in
    ``__all__`` or read only inside a quoted annotation.
    """

    code = "DET013"
    name = "unused-import"
    summary = "module-level import never used in the module (inside the repro package)"
    # Hooks the Module node: whether a name is used is a whole-file fact.
    node_types = (ast.Module,)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Module)
        if "repro" not in ctx.path_parts:
            return
        used = _used_names(node)
        for stmt in _module_level(node.body):
            if isinstance(stmt, ast.Import):
                bound = [(alias, alias.asname or alias.name.split(".")[0]) for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                bound = [
                    (alias, alias.asname or alias.name) for alias in stmt.names
                    if alias.name != "*" and alias.asname != alias.name
                ]
            else:
                continue
            for alias, name in bound:
                if name not in used:
                    yield self.finding(
                        alias, ctx,
                        f"{name!r} is imported but never used; delete the import "
                        "(or list the name in __all__ to re-export it)",
                    )


def _stored_names(target: ast.AST) -> Iterator[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def _module_bindings(body: list[ast.stmt]) -> set[str] | None:
    """The names a module's own statements bind: imports, defs, classes
    and assignments, also under a top-level ``if`` / ``try`` (the
    ``TYPE_CHECKING`` idiom). None after a ``from x import *``."""
    bound: set[str] = set()
    for stmt in _module_level(body):
        if isinstance(stmt, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in stmt.names)
        elif isinstance(stmt, ast.ImportFrom):
            if any(alias.name == "*" for alias in stmt.names):
                return None
            bound.update(alias.asname or alias.name for alias in stmt.names)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                bound.update(_stored_names(target))
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            bound.update(_stored_names(stmt.target))
    return bound


def _parameters(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.arg]:
    args = function.args
    every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    return [arg for arg in every if arg is not None]


def _scope_bindings(scope: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> set[str]:
    """The names a class body or a function binds for the ``def``s
    nested in it: a class body's statements; a function's parameters
    and every name bound in its body outside nested scopes."""
    if isinstance(scope, ast.ClassDef):
        return _module_bindings(scope.body) or set()
    bound = {arg.arg for arg in _parameters(scope)}
    pending: list[ast.AST] = list(scope.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        pending.extend(ast.iter_child_nodes(node))
    return bound


def _annotation_names(annotation: ast.expr) -> Iterator[tuple[ast.AST, str]]:
    """⟨node, name⟩ for every name an annotation reads, quoted forward
    references included; a ``Literal[...]``'s strings are values."""
    pending = [annotation]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(quoted):
                if isinstance(name, ast.Name):
                    yield node, name.id
        elif isinstance(node, ast.Subscript) and (_dotted_name(node.value) or "").endswith(
            "Literal"
        ):
            pending.append(node.value)
        else:
            pending.extend(ast.iter_child_nodes(node))


_BUILTIN_NAMES = frozenset(dir(builtins))


@register
class UndefinedAnnotationName(LintRule):
    """A ``def``'s parameter or return annotation names something the
    module never binds.

    Linters resolve a signature's annotations in the scope around the
    ``def``: an import inside the function body does not bind them, and
    ``from __future__ import annotations`` only defers the failure to
    whoever evaluates the hints. Bind the name at module level -- under
    ``if TYPE_CHECKING:`` when only the annotations need it.
    """

    code = "DET014"
    name = "undefined-annotation-name"
    summary = "signature annotation names something no module-level statement binds"
    # Hooks the Module node: what the module binds is a whole-file fact.
    node_types = (ast.Module,)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Module)
        if "repro" not in ctx.path_parts:
            return
        bound = _module_bindings(node.body)
        if bound is None:
            return
        yield from self._visit(node, ctx, bound | _BUILTIN_NAMES)

    def _visit(self, node: ast.AST, ctx: LintContext, bound: set[str]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotations = [arg.annotation for arg in _parameters(child)]
                annotations.append(child.returns)
                for annotation in filter(None, annotations):
                    for where, name in _annotation_names(annotation):
                        if name not in bound:
                            yield self.finding(
                                where, ctx,
                                f"the signature of {child.name}() names {name!r}, which "
                                "no module-level statement binds; import it at module "
                                "level (under `if TYPE_CHECKING:` if only annotations "
                                "read it)",
                            )
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from self._visit(child, ctx, bound | _scope_bindings(child))
            else:
                yield from self._visit(child, ctx, bound)


def all_rules() -> list[LintRule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in RULES.values()]


def resolve_codes(tokens: list[str]) -> set[str]:
    """Map a user-supplied list of codes/names to rule codes.

    Accepts either the ``DETnnn`` code or the kebab-case rule name;
    raises ``ValueError`` for anything unknown.
    """
    by_name = {cls.name: code for code, cls in RULES.items()}
    resolved: set[str] = set()
    for token in tokens:
        token = token.strip()
        if not token:
            continue
        code = token.upper() if token.upper() in RULES else by_name.get(token.lower())
        if code is None:
            raise ValueError(
                f"unknown lint rule {token!r}; have {sorted(RULES)} "
                f"(or names {sorted(by_name)})"
            )
        resolved.add(code)
    return resolved
