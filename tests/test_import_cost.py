"""Set-up imports only what a run calls: every package ``__init__``
re-exports its names lazily.

Each package (``repro.cli`` aside) declares its public names in one
``lazy_exports(__name__, {name: defining module})`` table, and a name's
module is imported the first time the name is read. So ``import repro``
loads one module, and the benchmark's ``workloads`` module loads neither
the DET linter, drill, playbook, DNS, the appendix and plotting modules,
``repro.obs`` nor ``multiprocessing``. The import checks run in a fresh
interpreter (this one has imported most of the package already); the
export checks read each table from the ``__init__``'s source.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: every package whose names resolve on first use
INITS = sorted(
    path for path in PACKAGE.rglob("__init__.py") if path.parent.name != "cli"
)

#: modules the benchmark's workloads never call into at set-up
NOT_AT_SETUP = (
    "repro.analysis.linter",
    "repro.analysis.rules",
    "repro.analysis.reporters",
    "repro.core.drill",
    "repro.core.playbook",
    "repro.core.unicast_failover",
    "repro.dns",
    "repro.measurement.appendix",
    "repro.measurement.plotting",
    "repro.obs",
    "multiprocessing",
)


def package_name(init: Path) -> str:
    return ".".join(init.parent.relative_to(ROOT / "src").parts)


def export_table(init: Path) -> dict[str, str]:
    """The ``{name: module}`` literal handed to ``lazy_exports``."""
    for node in ast.walk(ast.parse(init.read_text())):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
        ):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{init}: no lazy_exports(...) table")


def loaded_after(source: str) -> list[str]:
    """Run ``source`` in a fresh interpreter; the ``repro`` and
    ``multiprocessing`` modules it left in ``sys.modules``."""
    script = source + (
        "\nimport sys\nprint('\\n'.join(sorted(name for name in sys.modules"
        " if name.split('.')[0] in ('repro', 'multiprocessing'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    run = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_import_repro_loads_one_module():
    assert loaded_after("import repro") == ["repro"]


def test_the_benchmark_workloads_load_nothing_they_do_not_call():
    loaded = loaded_after("import workloads")
    assert [
        name for name in loaded
        if any(name == prefix or name.startswith(prefix + ".") for prefix in NOT_AT_SETUP)
    ] == []


@pytest.mark.parametrize("init", INITS, ids=package_name)
def test_an_init_imports_nothing_but_the_helper(init):
    """An eager import in an ``__init__`` loads its module for every
    sibling's import."""
    imports = [
        ast.unparse(node) for node in ast.parse(init.read_text()).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    if package_name(init) == "repro":
        assert imports == ["import sys", "from importlib import import_module"]
    else:
        assert imports == ["from repro import lazy_exports"]


@pytest.mark.parametrize("init", INITS, ids=package_name)
def test_every_export_is_its_defining_modules_object(init):
    name = package_name(init)
    package = importlib.import_module(name)
    table = export_table(init)
    assert [n for n in package.__all__ if n != "__version__"] == list(table)
    for export, source in table.items():
        assert getattr(package, export) is getattr(importlib.import_module(source, name), export)
        assert export in dir(package)


@pytest.mark.parametrize("init", INITS, ids=package_name)
def test_star_import_binds_all(init):
    name = package_name(init)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= namespace.keys()


@pytest.mark.parametrize("init", INITS, ids=package_name)
def test_an_unknown_name_is_an_attribute_error_naming_the_package(init):
    name = package_name(init)
    with pytest.raises(AttributeError, match=re.escape(f"module {name!r} has no attribute 'nope'")):
        getattr(importlib.import_module(name), "nope")


def test_version_is_a_plain_attribute():
    import repro

    assert vars(repro)["__version__"] == "1.0.0"
    assert repro.__all__[-1] == "__version__"


def test_a_submodule_still_imports_through_its_package():
    """``from pkg import submodule`` falls back to the import system when
    the package's ``__getattr__`` refuses the name."""
    from repro.verify import checks
    from repro import telemetry

    assert checks is sys.modules["repro.verify.checks"]
    assert telemetry.current is sys.modules["repro.telemetry.registry"].current
