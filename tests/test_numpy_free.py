"""numpy belongs to the request-stream engine: a run that streams no
workload never imports it.

The Fig. 2 / Table 1 matrix is BGP plus probing, and numpy (about 14 MB
of RSS and 0.05 s of every process's set-up) is only used to draw and
tally request streams. ``tests/conftest.py`` imports numpy, so the
import-time checks run in a fresh interpreter; the AST check names the
offending line of any module-level numpy import under ``src/repro``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.linter import LintEngine

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
UNDEFINED_ANNOTATIONS = LintEngine(select={"DET014"})

#: what a run streaming no workload does: import the package, the CLI and
#: the benchmark's workload module, run one forked cell, then the CLI's
#: failover; prints the numpy modules loaded by then
NO_WORKLOAD = """\
import sys
import repro, repro.cli, workloads
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import Anycast
from repro.topology.testbed import build_deployment

deployment = build_deployment()
config = FailoverConfig(probe_duration=30.0, targets_per_site=4)
experiment = FailoverExperiment(
    deployment.topology, deployment, config, use_checkpoint=True
)
experiment.run_site(Anycast(), "sea1")
assert repro.cli.main(["failover", "-t", "anycast", "-s", "sea1"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""

#: the control: the first batch of a request stream loads numpy
ONE_BATCH = """\
import sys
from repro.workload import RequestStream, builtin_profile

stream = RequestStream(builtin_profile("constant"), ["AS1", "AS2"], 10.0, seed=42)
print("numpy" in sys.modules)
times, clients = next(stream.batches())
assert len(times) == len(clients) > 0
print("numpy" in sys.modules)
"""


def run_python(source: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    run = subprocess.run(
        [sys.executable, "-c", source],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_a_run_without_a_workload_never_imports_numpy():
    assert run_python(NO_WORKLOAD)[-1] == "[]"


def test_a_stream_batch_imports_numpy():
    assert run_python(ONE_BATCH) == ["True", "True"]


def is_type_checking(test: ast.expr) -> bool:
    """``TYPE_CHECKING`` or ``typing.TYPE_CHECKING``: false at run time."""
    name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", None)
    return name == "TYPE_CHECKING"


def numpy_imports_at_import_time(source: str) -> list[int]:
    """Line numbers of the ``import numpy`` / ``from numpy ...``
    statements that run when the module is imported: everywhere except
    inside a function body or an ``if TYPE_CHECKING:`` body (a class
    body runs at import too, and so does that ``if``'s ``else``)."""
    lines = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and is_type_checking(node.test):
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(lines)


@pytest.mark.parametrize("source, lines", [
    ("import numpy as np\n", [1]),
    ("import os, numpy.random\n", [1]),
    ("from numpy.random import MT19937\n", [1]),
    ("try:\n    import numpy\nexcept ImportError:\n    pass\n", [2]),
    ("class Table:\n    import numpy as np\n", [2]),
    ("def draw():\n    import numpy as np\n    return np.zeros(3)\n", []),
    ("class Stream:\n    def batches(self):\n        from numpy import sort\n", []),
    ("from .numpy import helper\nimport numpyish\n", []),
    ("if TYPE_CHECKING:\n    import numpy as np\n", []),
    ("if typing.TYPE_CHECKING:\n    from numpy import ndarray\n", []),
    ("if TYPE_CHECKING:\n    pass\nelse:\n    import numpy\n", [4]),
    ("if not TYPE_CHECKING:\n    import numpy\n", [2]),
], ids=[
    "plain", "dotted", "from", "try", "class-body", "function", "method", "not-numpy",
    "type-checking", "typing-type-checking", "type-checking-else", "not-type-checking",
])
def test_the_import_check_finds_what_runs_at_import(source, lines):
    assert numpy_imports_at_import_time(source) == lines


def test_no_module_imports_numpy_at_import_time():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in numpy_imports_at_import_time(path.read_text())
    ]
    assert offenders == [], "import numpy inside the function that computes with it"


def unbound_np_annotations(source: str) -> list[int]:
    """Line numbers of signatures that name an ``np`` the module does not
    bind outside its functions: lint rule DET014, which linters' own
    undefined-name check would also refuse (a parameter or return
    annotation resolves in the scope around the ``def``, where an import
    inside the body does not count)."""
    findings = UNDEFINED_ANNOTATIONS.lint_source(source, path="src/repro/workload/stream.py")
    return sorted({f.line for f in findings if "'np'" in f.message})


@pytest.mark.parametrize("source, lines", [
    ("def words(count: int) -> np.ndarray:\n    import numpy as np\n", [1]),
    ("if TYPE_CHECKING:\n    import numpy as np\ndef words() -> np.ndarray: ...\n", []),
    ("def words(t: float) -> float:\n    import numpy as np\n", []),
], ids=["unbound", "type-checking", "no-annotation"])
def test_the_annotation_check_finds_an_unbound_np(source, lines):
    assert unbound_np_annotations(source) == lines


def test_every_np_annotation_names_a_bound_np():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in unbound_np_annotations(path.read_text())
    ]
    assert offenders == [], "import numpy as np under `if TYPE_CHECKING:`"
