"""Documentation and packaging hygiene checks.

A reproduction repo lives or dies by its docs matching the code: these
tests keep README/DESIGN/EXPERIMENTS references, the public API surface,
and the packaging metadata honest.
"""

import functools
import importlib
import pathlib
import re

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).resolve().parents[2]


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.net", "repro.bgp", "repro.topology", "repro.dns",
            "repro.dataplane", "repro.core", "repro.measurement", "repro.cli",
            "repro.configgen", "repro.faults",
        ],
    )
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro", "repro.net.addr", "repro.net.lpm", "repro.bgp.router",
            "repro.bgp.session", "repro.bgp.damping", "repro.core.techniques",
            "repro.core.experiment", "repro.core.scenarios",
            "repro.faults.plan", "repro.faults.injector",
            "repro.faults.invariants",
            "repro.measurement.control", "repro.measurement.divergence",
        ],
    )
    def test_modules_have_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    def test_version(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


@functools.lru_cache(maxsize=None)
def _text_lines(path: pathlib.Path) -> tuple[str, ...]:
    """The lines of a text file (none for a binary one), read once."""
    try:
        return tuple(path.read_text().splitlines())
    except UnicodeDecodeError:
        return ()


def _deleted_names():
    """⟨pattern, scope paths, PR⟩ per entry of ``tests/deleted_names.txt``."""
    for line in (ROOT / "tests" / "deleted_names.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            pattern, *scope, pr = line.split()
            yield pytest.param(pattern, scope, id=f"{pr}-{pattern}")


class TestDeletedNames:
    """What CI's lint job used to grep for, under the tier-1 command."""

    @pytest.mark.parametrize("pattern, scope", _deleted_names())
    def test_deleted_name_stays_deleted(self, pattern, scope):
        excluded = [ROOT / path[1:] for path in scope if path.startswith("!")]
        roots = [ROOT / path for path in scope if not path.startswith("!")]
        assert roots and all(root.exists() for root in roots), scope
        hits = []
        for root in roots:
            for path in sorted(root.rglob("*")) if root.is_dir() else [root]:
                if (
                    not path.is_file() or "__pycache__" in path.parts
                    or path.name == "deleted_names.txt"
                    or any(skip == path or skip in path.parents for skip in excluded)
                ):
                    continue
                hits += [
                    f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
                    for number, line in enumerate(_text_lines(path), 1)
                    if re.search(pattern, line)
                ]
        assert not hits, hits


class TestDocsExist:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE", "pyproject.toml"]
    )
    def test_required_files(self, name):
        assert (ROOT / name).exists(), name

    def test_design_mentions_every_bench(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("test_bench_*.py")):
            assert bench.name in design, f"{bench.name} missing from DESIGN.md index"

    def test_readme_docs_links_exist(self):
        readme = (ROOT / "README.md").read_text()
        for match in re.findall(r"docs/(\w+\.md)", readme):
            assert (ROOT / "docs" / match).exists(), match

    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for match in re.findall(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / match).exists(), match

    def test_trace_event_table_lists_every_kind(self):
        """docs/observability.md's "Trace events" table has one row per
        registered kind, no more: a kind cannot come or go without it."""
        from repro.telemetry.trace import EVENT_TYPES

        text = (ROOT / "docs" / "observability.md").read_text()
        table = re.search(r"## Trace events\n.*?\n((?:\|[^\n]*\n)+)", text, re.S).group(1)
        kinds = {
            kind
            for row in table.splitlines()[2:]
            for kind in re.findall(r"`(\w+)`", row.split("|")[1])
        }
        assert kinds == set(EVENT_TYPES)

    def test_experiments_covers_each_figure_and_table(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for anchor in ("Figure 2", "Table 1", "Table 2", "Figure 3",
                       "Figure 4", "Figure 5", "Appendix C.1"):
            assert anchor in experiments, anchor


class TestTechniqueDocsMatchTable2:
    def test_docstring_present_on_every_technique(self):
        from repro.core.techniques import TECHNIQUES

        for cls in TECHNIQUES.values():
            assert cls.__doc__ and len(cls.__doc__.strip()) > 40, cls
