"""The static half of ``tools/reach.py``: its function and line table,
``KEPT`` and ``UNRUN``, the report, and the hook in child interpreters.

The traced half runs the paper table, the goldens, lint, the smoke steps
and the bench batches (CI's ``reach`` job); this part runs in tier-1 so a
deleted or renamed function cannot leave a stale ``KEPT`` or ``UNRUN``
row behind.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("reach", REPO_ROOT / "tools" / "reach.py")
reach = sys.modules["reach"] = importlib.util.module_from_spec(_spec)  # @dataclass looks it up
_spec.loader.exec_module(reach)

LIBRARY_API = "library API the tests build or inspect with; no command needs it"


def test_every_kept_key_names_a_function_with_a_reason():
    keys = {function.key for function in reach.functions(REPO_ROOT / "src")}
    assert sorted(set(reach.KEPT) - keys) == []
    assert sorted(set(reach.UNRUN) - keys) == []
    assert all(reason.strip() for reason in (*reach.KEPT.values(), *reach.UNRUN.values()))


def test_unrun_rows_lie_in_triaged_files_and_the_library_api_class_stays_small():
    assert all(key.split("::")[0] in reach.TRIAGED for key in reach.UNRUN)
    assert all((REPO_ROOT / "src" / path).is_file() for path in reach.TRIAGED)
    assert 0 < list(reach.KEPT.values()).count(LIBRARY_API) <= 10


def test_no_two_functions_of_a_file_share_a_first_line():
    """A dump names a code object by ⟨file, first line⟩, so that pair must
    pick out one function."""
    firsts = [(function.path, function.first) for function in reach.functions(REPO_ROOT / "src")]
    assert len(firsts) == len(set(firsts))


def test_a_function_starts_at_its_first_decorator_and_owns_no_nested_lines(tmp_path):
    module = tmp_path / "repro" / "m.py"
    module.parent.mkdir()
    module.write_text(textwrap.dedent('''\
        class C:
            @property
            @staticmethod
            def p():
                def inner():
                    return 1
                return inner


        def f():
            pass
    '''))
    table = {f.qualname: (f.path, f.first, sorted(f.lines)) for f in reach.functions(tmp_path)}
    assert table == {
        "C.p": ("repro/m.py", 2, [2, 5, 7]),  # the call, making inner, returning it
        "C.p.inner": ("repro/m.py", 5, [5, 6]),
        "f": ("repro/m.py", 10, [10, 11]),
    }


def test_a_lambda_or_comprehension_is_no_function_of_its_own(tmp_path):
    module = tmp_path / "repro" / "m.py"
    module.parent.mkdir()
    module.write_text("def f(xs):\n    key = lambda x: -x\n    return sorted(\n"
                      "        [x for x in xs], key=key)\n")
    (function,) = reach.functions(tmp_path)
    assert (function.qualname, function.first) == ("f", 1)
    assert {1, 2, 3}.issubset(function.lines)


def test_an_async_function_counts_like_a_def_and_keys_by_path_and_qualname(tmp_path):
    module = tmp_path / "repro" / "pkg" / "m.py"
    module.parent.mkdir(parents=True)
    module.write_text("async def g():\n    await x\n    return 1\n")
    (function,) = reach.functions(tmp_path)
    assert (function.qualname, function.first, sorted(function.lines)) == ("g", 1, [1, 2, 3])
    assert function.key == "repro/pkg/m.py::g"


def test_reached_keeps_only_code_objects_of_this_tree_and_merges_their_lines(tmp_path):
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    out = tmp_path / "out"
    out.mkdir()
    (out / "1-a").write_text(f"{src / 'repro' / 'm.py'}\t3\t3 4\n"
                             f"{tmp_path / 'other' / 'repro.py'}\t1\t1\n")
    (out / "2-b").write_text(f"{src / 'repro' / 'sub' / '..' / 'm.py'}\t3\t3 6\n"
                             f"{src / 'repro' / 'm.py'}\t9\t9\n")
    assert reach.reached(out, src) == {("repro/m.py", 3): {3, 4, 6}, ("repro/m.py", 9): {9}}


def test_ranges_folds_runs_of_lines():
    assert reach._ranges([3, 4, 5, 9, 11, 12]) == "3-5 9 11-12"
    assert reach._ranges([]) == ""


def _table(tmp_path, capsys, monkeypatch, reached, floor=0.0):
    every = [reach.Function("repro/a.py", "f", 1, frozenset({1, 2, 3, 4})),
             reach.Function("repro/a.py", "g", 8, frozenset({8, 9})),
             reach.Function("repro/b.py", "h", 1, frozenset({1, 2, 3, 4}))]
    monkeypatch.setattr(reach, "KEPT", {"repro/a.py::g": "a reason"})
    monkeypatch.setattr(reach, "TRIAGED", frozenset({"repro/a.py"}))
    monkeypatch.setattr(reach, "UNRUN", {})
    monkeypatch.setattr(reach, "LINE_FLOOR", floor)
    problems = reach.report(every, reached)
    return problems, capsys.readouterr().out.splitlines()


def test_report_prints_function_and_line_reach_per_source_and_for_the_union(
        tmp_path, capsys, monkeypatch):
    problems, printed = _table(tmp_path, capsys, monkeypatch, {
        "one": {("repro/a.py", 1): {1, 2}},
        "two": {("repro/a.py", 1): {1, 3}, ("repro/b.py", 1): {1, 2, 3, 4}},
    })
    assert printed[1].split() == ["one", "1", "3", "33.3", "%", "2", "10", "20.0", "%"]
    assert printed[2].split() == ["two", "2", "3", "66.7", "%", "6", "10", "60.0", "%"]
    assert printed[3].split() == ["union", "2", "3", "66.7", "%", "7", "10", "70.0", "%"]
    assert printed[5:12] == [
        "unexecuted inside reached functions: 1 of 8 line(s)",
        "      1 repro/a.py",
        "",
        "unexecuted lines of repro/a.py",
        "    f 4 -- NOT KEPT",
        "",
        "unreached: 1 function(s), 2 line(s)",
    ]
    assert printed[12:] == ["  repro/a.py", "        8 g (2 lines) -- kept: a reason"]
    assert problems == ["unexecuted lines not in UNRUN: repro/a.py::f"]


def test_report_refuses_an_unkept_function_and_a_union_below_the_floor(
        tmp_path, capsys, monkeypatch):
    problems, printed = _table(tmp_path, capsys, monkeypatch,
                               {"one": {("repro/a.py", 1): {1, 2, 3, 4}}}, floor=50.0)
    assert "        1 h (4 lines) -- NOT KEPT" in printed
    assert problems == ["unreached function not in KEPT: repro/b.py::h",
                        "union line reach 40.0 % is below LINE_FLOOR 50.0 %"]


PROBE = '''\
"""The module's own code object starts at line 1."""
import sys


def called(flag):
    if flag:
        return sys._getframe().f_trace is not None
    return sys._getframe().f_trace is not None


def never():
    return 2
'''


def _hooked(tmp_path, body):
    """Run ``body`` under the reach hook: ⟨the lines that ran in each of
    the probe module's code objects it entered, by first line (1 is the
    module, 5 ``called``, 11 ``never``), what ``body`` printed⟩."""
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(reach.HOOK)
    (tmp_path / "repro_probe.py").write_text(PROBE)
    out = tmp_path / "out"
    out.mkdir()
    env = {**os.environ, "REACH_OUT": str(out), "PYTHONPATH": f"{hook}{os.pathsep}{tmp_path}"}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(body)], env=env, check=True,
                          stdout=subprocess.PIPE, text=True, timeout=60)
    probe = str(tmp_path / "repro_probe.py")
    lines: dict[int, set[int]] = {}
    for dump in out.iterdir():
        for record in dump.read_text().splitlines():
            filename, first, ran = record.split("\t")
            if filename == probe:
                lines.setdefault(int(first), set()).update(map(int, ran.split()))
    return lines, done.stdout.split()


def test_the_hook_records_the_lines_a_process_runs(tmp_path):
    lines, _ = _hooked(tmp_path, """\
        import repro_probe
        repro_probe.called(True)
    """)
    assert lines == {1: {1, 2, 5, 11}, 5: {5, 6, 7}}


def test_the_hook_keeps_its_tracer_when_settrace_clears_it(tmp_path):
    lines, _ = _hooked(tmp_path, """\
        import sys
        import repro_probe
        sys.settrace(None)
        repro_probe.called(False)
    """)
    assert lines[5] == {5, 6, 8}


def test_the_hook_stops_tracing_a_function_once_all_its_lines_ran(tmp_path):
    lines, printed = _hooked(tmp_path, """\
        import repro_probe
        print(repro_probe.called(True), repro_probe.called(False), repro_probe.called(True))
    """)
    # the second call runs the last unseen line, which takes the frame's
    # tracer away; the third call is not traced at all
    assert printed == ["True", "False", "False"]
    assert lines[5] == {5, 6, 7, 8}


def test_the_hook_hears_threads(tmp_path):
    lines, _ = _hooked(tmp_path, """\
        import threading
        import repro_probe
        thread = threading.Thread(target=repro_probe.called, args=(False,))
        thread.start()
        thread.join()
    """)
    assert lines[5] == {5, 6, 8}


def test_the_hook_writes_a_forked_child_s_lines_before_it_os_exits(tmp_path):
    lines, _ = _hooked(tmp_path, """\
        import os
        import repro_probe
        pid = os.fork()
        if pid == 0:
            repro_probe.never()
            os._exit(0)
        os.waitpid(pid, 0)
    """)
    assert lines == {1: {1, 2, 5, 11}, 11: {11, 12}}


def test_the_shim_puts_the_hook_before_a_step_s_own_pythonpath(tmp_path):
    shim = tmp_path / "python"
    shim.write_text(reach.SHIM.format(hook=tmp_path / "hook", python=sys.executable))
    shim.chmod(0o755)
    done = subprocess.run(
        [str(shim), "-c", "import os; print(os.environ['PYTHONPATH'])"],
        env={**os.environ, "PYTHONPATH": "src"}, stdout=subprocess.PIPE, text=True,
        check=True, timeout=60,
    )
    assert done.stdout.strip() == f"{tmp_path / 'hook'}{os.pathsep}src"
