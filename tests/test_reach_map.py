"""The static half of ``tools/reach.py``: its function table and ``KEPT``.

The traced half runs the paper table, the goldens, lint, the smoke steps
and the bench batches (CI's ``reach`` job); this part runs in tier-1 so a
deleted or renamed function cannot leave a stale ``KEPT`` row behind.
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


def test_every_kept_key_names_a_function_with_a_reason():
    keys = {function.key for function in reach.functions(REPO_ROOT / "src")}
    assert sorted(set(reach.KEPT) - keys) == []
    assert all(reason.strip() for reason in reach.KEPT.values())


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
    table = {f.qualname: (f.path, f.first, f.lines) for f in reach.functions(tmp_path)}
    assert table == {
        "C.p": ("repro/m.py", 2, 4),  # lines 2-7 less inner's 5-6
        "C.p.inner": ("repro/m.py", 5, 2),
        "f": ("repro/m.py", 10, 2),
    }


def test_an_async_function_counts_like_a_def_and_keys_by_path_and_qualname(tmp_path):
    module = tmp_path / "repro" / "pkg" / "m.py"
    module.parent.mkdir(parents=True)
    module.write_text("async def g():\n    await x\n    return 1\n")
    (function,) = reach.functions(tmp_path)
    assert (function.qualname, function.first, function.lines) == ("g", 1, 3)
    assert function.key == "repro/pkg/m.py::g"


def test_reached_keeps_only_code_objects_of_this_tree(tmp_path):
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    out = tmp_path / "out"
    out.mkdir()
    (out / "1-a").write_text(f"{src / 'repro' / 'm.py'}\t3\n{tmp_path / 'other' / 'repro.py'}\t1\n")
    (out / "2-b").write_text(f"{src / 'repro' / 'sub' / '..' / 'm.py'}\t9\n")
    assert reach.reached(out, src) == {("repro/m.py", 3), ("repro/m.py", 9)}


def test_report_prints_each_source_and_the_union_and_refuses_only_the_unkept(
        tmp_path, capsys, monkeypatch):
    every = [reach.Function("repro/a.py", "f", 1, 6),
             reach.Function("repro/a.py", "g", 8, 2),
             reach.Function("repro/b.py", "h", 1, 2)]
    monkeypatch.setattr(reach, "KEPT", {"repro/a.py::g": "a reason"})
    refused = reach.report(every, {"one": {("repro/a.py", 1)}, "two": set()})
    assert refused == [every[2]]
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].split() == ["one", "1", "3", "6", "10", "60.0", "%"]
    assert printed[2].split() == ["two", "0", "3", "0", "10", "0.0", "%"]
    assert printed[3].split() == ["union", "1", "3", "6", "10", "60.0", "%"]
    assert printed[5:] == [
        "unreached: 2 function(s), 4 line(s)",
        "  repro/a.py",
        "        8 g (2 lines) -- kept: a reason",
        "  repro/b.py",
        "        1 h (2 lines) -- NOT KEPT",
    ]


def _hooked(tmp_path, body):
    """Run ``body`` under the reach hook; the first lines of the probe
    module's code objects it entered (1 is the module, 4 ``called``, 8 ``never``)."""
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(reach.HOOK)
    (tmp_path / "repro_probe.py").write_text(textwrap.dedent('''\
        """The module's own code object starts at line 1."""


        def called():
            return 1


        def never():
            return 2
    '''))
    out = tmp_path / "out"
    out.mkdir()
    env = {**os.environ, "REACH_OUT": str(out), "PYTHONPATH": f"{hook}{os.pathsep}{tmp_path}"}
    subprocess.run([sys.executable, "-c", textwrap.dedent(body)], env=env, check=True,
                   timeout=60)
    probe = str(tmp_path / "repro_probe.py")
    return {int(first) for dump in out.iterdir()
            for filename, first in (line.rsplit("\t", 1) for line in dump.read_text().splitlines())
            if filename == probe}


def test_the_hook_records_the_functions_a_process_enters(tmp_path):
    assert _hooked(tmp_path, """\
        import repro_probe
        repro_probe.called()
    """) == {1, 4}


def test_the_hook_keeps_its_tracer_when_settrace_clears_it(tmp_path):
    assert _hooked(tmp_path, """\
        import sys
        import repro_probe
        sys.settrace(None)
        repro_probe.called()
    """) == {1, 4}


def test_the_hook_hears_threads(tmp_path):
    assert _hooked(tmp_path, """\
        import threading
        import repro_probe
        thread = threading.Thread(target=repro_probe.called)
        thread.start()
        thread.join()
    """) == {1, 4}


def test_the_hook_writes_its_record_before_a_forked_child_os_exits(tmp_path):
    assert _hooked(tmp_path, """\
        import os
        import repro_probe
        pid = os.fork()
        if pid == 0:
            repro_probe.never()
            os._exit(0)
        os.waitpid(pid, 0)
    """) == {1, 8}


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
