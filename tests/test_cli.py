"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

#: a link flap and a brownout, to share a timeline with ``-e`` events
MIXED_PLAN = "tests/fixtures/faults/one_timeline.json"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in (
            "topology", "failover", "compare", "sweep", "control", "appendix", "drill",
        ):
            args = parser.parse_args(
                [command, "withdrawal"] if command == "appendix" else [command]
            )
            assert callable(args.func)

    def test_seed_is_global(self):
        args = build_parser().parse_args(["--seed", "7", "topology"])
        assert args.seed == 7

    def test_failover_defaults(self):
        args = build_parser().parse_args(["failover"])
        assert args.technique == "reactive-anycast"
        assert args.site == "sea1"
        assert not args.silent

    def test_unknown_technique_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["failover", "-t", "quantum"])

    def test_parallel_flags(self):
        args = build_parser().parse_args(["compare", "--workers", "4"])
        assert args.workers == 4
        assert args.cell_timeout == 900.0
        assert not args.no_progress
        args = build_parser().parse_args(["compare"])
        assert args.workers == 1  # default stays serial

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--workers", "0"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert "combined" in args.techniques
        assert len(args.techniques) == 5
        assert args.output == "sweep.json"

    def test_sweep_unknown_technique_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "-t", "quantum"])

    @pytest.mark.parametrize("argv", [
        ["failover", "--targets", "-1"],
        ["control", "--prepends", "-1"],
        ["failover", "-t", "proactive-prepending", "--prepend", "0"],
        ["sweep", "-t", "proactive-prepending", "--prepend", "0"],
        ["playbook", "--levels", "-1"],
        ["drill", "--clients", "0"],
        ["trace", "summarize", "t.jsonl", "--top", "-2"],
        ["profile", "p.json", "--top", "-1"],
        ["workload", "--sample", "-1"],
    ], ids=lambda argv: " ".join(argv))
    def test_hostile_counts_are_usage_errors(self, argv, capsys):
        """Each used to end in a traceback (``Sample larger than
        population or is negative``, ``prepend must be >= 1``), pass
        silently, or print ``recovered 0/0 PASS`` with exit 0; the last
        three printed all but ``-N`` rows, or sampled nothing."""
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(argv)
        assert refused.value.code == 2
        assert f"argument {argv[-2]}: must " in capsys.readouterr().err

    def test_level_zero_is_the_baseline_play(self):
        assert build_parser().parse_args(["playbook", "--levels", "0"]).levels == [0]


class TestCommands:
    def test_topology_summary(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "ASes:" in out
        assert "sites: ams, ath" in out

    def test_topology_sites_flag(self, capsys):
        assert main(["topology", "--sites"]) == 0
        out = capsys.readouterr().out
        assert "region=us-west" in out

    def test_failover_small_run(self, capsys):
        code = main([
            "failover", "-t", "anycast", "-s", "msn",
            "--targets", "5", "--duration", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reconnection:" in out
        assert "failover:" in out

    def test_failover_unknown_site(self, capsys):
        code = main(["failover", "-s", "lhr", "--targets", "3", "--duration", "30"])
        assert code == 2

    def test_drill_passes(self, capsys):
        code = main(["drill", "-t", "reactive-anycast", "--clients", "5"])
        assert code == 0
        assert "all sites pass" in capsys.readouterr().out

    def test_drill_catches_the_slow_superprefix(self, capsys):
        """§4's point: under the calibrated timing the /23 takes over
        only after withdrawal path hunting (Fig. 2, ~100 s), so the
        120 s default deadline fails it and a 300 s one passes it; the
        FIB-walk audit sees the covering /23."""
        argv = ["drill", "-t", "proactive-superprefix", "--clients", "5"]
        assert main(argv) == 1
        assert "rotation verdict: FAILURES" in capsys.readouterr().out
        assert main(argv + ["--deadline", "300"]) == 0
        assert "rotation verdict: all sites pass" in capsys.readouterr().out

    def test_drill_unicast_fails(self, capsys):
        code = main(["drill", "-t", "unicast", "--clients", "5"])
        assert code == 1
        assert "FAILURES" in capsys.readouterr().out

    def test_drill_fault_flags_parse(self):
        args = build_parser().parse_args(
            ["drill", "--faults", "plan.json", "--check-invariants"]
        )
        assert args.faults == "plan.json"
        assert args.check_invariants
        args = build_parser().parse_args(["scenario", "--faults", "plan.json"])
        assert args.faults == "plan.json"

    def test_drill_missing_fault_plan_rejected(self, capsys):
        code = main(["drill", "--faults", "/nonexistent/plan.json", "--clients", "3"])
        assert code == 2
        assert "cannot load fault plan" in capsys.readouterr().err

    def test_drill_invalid_fault_plan_rejected(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"faults": [{"kind": "meteor_strike", "at": 1.0}]}')
        code = main(["drill", "--faults", str(plan), "--clients", "3"])
        assert code == 2
        assert "unknown kind 'meteor_strike'" in capsys.readouterr().err


class TestExtendedCommands:
    def test_scenario_event_parsing(self):
        from repro.cli.scenario import _parse_event

        from repro.faults import Action

        assert _parse_event("fail:sea1@60") == Action(60.0, "fail", "sea1")
        assert _parse_event("recover:msn@200.5") == Action(200.5, "recover", "msn")
        import argparse

        # no time, an unknown kind, an action -e cannot spell a target for
        for bad in ("fail:sea1", "explode:sea1@5", "link-down:sea1@5"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_event(bad)

    def test_scenario_command(self, capsys):
        code = main([
            "scenario", "-t", "anycast", "-s", "msn",
            "-e", "fail:msn@30", "--duration", "90",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "downtime" in out

    def test_scenario_unknown_site(self, capsys):
        assert main(["scenario", "-s", "lhr", "--duration", "30"]) == 2

    def test_playbook_drain(self, capsys):
        code = main(["playbook", "--drain", "ams", "--levels", "0", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best drain play for ams" in out

    def test_playbook_unknown_site(self, capsys):
        assert main(["playbook", "--drain", "lhr", "--levels", "0", "3"]) == 2

    def test_control_command(self, capsys):
        code = main(["control", "--prepends", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "not-by-anycast" in out
        assert "sea1" in out

    def test_appendix_propagation(self, capsys):
        code = main(["appendix", "propagation"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hypergiants" in out
        assert "testbed" in out

    def test_configgen_to_dir(self, capsys, tmp_path):
        code = main([
            "configgen", "-t", "reactive-anycast",
            "--specific-site", "sea1", "-o", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "sea1.conf").exists()
        assert (tmp_path / "ams.emergency.conf").exists()
        text = (tmp_path / "ams.emergency.conf").read_text()
        assert "184.164.244.0/24" in text

    def test_configgen_stdout_single_site(self, capsys):
        code = main(["configgen", "-t", "proactive-prepending", "--site", "ams"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bgp_path.prepend(47065);" in out

    def test_configgen_unknown_site(self, capsys):
        assert main(["configgen", "--site", "lhr"]) == 2

    def test_compare_small(self, capsys):
        code = main([
            "compare", "--sites", "msn", "--targets", "4", "--duration", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "proactive-superprefix" in out
        assert "failover time CDF" in out

    @pytest.mark.parametrize("argv", [
        pytest.param(["compare", "--duration", "20"], id="compare"),
        pytest.param(["failover", "-t", "combined", "--duration", "40"], id="combined"),
        pytest.param(
            ["compare", "--duration", "20", "--no-checkpoint"], id="no-checkpoint"
        ),
        pytest.param(
            ["compare", "--duration", "20", "--workload", "flash-crowd"],
            id="flash-crowd",
        ),
        # long enough into the surge (peak at 90 s) that the shed
        # techniques' overload reactions are part of what must repeat
        pytest.param(
            ["compare", "--duration", "88", "--workload", "regional-surge",
             "--capacity", "examples/capacity.json"],
            id="surge-capacity",
        ),
        pytest.param(
            ["drill", "--faults", "examples/faultplan.json", "--check-invariants"],
            id="chaos-drill",
        ),
        pytest.param(["failover", "--duration", "40"], id="failover"),
        pytest.param(
            ["failover", "--duration", "40", "--no-checkpoint"],
            id="failover-no-checkpoint",
        ),
        pytest.param(
            ["failover", "--duration", "40", "--silent", "--workload", "flash-crowd"],
            id="failover-silent-flash-crowd",
        ),
        pytest.param(["scenario", "--duration", "60"], id="scenario"),
        pytest.param(
            ["scenario", "--duration", "60", "--faults", "examples/faultplan.json"],
            id="scenario-faults",
        ),
        pytest.param(
            ["scenario", "-t", "shed-prepend", "-s", "msn", "--duration", "100",
             "--workload", "regional-surge", "--capacity", "examples/capacity.json",
             "-e", "brownout:msn@30", "-e", "unbrownout:msn@90"],
            id="scenario-surge-brownout",
        ),
        # both spellings on one timeline: -e brownout on msn, a plan
        # link flap and a plan brownout on sea1
        pytest.param(
            ["scenario", "-t", "shed-prepend", "-e", "brownout:msn@20",
             "-e", "unbrownout:msn@80", "--faults", MIXED_PLAN, "--duration", "100",
             "--workload", "constant", "--capacity", "400"],
            id="scenario-one-timeline",
        ),
    ])
    def test_determinism_matrix(self, argv, capsys):
        """A repeat run and ``--workers 2`` print byte-for-byte what the
        serial run prints: forked, cold-started, under load, under chaos
        -- for every runner (the scenario has no pool path to compare)."""
        if argv[0] == "compare":
            argv = argv + ["--sites", "msn", "sea1", "--targets", "3"]
        elif argv[0] == "failover":
            argv = argv + ["-s", "msn", "--targets", "3"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        if argv[0] == "drill":
            assert "\ninvariant violations: 0\n" in serial_out
        if MIXED_PLAN in argv:  # 2 per entry, -e brownout/unbrownout included
            assert serial_out.startswith("faults injected: 6\n")
        assert main(argv) == 0
        assert capsys.readouterr().out == serial_out
        if argv[0] != "scenario":
            assert main(argv + ["--workers", "2", "--no-progress"]) == 0
            assert capsys.readouterr().out == serial_out

    def test_plan_entry_on_an_unknown_site_is_refused(self, capsys, tmp_path):
        """A brownout on a site that does not exist used to pass the gate
        and print ``faults injected: 0 (2 skipped)``."""
        plan = tmp_path / "nosuch.json"
        plan.write_text(
            '{"faults": [{"kind": "brownout", "at": 2.0, "site": "nosuch", "down_for": 5.0}]}'
        )
        argv = ["scenario", "--duration", "20", "--faults", str(plan),
                "--workload", "constant", "--capacity", "400"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "VER231" in captured.err and "unknown site 'nosuch'" in captured.err
        assert "faults injected" not in captured.out

    def test_non_finite_run_shape_is_refused_at_the_gate(self, capsys):
        """``--duration nan`` used to print an all-censored table with
        exit 0 (NaN fails the ``<= 0`` test) and ``inf`` never returned."""
        argv = ["failover", "-s", "msn", "--targets", "3"]
        for flag, value, code in (
            ("--duration", "nan", "PRE135"),
            ("--duration", "inf", "PRE135"),
            ("--detection-delay", "nan", "PRE136"),
        ):
            assert main(argv + [flag, value]) == 2
            captured = capsys.readouterr()
            assert f"{code} error" in captured.err and "is not finite" in captured.err
            assert "failing msn" not in captured.out
        assert main(["drill", "--clients", "2", "--deadline", "nan"]) == 2
        assert "PRE135" in capsys.readouterr().err
        # --no-check overrides the gate, as for every other finding, but
        # FailoverConfig refuses a probing window that measures nothing:
        # one line, exit 2, no traceback
        assert main(argv + ["--duration", "nan", "--no-check"]) == 2
        captured = capsys.readouterr()
        assert "overridden by --no-check" in captured.err
        assert "cannot run: probe_duration nan is not finite" in captured.err

    def test_capacity_binds_only_with_a_workload_on_both_commands(self, capsys, tmp_path):
        """A brownout fault under ``--capacity`` without ``--workload``
        has no capacity state to act on: skipped, by drill and scenario
        alike; with a workload both inject it."""
        plan = tmp_path / "brownout.json"
        plan.write_text(
            '{"faults": [{"kind": "brownout", "at": 2.0, "site": "sea1", "down_for": 5.0}]}'
        )
        chaos = ["--capacity", "examples/capacity.json", "--faults", str(plan)]
        load = ["--workload", "constant"]
        scenario = ["scenario", "--duration", "20", *chaos]
        drill = ["drill", "--clients", "2", "--deadline", "20", *chaos]

        assert main(scenario) == 0
        assert "faults injected: 0 (2 skipped)\n" in capsys.readouterr().out
        assert main(drill) in (0, 1)
        assert "  faults 0 (+2 skipped)  " in capsys.readouterr().out

        assert main(scenario + load) == 0
        assert "faults injected: 2\n" in capsys.readouterr().out
        assert main(drill + load) in (0, 1)
        assert "  faults 2  " in capsys.readouterr().out

    def test_sweep_writes_archive(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "-t", "anycast", "--sites", "msn", "sea1",
            "--targets", "4", "--duration", "40", "-o", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "2 cells" in text
        assert "anycast" in text
        import json

        doc = json.loads(out.read_text())
        assert doc["workers"] == 1
        assert [c["cell"] for c in doc["cells"]] == ["anycast/msn", "anycast/sea1"]
        assert set(doc["pooled"]) == {"anycast"}

    def test_sweep_unknown_site(self, capsys, tmp_path):
        code = main(["sweep", "--sites", "lhr", "-o", str(tmp_path / "s.json")])
        assert code == 2
        assert "unknown site" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["failover", "-s", "lhr"], ["compare", "--sites", "lhr"],
        ["sweep", "--sites", "lhr"], ["scenario", "-s", "lhr"],
        ["configgen", "--site", "lhr"], ["playbook", "--drain", "lhr", "--levels", "0"],
        ["verify", "-s", "lhr"],
        pytest.param(["configgen", "--specific-site", "lhr"], id="configgen-specific-site"),
    ], ids=lambda argv: argv[0])
    def test_unknown_site_is_one_sentence_on_stderr(self, argv, capsys):
        """``failover`` ... ``playbook --drain`` used to print it to stdout;
        ``configgen --specific-site`` ended in a ``KeyError`` traceback."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "unknown site" not in captured.out
        assert captured.err.startswith("unknown site 'lhr'; have ['ams', ")

    def test_failover_silent_flag(self, capsys):
        code = main([
            "failover", "-t", "anycast", "-s", "msn", "--silent",
            "--targets", "4", "--duration", "60", "--detection-delay", "5",
        ])
        assert code == 0
        assert "silent failure" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_failover_trace_and_summarize(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        code = main([
            "failover", "-t", "anycast", "-s", "msn",
            "--targets", "4", "--duration", "60", "--trace", str(trace),
        ])
        assert code == 0
        assert trace.exists()
        capsys.readouterr()

        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phase timings" in out
        assert "fail-probe" in out
        assert "BGP updates" in out
        assert "site failures" in out

    def test_failover_metrics_dump(self, capsys):
        code = main([
            "failover", "-t", "anycast", "-s", "msn",
            "--targets", "4", "--duration", "60", "--metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # Results first, then the metrics dump.
        assert "bgp.updates_sent" in out
        assert out.index("failover:") < out.index("bgp.updates_sent")

    def test_summarize_missing_file(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "missing.jsonl")]) == 2

    def test_summarize_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "summarize", str(bad)]) == 2

    def test_verbose_flag_parses(self):
        args = build_parser().parse_args(["-vv", "topology"])
        assert args.verbose == 2
        assert build_parser().parse_args(["topology"]).verbose == 0


SMALL_RUN = ["-s", "msn", "--targets", "3", "--duration", "30"]


class TestOutputPaths:
    """Results are not lost after the work is done: every flag that names
    a file to write is probed before any event fires."""

    @pytest.mark.parametrize("argv, label", [
        (["failover", "-t", "anycast", *SMALL_RUN, "--trace", "{blocked}/t.jsonl"], "trace"),
        (["failover", "-t", "anycast", *SMALL_RUN, "--profile", "{blocked}/p.json"], "profile"),
        (["sweep", "-t", "anycast", "--sites", "msn", "--targets", "3", "--duration", "30",
          "-o", "{blocked}/s.json"], "archive"),
        (["report", "{trace}", "--json", "{blocked}/ledger.json"], "ledger"),
        (["configgen", "--site", "msn", "-o", "{blocked}/conf"], "config"),
    ], ids=("trace", "profile", "sweep-o", "report-json", "configgen-o"))
    def test_an_unwritable_output_is_one_line_and_exit_2(self, argv, label, capsys, tmp_path):
        """``sweep -o`` used to run the whole sweep and then die in
        ``save_json``; ``report --json`` and ``configgen -o`` ended in
        ``NotADirectoryError`` tracebacks (``--trace`` / ``--profile``
        already failed fast: the probe is theirs, lifted)."""
        blocked = tmp_path / "a-file"
        blocked.write_text("")
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        argv = [arg.format(blocked=blocked, trace=trace) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"cannot write {label} file {blocked}/")

    def test_a_new_directory_is_created_for_every_flag(self, capsys, tmp_path):
        trace = tmp_path / "new" / "t.jsonl"
        archive = tmp_path / "newer" / "s.json"
        assert main(["sweep", "-t", "anycast", "--sites", "msn", "--targets", "3",
                     "--duration", "30", "--trace", str(trace), "-o", str(archive)]) == 0
        assert trace.stat().st_size and json.loads(archive.read_text())["cells"]


class TestHostileRunShape:
    """The two flags the gate's run-shape rows had missed."""

    @pytest.mark.parametrize("value, refusal", [
        ("nan", "is not finite"), ("inf", "is not finite"), ("-5", "is not positive"),
    ])
    def test_workload_duration(self, value, refusal, capsys):
        """``nan`` / ``inf`` used to be tracebacks from
        ``expected_requests``; ``-5`` printed a ``0..-5s`` sparkline."""
        assert main(["workload", "flash-crowd", "--duration", value]) == 2
        captured = capsys.readouterr()
        assert f"PRE135 error: duration {value} {refusal}" in captured.err
        assert "rate |" not in captured.out

    @pytest.mark.parametrize("value, refusal", [
        ("nan", "is not finite"), ("-5", "is negative"),
    ])
    def test_scenario_grace(self, value, refusal, capsys):
        argv = ["scenario", "--duration", "30", "--grace", value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"PRE137 error: recovery_grace {value} {refusal}" in captured.err
        assert "availability" not in captured.out
        assert main(argv + ["--no-check"]) == 0
        assert "overridden by --no-check" in capsys.readouterr().err


class TestPoolFailureAtTheCli:
    """A dying or hung worker ends in per-cell lines and an exit code at
    the command, not only inside ``map_cells`` (the patches are made
    before the pool forks, so the workers inherit them)."""

    def test_sweep_keeps_the_surviving_cells(self, capsys, tmp_path, monkeypatch):
        import os
        import time

        from repro.core.experiment import FailoverExperiment

        real = FailoverExperiment.run_site

        def hostile(self, technique, site):
            if site == "msn":
                os._exit(3)
            if site == "sea1":
                time.sleep(60)
            return real(self, technique, site)

        monkeypatch.setattr(FailoverExperiment, "run_site", hostile)
        archive = tmp_path / "sweep.json"
        code = main([
            "sweep", "-t", "anycast", "--sites", "msn", "sea1", "ams",
            "--targets", "3", "--duration", "30", "--workers", "2",
            "--cell-timeout", "4", "--no-progress", "-o", str(archive),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "sweep: cell anycast/msn crashed" in captured.err
        assert "sweep: cell anycast/sea1 timeout" in captured.err
        assert "(1 crashed, 1 ok, 1 timeout)" in captured.out
        cells = {cell["cell"]: cell["status"] for cell in json.loads(archive.read_text())["cells"]}
        assert cells == {"anycast/msn": "crashed", "anycast/sea1": "timeout", "anycast/ams": "ok"}

    def test_a_failover_cell_that_raises_is_a_line_at_every_worker_count(
        self, capsys, monkeypatch
    ):
        """``repro failover`` runs its one cell through the sweep at
        ``--workers 1`` too: an exception is a ``sweep: cell`` line and
        exit 1, not a traceback."""
        from repro.core.experiment import FailoverExperiment

        def hostile(self, technique, site):
            raise ValueError("no route to the hitlist")

        monkeypatch.setattr(FailoverExperiment, "run_site", hostile)
        assert main(["failover", "-t", "anycast", "-s", "msn",
                     "--targets", "3", "--duration", "30"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            "sweep: cell anycast/msn error: ValueError: no route to the hitlist"
        )
        assert "Traceback" not in captured.err and "reconnection:" not in captured.out

    def test_drill_aborts_on_stderr(self, capsys, monkeypatch):
        import os

        from repro.core.drill import RotationDrill

        real = RotationDrill.run_site

        def hostile(self, site, clients):
            if site == "msn":
                os._exit(3)
            return real(self, site, clients)

        monkeypatch.setattr(RotationDrill, "run_site", hostile)
        assert main(["drill", "--clients", "2", "--deadline", "20",
                     "--workers", "2", "--no-progress"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            "drill aborted: 1 drill cell(s) failed: drill/msn: crashed"
        )
        assert "drill aborted" not in captured.out and "rotation verdict" not in captured.out

    def test_a_drill_site_that_raises_aborts_in_process_too(self, capsys, monkeypatch):
        """At ``--workers 1`` the rotation runs through the same pool
        call: a site that raises is the ``drill aborted:`` line and exit
        2, not a traceback."""
        from repro.core.drill import RotationDrill

        real = RotationDrill.run_site

        def hostile(self, site, clients):
            if site == "msn":
                raise ValueError("no route to the test prefix")
            return real(self, site, clients)

        monkeypatch.setattr(RotationDrill, "run_site", hostile)
        assert main(["drill", "--clients", "2", "--deadline", "20",
                     "--workers", "1", "--no-progress"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            "drill aborted: 1 drill cell(s) failed: drill/msn: error"
        )
        assert "Traceback" not in captured.err
        assert "rotation verdict" not in captured.out


class TestHashSeed:
    """The result bytes do not depend on the interpreter's string-hash
    salt. Sets iterate in hash order -- of prefixes, of node names, whose
    hash that salt changes -- and the benchmark always runs under one fixed
    ``PYTHONHASHSEED``, so this is the leg that varies it: a forked
    matrix and a cold-started failover, each run in two processes under
    different salts, print the same stdout."""

    @pytest.mark.parametrize("argv", [
        ["compare", "--sites", "msn", "sea1", "--targets", "3"],
        ["failover", "-s", "msn", "--targets", "3", "--no-checkpoint"],
    ], ids=["compare", "failover-cold"])
    def test_stdout_is_the_same_under_every_hash_seed(self, argv):
        import os
        import pathlib
        import subprocess
        import sys

        root = pathlib.Path(__file__).resolve().parent.parent
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(root / "src")},
                capture_output=True, text=True, check=True, cwd=str(root),
            ).stdout
            for seed in ("0", "123")
        ]
        assert outputs[0] and outputs[0] == outputs[1]
