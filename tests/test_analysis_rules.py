"""Per-rule tests for the determinism linter.

Every rule gets a positive case (the hazard fires), a negative case
(the safe idiom stays silent), and a noqa suppression case.
"""

import pytest

from repro.analysis import LintEngine

ENGINE = LintEngine()


def codes(source: str) -> list[str]:
    return [finding.code for finding in ENGINE.lint_source(source)]


class TestUnseededRandom:
    def test_positive(self):
        assert codes("import random\nrng = random.Random()\n") == ["DET001"]

    def test_bare_name(self):
        assert codes("from random import Random\nrng = Random()\n") == ["DET001"]

    def test_system_random(self):
        assert codes("import random\nrng = random.SystemRandom()\n") == ["DET001"]

    def test_negative_seeded(self):
        assert codes("import random\nrng = random.Random(42)\n") == []

    def test_negative_keyword_seed(self):
        assert codes("import random\nrng = random.Random(x=42)\n") == []

    def test_noqa(self):
        source = "import random\nrng = random.Random()  # repro: noqa[DET001]\n"
        assert codes(source) == []


class TestModuleLevelRandom:
    @pytest.mark.parametrize("call", [
        "random.random()",
        "random.randint(0, 10)",
        "random.choice([1, 2])",
        "random.shuffle(items)",
        "random.seed(42)",
        "random.lognormvariate(0.0, 1.2)",
    ])
    def test_positive(self, call):
        assert codes(f"import random\nvalue = {call}\n") == ["DET002"]

    def test_negative_instance_method(self):
        source = "import random\nrng = random.Random(1)\nvalue = rng.random()\n"
        assert codes(source) == []

    def test_negative_other_module(self):
        assert codes("value = numpy.random(3)\n") == []

    @pytest.mark.parametrize("call", [
        "np.random.rand(3)",
        "numpy.random.poisson(4.0, size=10)",
        "np.random.seed(42)",
        "np.random.default_rng()",
        "numpy.random.RandomState()",
    ])
    def test_numpy_global_or_unseeded(self, call):
        assert codes(f"import numpy as np\nvalue = {call}\n") == ["DET002"]

    @pytest.mark.parametrize("call", [
        "np.random.default_rng(42)",
        "numpy.random.RandomState(seed=7)",
        "np.random.Generator(np.random.PCG64(3))",
        "rng.poisson(4.0)",
    ])
    def test_numpy_seeded_generator_is_clean(self, call):
        assert codes(f"import numpy as np\nvalue = {call}\n") == []

    def test_noqa(self):
        source = "import random\nvalue = random.random()  # repro: noqa[DET002]\n"
        assert codes(source) == []


class TestHashDerivedSeed:
    def test_positive_random_ctor(self):
        assert codes("rng = random.Random(hash(client_id))\n") == ["DET003"]

    def test_positive_masked(self):
        assert codes("rng = random.Random(hash(x) & 0xFFFFFFFF)\n") == ["DET003"]

    def test_positive_seed_method(self):
        assert codes("rng.seed(hash(name))\n") == ["DET003"]

    def test_negative_crc32(self):
        assert codes("rng = random.Random(zlib.crc32(b'x'))\n") == []

    def test_negative_hash_elsewhere(self):
        assert codes("bucket = hash(key) % n\n") == []

    def test_noqa(self):
        assert codes("rng.seed(hash(n))  # repro: noqa[DET003]\n") == []


class TestWallClockRead:
    @pytest.mark.parametrize("call", [
        "time.time()",
        "time.perf_counter()",
        "time.monotonic()",
        "datetime.now()",
        "datetime.datetime.utcnow()",
        "datetime.date.today()",
    ])
    def test_positive(self, call):
        assert codes(f"value = {call}\n") == ["DET004"]

    def test_negative_engine_clock(self):
        assert codes("value = engine.now\n") == []

    def test_negative_sleep(self):
        assert codes("time.sleep(1)\n") == []

    def test_telemetry_path_exempt(self):
        findings = ENGINE.lint_source(
            "import time\nstart = time.time()\n",
            path="src/repro/telemetry/metrics.py",
        )
        assert findings == []

    def test_non_telemetry_path_not_exempt(self):
        findings = ENGINE.lint_source(
            "import time\nstart = time.time()\n",
            path="src/repro/bgp/engine.py",
        )
        assert [f.code for f in findings] == ["DET004"]

    def test_noqa(self):
        assert codes("t0 = time.time()  # repro: noqa[DET004]\n") == []


class TestSetIterationOrder:
    def test_positive_set_call(self):
        assert codes("for x in set(items):\n    use(x)\n") == ["DET005"]

    def test_positive_set_literal(self):
        assert codes("for x in {1, 2, 3}:\n    use(x)\n") == ["DET005"]

    def test_positive_comprehension(self):
        assert codes("out = [f(x) for x in frozenset(items)]\n") == ["DET005"]

    def test_negative_sorted(self):
        assert codes("for x in sorted(set(items)):\n    use(x)\n") == []

    def test_negative_list(self):
        assert codes("for x in [1, 2, 3]:\n    use(x)\n") == []

    def test_negative_dict_literal(self):
        # dicts preserve insertion order; {} here is a Dict node, not a Set
        assert codes("for x in {'a': 1}:\n    use(x)\n") == []

    def test_noqa(self):
        assert codes("for x in set(items):  # repro: noqa[DET005]\n    use(x)\n") == []


class TestFloatTimeEquality:
    def test_positive_attribute(self):
        assert codes("if event.t == failure.at:\n    pass\n") == ["DET006"]

    def test_positive_suffixed_name(self):
        assert codes("if sent_at == expires_at:\n    pass\n") == ["DET006"]

    def test_positive_not_equal(self):
        assert codes("if probe.time != reply.time:\n    pass\n") == ["DET006"]

    def test_negative_ordering(self):
        assert codes("if probe.sent_at <= now:\n    pass\n") == []

    def test_negative_literal_comparison(self):
        # comparisons against literals are sentinel checks, not time math
        assert codes("if at == 0:\n    pass\n") == []

    def test_negative_generic_t_name(self):
        # a bare `t` is any old loop variable, not necessarily a timestamp
        assert codes("ok = [t for t in transits if t == primary]\n") == []

    def test_is_warning(self):
        findings = ENGINE.lint_source("if event.t == other.t:\n    pass\n")
        assert [f.severity.value for f in findings] == ["warning"]

    def test_noqa(self):
        assert codes("same = a.t == b.t  # repro: noqa[DET006]\n") == []


class TestMutableDefaultArgument:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "list()", "dict()"])
    def test_positive(self, default):
        assert codes(f"def f(x={default}):\n    return x\n") == ["DET007"]

    def test_positive_kwonly(self):
        assert codes("def f(*, x=[]):\n    return x\n") == ["DET007"]

    def test_negative_none_default(self):
        assert codes("def f(x=None):\n    return x or []\n") == []

    def test_negative_tuple_default(self):
        assert codes("def f(x=()):\n    return x\n") == []

    def test_noqa(self):
        assert codes("def f(x=[]):  # repro: noqa[DET007]\n    return x\n") == []


class TestSingleCallSite:
    SOURCE = (
        "network = topology.build_network(seed=1)\n"
        "controller = CdnController(network=network)\n"
    )

    def test_bad_fourth_scratch_solver(self):
        """A network built (or a controller assembled) outside the
        runners is a second statement of what the rig / the settled
        solver already state."""
        findings = ENGINE.lint_source(self.SOURCE, path="src/repro/measurement/catchment.py")
        assert [f.code for f in findings] == ["DET011", "DET011"]
        assert "core/experiment.py" in findings[0].message
        assert "core/rig.py" in findings[1].message

    def test_good_designated_modules_and_code_outside_the_package(self):
        build, construct = self.SOURCE.splitlines(keepends=True)
        assert ENGINE.lint_source(build, path="src/repro/core/drill.py") == []
        assert ENGINE.lint_source(construct, path="src/repro/core/rig.py") == []
        assert ENGINE.lint_source(self.SOURCE, path="tests/test_core_drill.py") == []
        # defining the callable is not calling it
        assert codes("def build_network(self):\n    return None\n") == []

    def test_the_valley_free_rule_is_read_through_policy(self):
        """The next copy of the valley-free rule -- a solver that calls
        ``should_export`` itself instead of ``exported`` / ``relayed``."""
        source = "if should_export(learned_over, relationship):\n    pass\n"
        (finding,) = ENGINE.lint_source(source, path="src/repro/topology/propagation.py")
        assert finding.code == "DET011" and "bgp/policy.py" in finding.message
        assert ENGINE.lint_source(source, path="src/repro/bgp/policy.py") == []
        assert ENGINE.lint_source(source, path="tests/policy_oracle.py") == []

    def test_a_fib_is_written_through_the_router(self):
        """A FIB write that skips the router's install skips the hook
        that re-walks the packets in the air: only the router (and a
        restore, before any packet flies) may call ``fib.insert`` /
        ``fib.remove``, however the FIB is reached."""
        source = (
            "network.routers[node].fib.insert(prefix, next_hop)\n"
            "router.fib.remove(prefix)\n"
            "fib.insert(prefix, node)\n"
        )
        findings = ENGINE.lint_source(source, path="src/repro/faults/injector.py")
        assert [f.code for f in findings] == ["DET011"] * 3
        assert "fib.insert() may only be called from bgp/router.py" in findings[0].message
        assert "fib.remove()" in findings[1].message
        for allowed in ("src/repro/bgp/router.py", "src/repro/checkpoint/codec.py",
                        "tests/test_faults_invariants.py"):
            assert ENGINE.lint_source(source, path=allowed) == []
        # other tables' insert / remove are someone else's business
        assert ENGINE.lint_source(
            "table.insert(prefix, 1)\nself._cache.remove(key)\n",
            path="src/repro/net/lpm.py",
        ) == []

    def test_a_command_prologue_is_stated_once(self):
        """A subcommand that builds its own testbed, gates its own run or
        opens its own session regrows the prologue the CLI registrar
        states once."""
        source = (
            "deployment = build_deployment(params=TopologyParams(seed=args.seed))\n"
            "if not gate(args, world):\n    pass\n"
            "with telemetry_session(args):\n    pass\n"
        )
        findings = ENGINE.lint_source(source, path="src/repro/cli/drill.py")
        assert [f.code for f in findings] == ["DET011"] * 3
        assert ("build_deployment() may only be called from cli/common.py, verify/world.py"
                in findings[0].message)
        assert "gate() may only be called from cli/common.py;" in findings[1].message
        assert "telemetry_session() may only be called from cli/common.py;" in findings[2].message
        assert ENGINE.lint_source(source, path="src/repro/cli/common.py") == []
        assert ENGINE.lint_source(source, path="tests/test_cli.py") == []
        # a fixture world builds its own small deployment, and only that
        (build, *_) = source.splitlines(keepends=True)
        assert ENGINE.lint_source(build, path="src/repro/verify/world.py") == []
        assert [f.code for f in ENGINE.lint_source(source, path="src/repro/verify/world.py")] == [
            "DET011", "DET011",
        ]


class TestNumpyTranscendental:
    PATH = "src/repro/workload/stream.py"

    @pytest.mark.parametrize("use", [
        "gaps = -np.log(1.0 - u) / rate",
        "y = numpy.exp(x)",
        "y = np.sin(angle) + np.cos(angle)",
        "gaps = list(map(np.log1p, u))",
        "y = np.power(x, 0.9)",
    ])
    def test_positive(self, use):
        findings = ENGINE.lint_source(f"import numpy as np\n{use}\n", path=self.PATH)
        assert {f.code for f in findings} == {"DET012"}
        assert "libm" in findings[0].message

    @pytest.mark.parametrize("use", [
        "gaps = -np.array(list(map(math.log, u))) / rate",
        "y = np.sqrt(x) * np.cumsum(x)",
        "y = rng.log(x)",
        "y = np.random.default_rng(1)",
    ])
    def test_negative(self, use):
        assert ENGINE.lint_source(f"import numpy as np\n{use}\n", path=self.PATH) == []

    def test_only_inside_the_package(self):
        source = "import numpy as np\ncdf = -np.expm1(-gaps)\n"
        assert ENGINE.lint_source(source, path="tests/test_workload_stream.py") == []
        assert [f.code for f in ENGINE.lint_source(source, path=self.PATH)] == ["DET012"]

    def test_noqa(self):
        source = "y = np.exp(x)  # repro: noqa[DET012]\n"
        assert ENGINE.lint_source(source, path=self.PATH) == []
