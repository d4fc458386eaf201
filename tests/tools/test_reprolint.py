"""Positive and negative fixtures for every reprolint rule."""

import textwrap
from pathlib import Path

from tools.reprolint import lint_paths, lint_source
from tools.reprolint.runner import main

SRC = "src/repro/net/fake.py"  # a path inside simulation code
TEST = "tests/net/test_fake.py"  # a path outside src/


def codes(source, path=SRC):
    return [v.code for v in lint_source(textwrap.dedent(source), path)]


class TestUnseededRandomRule:
    def test_fires_on_stdlib_random_call(self):
        assert "REP001" in codes("import random\nx = random.random()\n")

    def test_fires_on_stdlib_random_import_from(self):
        assert "REP001" in codes("from random import choice\n")

    def test_fires_on_numpy_global_draw(self):
        assert "REP001" in codes("import numpy as np\nx = np.random.uniform()\n")

    def test_fires_outside_src_too(self):
        assert "REP001" in codes(
            "import numpy as np\nx = np.random.normal()\n", path=TEST
        )

    def test_allows_seeded_constructors(self):
        clean = """
        import numpy as np
        __all__ = ["make"]
        def make(seed: int) -> np.random.Generator:
            return np.random.default_rng(np.random.SeedSequence(seed))
        """
        assert "REP001" not in codes(clean)

    def test_no_path_carve_out_for_streams(self):
        # The sanctioned wrapper only uses ALLOWED constructors, so the
        # rule applies everywhere — exemptions are inline directives.
        assert "REP001" in codes(
            "import random\nx = random.random()\n",
            path="src/repro/sim/streams.py",
        )
        assert "REP001" not in codes(
            "import random\nx = random.random()  # reprolint: "
            "disable=REP001\n",
            path="src/repro/sim/streams.py",
        )


class TestWallClockRule:
    def test_fires_on_time_time(self):
        assert "REP002" in codes("import time\nstart = time.time()\n")

    def test_fires_on_datetime_now(self):
        assert "REP002" in codes(
            "import datetime\nstamp = datetime.datetime.now()\n"
        )

    def test_fires_on_from_import(self):
        assert "REP002" in codes("from time import perf_counter\n")

    def test_scoped_to_src(self):
        # Benchmarks and tests may legitimately time things.
        assert "REP002" not in codes(
            "import time\nstart = time.perf_counter()\n",
            path="benchmarks/bench_fake.py",
        )

    def test_allows_time_sleep_mention(self):
        # Only clock *reads* are flagged, not the module itself.
        assert "REP002" not in codes("__all__ = []\nimport time\n")

    def test_timing_sites_use_inline_directives(self):
        # The pool times host execution of finished runs; its exemption
        # is an inline directive at each timing line, not a path
        # carve-out.
        assert "REP002" in codes(
            "import time\nstart = time.perf_counter()\n",
            path="src/repro/parallel/pool.py",
        )
        assert "REP002" not in codes(
            "import time\n"
            "start = time.perf_counter()  # reprolint: " "disable=REP002\n",
            path="src/repro/parallel/pool.py",
        )
        # The exemption is exact — sibling modules stay covered.
        assert "REP002" in codes(
            "import time\nstart = time.perf_counter()\n",
            path="src/repro/parallel/sweep.py",
        )


class TestSimTimeEqualityRule:
    def test_fires_on_env_now_equality(self):
        assert "REP003" in codes(
            "__all__ = []\ndef f(env):\n    return env.now == 3.5\n"
        )

    def test_fires_on_time_named_variable(self):
        assert "REP003" in codes(
            "__all__ = []\ndef f(slot_time, t):\n    return slot_time != t\n"
        )

    def test_allows_isclose(self):
        clean = """
        import math
        __all__ = []
        def f(env, deadline):
            return math.isclose(env.now, deadline)
        """
        assert "REP003" not in codes(clean)

    def test_allows_none_comparison_via_ordering(self):
        assert "REP003" not in codes(
            "__all__ = []\ndef f(now):\n    return now == 'label'\n"
        )

    def test_scoped_to_src(self):
        assert "REP003" not in codes(
            "def f(env):\n    assert env.now == 0.0\n", path=TEST
        )


class TestMutableDefaultRule:
    def test_fires_on_list_literal(self):
        assert "REP004" in codes("__all__ = []\ndef f(items=[]):\n    pass\n")

    def test_fires_on_dict_call(self):
        assert "REP004" in codes("__all__ = []\ndef f(table=dict()):\n    pass\n")

    def test_fires_on_kwonly_default(self):
        assert "REP004" in codes("__all__ = []\ndef f(*, bins={}):\n    pass\n")

    def test_allows_none_and_tuple(self):
        assert "REP004" not in codes(
            "__all__ = []\ndef f(items=None, pair=(1, 2)):\n    pass\n"
        )


class TestBareExceptRule:
    def test_fires_on_bare_except(self):
        bad = """
        __all__ = []
        def f():
            try:
                pass
            except:
                pass
        """
        assert "REP005" in codes(bad)

    def test_allows_typed_except(self):
        clean = """
        __all__ = []
        def f():
            try:
                pass
            except ValueError:
                pass
        """
        assert "REP005" not in codes(clean)


class TestDunderAllRule:
    def test_fires_on_missing_dunder_all(self):
        assert "REP006" in codes("def public():\n    pass\n")

    def test_fires_on_undefined_export(self):
        assert "REP006" in codes("__all__ = ['ghost']\n")

    def test_fires_on_unlisted_public_definition(self):
        assert "REP006" in codes("__all__ = []\nCONSTANT = 3\n")

    def test_accepts_matching_module(self):
        clean = """
        __all__ = ["CONSTANT", "helper"]
        CONSTANT = 3
        def helper():
            pass
        def _private():
            pass
        """
        assert "REP006" not in codes(clean)

    def test_accepts_augmented_and_appended_all(self):
        clean = """
        __all__ = ["first"]
        def first():
            pass
        __all__ += ["second"]
        def second():
            pass
        __all__.append("third")
        def third():
            pass
        """
        assert "REP006" not in codes(clean)

    def test_scoped_to_src_repro(self):
        assert "REP006" not in codes("def public():\n    pass\n", path=TEST)


class TestYieldEventRule:
    def test_fires_on_literal_yield_in_process(self):
        bad = """
        __all__ = []
        def source(env):
            yield env.timeout(1.0)
            yield 42
        """
        assert "REP007" in codes(bad)

    def test_fires_on_bare_yield_in_process(self):
        assert "REP007" in codes(
            "__all__ = []\ndef source(env):\n    yield\n"
        )

    def test_fires_on_arithmetic_yield(self):
        bad = """
        __all__ = []
        def source(env):
            yield env.now + 1.0
        """
        assert "REP007" in codes(bad)

    def test_allows_event_factory_yields(self):
        clean = """
        __all__ = []
        def source(env, medium):
            value = yield env.timeout(1.0)
            yield medium.transmit(value)
        """
        assert "REP007" not in codes(clean)

    def test_ignores_plain_generators(self):
        # A data generator (no env, no event factories) is not a process.
        assert "REP007" not in codes(
            "__all__ = []\ndef numbers(n):\n    yield from range(n)\n"
        )

    def test_ignores_nested_generator_frames(self):
        clean = """
        __all__ = []
        def source(env):
            def inner():
                yield 1
            yield env.timeout(sum(inner()))
        """
        assert "REP007" not in codes(clean)


class TestParallelSeedRule:
    def test_fires_on_multiprocessing_import(self):
        assert "REP008" in codes("import multiprocessing\n")

    def test_fires_on_multiprocessing_submodule_import(self):
        assert "REP008" in codes("import multiprocessing.pool\n")

    def test_fires_on_from_multiprocessing_import(self):
        assert "REP008" in codes("from multiprocessing import Process\n")

    def test_fires_on_concurrent_futures(self):
        assert "REP008" in codes(
            "from concurrent.futures import ProcessPoolExecutor\n"
        )

    def test_fires_on_os_fork_call(self):
        assert "REP008" in codes("import os\n__all__ = []\npid = os.fork()\n")

    def test_pool_module_uses_inline_directives(self):
        assert "REP008" in codes(
            "import multiprocessing\n",
            path="src/repro/parallel/pool.py",
        )
        assert "REP008" not in codes(
            "import multiprocessing  # reprolint: " "disable=REP008\n",
            path="src/repro/parallel/pool.py",
        )

    def test_scoped_to_src_repro(self):
        assert "REP008" not in codes("import multiprocessing\n", path=TEST)
        assert "REP008" not in codes(
            "import multiprocessing\n", path="tools/cache_smoke.py"
        )

    def test_allows_the_task_layer(self):
        clean = """
        __all__ = ["fan_out"]
        def fan_out(specs, jobs):
            from repro.parallel.pool import run_tasks
            return run_tasks(specs, jobs=jobs)
        """
        assert "REP008" not in codes(clean)


class TestFaultSeedRule:
    FAULTS = "src/repro/faults/fake.py"

    def test_fires_on_stdlib_random_import(self):
        assert "REP009" in codes("import random\n__all__ = []\n", path=self.FAULTS)

    def test_fires_on_secrets_import(self):
        assert "REP009" in codes(
            "from secrets import token_bytes\n__all__ = []\n", path=self.FAULTS
        )

    def test_fires_on_os_urandom(self):
        assert "REP009" in codes(
            "import os\n__all__ = []\nx = os.urandom(8)\n", path=self.FAULTS
        )

    def test_fires_on_unseeded_default_rng(self):
        assert "REP009" in codes(
            "import numpy as np\n__all__ = []\nrng = np.random.default_rng()\n",
            path=self.FAULTS,
        )

    def test_fires_on_random_state(self):
        assert "REP009" in codes(
            "import numpy as np\n__all__ = []\nrng = np.random.RandomState(3)\n",
            path=self.FAULTS,
        )

    def test_fires_on_non_derived_seed(self):
        assert "REP009" in codes(
            "import numpy as np\n__all__ = []\nrng = np.random.default_rng(42)\n",
            path=self.FAULTS,
        )

    def test_allows_derive_seed(self):
        clean = """
        import numpy as np
        from repro.parallel.seedtree import derive_seed
        __all__ = ["make"]
        def make(seed):
            \"\"\"Docstring.\"\"\"
            return np.random.default_rng(derive_seed(seed, "churn", 0))
        """
        assert "REP009" not in codes(clean, path=self.FAULTS)

    def test_allows_seed_attribute(self):
        clean = """
        import numpy as np
        __all__ = ["make"]
        def make(event):
            \"\"\"Docstring.\"\"\"
            return np.random.default_rng(event.seed)
        """
        assert "REP009" not in codes(clean, path=self.FAULTS)

    def test_scoped_to_fault_modules(self):
        source = "import numpy as np\n__all__ = []\nrng = np.random.default_rng(42)\n"
        assert "REP009" not in codes(source)
        assert "REP009" not in codes(source, path=TEST)


class TestLegacyTraceRecordRule:
    def test_fires_on_trace_record_call(self):
        assert "REP010" in codes(
            '__all__ = []\ndef f(self):\n    self.trace.record("tx_start", a=1)\n'
        )

    def test_fires_on_bare_trace_receiver(self):
        assert "REP010" in codes(
            '__all__ = []\ndef f(trace):\n    trace.record("rx_ok")\n'
        )

    def test_allows_typed_emission(self):
        clean = """
        __all__ = []
        def f(self, event):
            if self.instr.active:
                self.instr.emit(event)
        """
        assert "REP010" not in codes(clean)

    def test_allows_other_record_receivers(self):
        assert "REP010" not in codes(
            "__all__ = []\ndef f(recorder):\n    recorder.record(1)\n"
        )

    def test_exempts_obs_package_only(self):
        source = '__all__ = []\ndef f(trace):\n    trace.record("x")\n'
        assert "REP010" not in codes(source, path="src/repro/obs/sinks.py")
        # The legacy shim has no path carve-out any more; a call site
        # there would need an inline directive like everywhere else.
        assert "REP010" in codes(source, path="src/repro/sim/trace.py")

    def test_scoped_to_src_repro(self):
        source = 'def f(trace):\n    trace.record("x")\n'
        assert "REP010" not in codes(source, path=TEST)


class TestSuppression:
    def test_noqa_with_code_suppresses(self):
        assert (
            codes("__all__ = []\ndef _f(xs=[]):  # noqa: REP004\n    pass\n")
            == []
        )

    def test_noqa_other_code_does_not_suppress(self):
        assert "REP004" in codes(
            "__all__ = []\ndef _f(xs=[]):  # noqa: REP001\n    pass\n"
        )

    def test_blanket_noqa_suppresses(self):
        assert codes("__all__ = []\ndef _f(xs=[]):  # noqa\n    pass\n") == []

    def test_skip_file_comment(self):
        assert codes("# reprolint: skip-file\ndef f(xs=[]):\n    pass\n") == []

    def test_syntax_error_reported_not_raised(self):
        assert codes("def broken(:\n") == ["REP000"]

    # The directive strings below are concatenated so that linting this
    # test file does not see them as real suppressions.
    _DISABLE = "# reprolint: " "disable"

    def test_disable_on_line_suppresses(self):
        assert (
            codes(
                "__all__ = []\n"
                f"def _f(xs=[]):  {self._DISABLE}=REP004\n"
                "    pass\n"
            )
            == []
        )

    def test_disable_lists_several_codes(self):
        assert (
            codes(
                f"def f(xs=[]):  {self._DISABLE}=REP004, REP006\n    pass\n",
                path="src/repro/x.py",
            )
            == []
        )

    def test_disable_other_code_does_not_suppress(self):
        assert "REP004" in codes(
            f"__all__ = []\ndef _f(xs=[]):  {self._DISABLE}=REP001\n    pass\n"
        )

    def test_unused_disable_is_flagged(self):
        assert codes(
            f"__all__ = [\"x\"]\nx = 1  {self._DISABLE}=REP004\n"
        ) == ["REP011"]

    def test_unknown_code_in_disable_is_flagged(self):
        assert codes(
            f"__all__ = [\"x\"]\nx = 1  {self._DISABLE}=REP999\n"
        ) == ["REP011"]

    def test_disable_file_suppresses_everywhere(self):
        assert (
            codes(
                f"{self._DISABLE}-file=REP004\n"
                "__all__ = []\n"
                "def _f(xs=[]):\n    pass\n"
                "def _g(ys=[]):\n    pass\n"
            )
            == []
        )

    def test_unused_disable_file_is_flagged(self):
        assert codes(
            f"{self._DISABLE}-file=REP004\n__all__ = []\n"
        ) == ["REP011"]

    def test_selected_subset_skips_hygiene_for_unrun_codes(self):
        from tools.reprolint.rules import ALL_RULES

        only_rep006 = [r for r in ALL_RULES if r.CODE == "REP006"]
        source = f"__all__ = [\"x\"]\nx = 1  {self._DISABLE}=REP004\n"
        assert (
            lint_source(source, path="src/repro/x.py", rules=only_rep006)
            == []
        )


class TestRunner:
    def test_repo_is_clean(self):
        # The acceptance criterion: the suite passes on the whole repo.
        root = Path(__file__).resolve().parents[2]
        violations = lint_paths(
            [
                str(root / "src"),
                str(root / "tests"),
                str(root / "benchmarks"),
                str(root / "tools"),
                str(root / "examples"),
            ]
        )
        assert violations == []

    def test_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(xs=[]):\n    pass\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP004" in out and "REP006" in out
        bad.write_text("__all__ = []\n")
        assert main([str(bad)]) == 0

    def test_main_select_and_list_rules(self, tmp_path, capsys):
        assert main(["--list-rules"]) == 0
        assert "REP001" in capsys.readouterr().out
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(xs=[]):\n    pass\n")
        # Selecting only REP004 hides the REP006 finding.
        assert main(["--select", "REP004", str(bad)]) == 1
        assert "REP006" not in capsys.readouterr().out
