"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perf -q
"""

from __future__ import annotations

import json
import os
import re
import signal
import sys
import time
import types

import pytest

import run
import workloads
from hostspeed import REFERENCE_PROBE_S, SpeedSampler
from spans import LAYERS, Layer, Tracer, per_layer_metric_specs

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_module():
    """A throwaway module whose functions advance a fake clock."""
    clock = FakeClock()
    module = types.ModuleType("perf_fake_layers")

    def leaf():
        clock.advance(1.0)

    def outer():
        clock.advance(2.0)
        module.leaf()
        clock.advance(3.0)
        module.leaf()

    def recurse(depth):
        clock.advance(0.5)
        if depth:
            module.recurse(depth - 1)
            module.leaf()

    def pulses():
        yield clock.advance(1.0)

    module.leaf, module.outer, module.recurse, module.pulses = (
        leaf, outer, recurse, pulses,
    )
    sys.modules[module.__name__] = module
    yield module, clock
    del sys.modules[module.__name__]


def test_self_times_sum_to_wall_time_on_nested_and_recursive_calls(fake_module):
    module, clock = fake_module
    tracer = Tracer(clock=clock)
    tracer.install(
        (
            Layer("outer", ("perf_fake_layers:outer",)),
            Layer("leaf", ("perf_fake_layers:leaf",)),
            Layer("recurse", ("perf_fake_layers:recurse",)),
        )
    )
    try:
        with tracer.root("run"):
            clock.advance(4.0)
            module.outer()  # 5 s own, 2 s in two leaves
            module.recurse(2)  # 3 frames of 0.5 s, 2 leaves of 1 s
    finally:
        tracer.uninstall()
    stats = tracer.targets
    assert stats["perf_fake_layers:outer"].self_s == pytest.approx(5.0)
    assert stats["perf_fake_layers:leaf"].calls == 4
    assert stats["perf_fake_layers:leaf"].self_s == pytest.approx(4.0)
    assert stats["perf_fake_layers:recurse"].calls == 3
    assert stats["perf_fake_layers:recurse"].self_s == pytest.approx(1.5)
    wall, root_own = tracer.roots["run"]
    assert root_own == pytest.approx(4.0)
    assert sum(s.self_s for s in stats.values()) + root_own == pytest.approx(wall)
    assert wall == pytest.approx(14.5)
    assert module.outer.__name__ == "outer" and not hasattr(module.outer, "__wrapped__")


def test_unresolved_targets_are_reported_missing(fake_module):
    module, _clock = fake_module
    original_leaf = module.leaf
    tracer = Tracer()
    tracer.install(
        (
            Layer("ghost_module", ("repro.no_such_module:thing",)),
            Layer("ghost_name", ("repro.net.medium:Medium.no_such_method",)),
            Layer("generator", ("perf_fake_layers:pulses",)),
            # One bad target leaves the whole layer unpatched.
            Layer("half", ("perf_fake_layers:leaf", "perf_fake_layers:nope")),
        )
    )
    tracer.uninstall()
    assert set(tracer.missing) == {"ghost_module", "ghost_name", "generator", "half"}
    assert module.leaf is original_leaf
    assert "half.calls" not in tracer.metrics()


def test_classmethods_stay_classmethods_and_patches_are_undone():
    from repro.propagation.matrix import PropagationMatrix

    original = PropagationMatrix.__dict__["from_placement"]
    tracer = Tracer()
    tracer.install(LAYERS)
    try:
        assert not tracer.missing
        assert isinstance(PropagationMatrix.__dict__["from_placement"], classmethod)
    finally:
        tracer.uninstall()
    assert PropagationMatrix.__dict__["from_placement"] is original


def test_reference_time_scales_wall_time_by_the_sampled_core_speed():
    clock = FakeClock()
    sampler = SpeedSampler(
        probe=lambda: clock.advance(2 * REFERENCE_PROBE_S), clock=clock
    )
    with sampler.phase() as timing:
        clock.advance(3.0)  # no alarm fires: the fake clock takes no real time
    assert timing.samples_s == pytest.approx([2 * REFERENCE_PROBE_S] * 2)
    assert timing.wall_s == pytest.approx(3.0)
    assert timing.speed == pytest.approx(0.5)  # the core ran at half speed
    assert timing.reference_s == pytest.approx(1.5)


def test_alarms_sample_during_the_phase_and_leave_no_handler_behind():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler(period_s=0.005)
    began = time.perf_counter()
    with sampler.phase() as timing:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    elapsed = time.perf_counter() - began
    assert len(timing.samples_s) >= 10
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Probes, inside the phase or around it, are left out of its wall time.
    assert timing.wall_s == pytest.approx(elapsed - sum(timing.samples_s), abs=0.01)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_runs_through_run_py_at_toy_size(name):
    raw = run.measure({name: run.reps_for(name, 0.0)}, seed=3, trace=True, scale="toy")
    summary = run.analyze(name, raw[name])
    assert summary["correct"], summary["problems"]
    assert summary["attempted"] >= 1
    assert set(summary["end_to_end"]) == {metric for metric, *_ in run.END_TO_END}
    assert all(row["median"] > 0 for row in summary["end_to_end"].values())
    layers = summary["layers"]
    assert set(layers) == {metric for metric, _, _ in per_layer_metric_specs()}
    assert layers["bench.coverage"] > 0.5
    if name in ("net500_sat", "metro20k"):
        assert layers["obs.calls"] == 0
    if name == "metro20k":
        transmitted = summary["fingerprint"]["transmitted"]
        assert layers["net.medium.bound.calls"] == transmitted
    if name != "sweep_warm":
        assert layers["parallel.cache.calls"] == 0
    line = run.result_line([summary], trace=True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_a_tampered_fingerprint_fails_the_rep(monkeypatch, capsys):
    args = ["net500_light", "--seed", "5", "--scale", "toy"]
    assert workloads.main(args) == 0
    honest = json.loads(capsys.readouterr().out.splitlines()[-1])["fingerprint"]
    tampered = {"net500_light": dict(honest, events=honest["events"] + 1)}
    monkeypatch.setitem(workloads.PINNED, ("toy", 5), tampered)
    assert workloads.main(args) == 1
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert any("fingerprint events" in problem for problem in report["problems"])


def test_disagreeing_reps_fail_the_workload():
    rep = {
        "traced": False, "problems": [], "attempted": 1, "failed": 0,
        "setup_s": 1.0, "run_s": 1.0, "work": 10, "peak_rss_mb": 1.0,
        "setup_wall_s": 1.0, "run_wall_s": 1.0, "run_speed": 1.0,
    }
    raw = {
        "reps": [dict(rep, fingerprint={"events": 1}), dict(rep, fingerprint={"events": 2})],
        "traced": None,
    }
    summary = run.analyze("net500_light", raw)
    assert not summary["correct"]
    assert not run.result_line([summary], trace=False)["correct"]


def test_one_rep_reports_its_spread_as_unresolved_not_zero():
    row = run.summarize([2.0])
    assert row["n"] == 1 and row["spread"] is None and row["q1"] is None
    summary = {
        "workload": "metro20k", "fingerprint": {}, "end_to_end": {"run_s": row},
        "wall": {}, "layers": {}, "missing": {}, "attempted": 1, "failed": 0,
        "problems": [],
    }
    assert "unresolved" in run.format_report(summary)
    assert run.summarize([1.0, 3.0, 2.0])["spread"] == pytest.approx(1.0)


def test_default_seconds_buy_every_workload_at_least_three_reps():
    for name in workloads.WORKLOADS:
        assert run.reps_for(name, 0.0) == 1
        assert run.reps_for(name, run.DEFAULT_SECONDS) >= 3


def test_benchmark_json_matches_run_py():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["command"] == ["python3", "perf/run.py"]
    assert spec["paths"] == ["perf"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == per_layer_metric_specs()
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
