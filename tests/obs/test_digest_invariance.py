"""Instrumentation must be non-perturbing: replay digests and run
results are bit-identical with every sink attached or none at all.

This is the zero-cost-when-disabled guarantee from the observability
redesign, checked the strongest way available: the engine's sanitized
replay digest hashes every event execution (time, priority, process),
so any instrumentation code path that touched the wheel or an RNG
would change it.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.simsetup import add_uniform_poisson
from repro.net.network import NetworkConfig, build_network
from repro.obs import (
    BinarySink,
    Instrumentation,
    JsonlSink,
    MemorySink,
    MetricTimelines,
    read_binary,
    read_jsonl,
)
from repro.propagation.geometry import uniform_disk
from repro.sim.sanitizer import sanitized


def observed_network(count, seed, config, instrumentation):
    """The ``standard_network`` deployment with explicit sinks."""
    return build_network(
        uniform_disk(count, radius=1000.0, seed=seed),
        config,
        instrumentation=instrumentation,
    )


def digest_of(seed, load, duration_slots, instrumentation):
    with sanitized(True):
        network = observed_network(
            12, seed, NetworkConfig(seed=seed), instrumentation
        )
        add_uniform_poisson(network, load, seed + 1)
        network.run(duration_slots * network.budget.slot_time)
        return network.env.replay_digest()


class TestDigestInvariance:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(1, 10**6),
        load=st.sampled_from([0.02, 0.08, 0.2]),
        duration=st.sampled_from([40.0, 90.0]),
    )
    def test_sinks_do_not_perturb_the_run(self, seed, load, duration):
        bare = digest_of(seed, load, duration, None)
        instrumented = digest_of(
            seed,
            load,
            duration,
            # Any window width exercises every fold of the timelines.
            Instrumentation((MemorySink(), MetricTimelines(window=1.0))),
        )
        assert instrumented == bare

    def test_disabled_facade_matches_no_facade(self):
        bare = digest_of(5, 0.1, 60.0, None)
        disabled = digest_of(5, 0.1, 60.0, Instrumentation())
        assert disabled == bare


class TestFileSinksMatchTheRun:
    def test_jsonl_and_binary_decode_to_the_same_sequence(self, tmp_path):
        jsonl_path = str(tmp_path / "run.jsonl")
        binary_path = str(tmp_path / "run.npz")
        memory = MemorySink()
        instrumentation = Instrumentation(
            (memory, JsonlSink(jsonl_path), BinarySink(binary_path))
        )
        digest = digest_of(9, 0.1, 60.0, instrumentation)
        instrumentation.close()

        assert digest == digest_of(9, 0.1, 60.0, None)

        live = memory.events()
        assert live, "the run must have emitted events"
        from_jsonl = read_jsonl(jsonl_path)
        from_binary = read_binary(binary_path)
        assert len(from_jsonl) == len(live) == len(from_binary)
        for a, b, c in zip(live, from_jsonl, from_binary):
            assert type(a) is type(b) is type(c)
            assert a.time == b.time == c.time
            for key, value in a.payload().items():
                got_j, got_b = getattr(b, key), getattr(c, key)
                if isinstance(value, float) and math.isnan(value):
                    assert math.isnan(got_j) and math.isnan(got_b)
                else:
                    assert value == got_j == got_b


def canonical(result):
    """A NetworkResult as comparable values: floats by ``float.hex``
    (so NaN equals NaN and nothing is compared to rounding)."""

    def norm(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return sorted((repr(key), norm(item)) for key, item in value.items())
        return value

    return {
        field.name: norm(getattr(result, field.name))
        for field in dataclasses.fields(result)
    }


class TestResultIgnoresSinks:
    def result_of(self, instrumentation):
        network = observed_network(60, 89, NetworkConfig(), instrumentation)
        add_uniform_poisson(network, 0.1, 7)
        return network.run(60 * network.budget.slot_time)

    def test_same_result_whatever_observes_the_run(self, tmp_path):
        bare = self.result_of(None)
        assert bare.delivered_end_to_end > 0
        assert math.isfinite(bare.mean_hops)
        for instrumentation in (
            Instrumentation((MemorySink(),)),
            Instrumentation((MemorySink(50),)),
            Instrumentation((JsonlSink(str(tmp_path / "run.jsonl")),)),
        ):
            observed = self.result_of(instrumentation)
            instrumentation.close()
            assert canonical(observed) == canonical(bare)
