"""The Instrumentation facade: guards, composition, resolution."""

from repro.net.network import NetworkConfig, build_network
from repro.obs import (
    Instrumentation,
    MemorySink,
    MetricTimelines,
    ambient_instrumentation,
    use_instrumentation,
)
from repro.obs.events import TxStart
from repro.propagation import uniform_disk


def tx(time, packet=0):
    return TxStart(
        time=time, source=0, destination=1, power_w=0.1, packet=packet
    )


class TestFacade:
    def test_no_sinks_means_inactive(self):
        instr = Instrumentation()
        assert not instr.active
        instr.emit(tx(1.0))  # silently dropped
        assert instr.events() == []

    def test_emit_fans_out_to_every_sink(self):
        first, second = MemorySink(), MemorySink()
        instr = Instrumentation((first, second))
        assert instr.active
        instr.emit(tx(1.0))
        assert len(first) == 1 and len(second) == 1

    def test_memory_is_the_first_memory_sink(self):
        first, second = MemorySink(), MemorySink()
        assert Instrumentation((first, second)).memory is first
        assert Instrumentation().memory is None


class TestAmbient:
    def test_context_installs_and_restores(self):
        assert ambient_instrumentation() is None
        instr = Instrumentation((MemorySink(),))
        with use_instrumentation(instr):
            assert ambient_instrumentation() is instr
            inner = Instrumentation((MemorySink(),))
            with use_instrumentation(inner):
                assert ambient_instrumentation() is inner
            assert ambient_instrumentation() is instr
        assert ambient_instrumentation() is None


class TestResolution:
    """How build_network folds explicit and ambient sources."""

    PLACEMENT = uniform_disk(8, radius=400.0, seed=3)

    def build(self, **kwargs):
        return build_network(self.PLACEMENT, NetworkConfig(seed=3), **kwargs)

    def test_single_explicit_source_used_as_is(self):
        instr = Instrumentation((MemorySink(),))
        network = self.build(trace=False, instrumentation=instr)
        assert network.instrumentation is instr

    def test_multiple_sources_compose_sinks(self):
        explicit_sink, ambient_sink = MemorySink(), MemorySink()
        with use_instrumentation(Instrumentation((ambient_sink,))):
            network = self.build(
                trace=False,
                instrumentation=Instrumentation((explicit_sink,)),
            )
        sinks = network.instrumentation.sinks
        assert explicit_sink in sinks and ambient_sink in sinks

    def test_trace_true_guarantees_memory_sink(self):
        network = self.build(trace=True)
        assert network.instrumentation.memory is not None
        bare = self.build(trace=False)
        assert bare.instrumentation.memory is None
        assert not bare.instrumentation.active

    def test_trace_true_leaves_the_callers_facade_alone(self):
        # A memory sink added for one network must not ride along on a
        # caller's facade into every later network built under it.
        timelines = MetricTimelines()
        ambient = Instrumentation((timelines,))
        with use_instrumentation(ambient):
            first = self.build(trace=True)
            second = self.build(trace=True)
        assert ambient.sinks == (timelines,)
        assert first.instrumentation.memory is not second.instrumentation.memory
        explicit = Instrumentation((timelines,))
        network = self.build(trace=True, instrumentation=explicit)
        assert explicit.sinks == (timelines,)
        assert network.instrumentation.sinks[0] is timelines
        assert network.instrumentation.memory is not None
