"""Deterministic fault injection and graceful degradation.

The paper's central systems claim (Sections 6-7) is that the channel
access scheme is decentralized and self-organizing: stations fit
neighbours' clocks, publish receive windows, and route around each
other with no central point of failure.  This package supplies the
machinery to *test* that claim: declarative fault specifications
(:mod:`repro.faults.spec`) compile — through the seed tree, so fault
runs are bit-reproducible and jobs-invariant like everything else —
into a concrete :class:`~repro.faults.spec.FaultPlan`, which a
:class:`~repro.faults.injector.FaultInjector` walks as an ordinary
maintenance process: station crash/recover churn, link fade episodes
that scale gain-matrix entries, clock step faults followed by model
re-fits, and packet-corruption windows.

An empty plan installs nothing at all — no process, no extra events —
so the fault layer is provably zero-cost when unused: replay digests
of existing experiments are bit-identical with and without this
package imported.
"""

from repro.faults.injector import FaultInjector, install_faults
from repro.faults.resilience import ResilienceLog
from repro.faults.spec import (
    ClockStep,
    FaultEvent,
    FaultPlan,
    LinkFade,
    PacketCorruption,
    StationChurn,
    StationCrash,
    compile_plan,
)

__all__ = [
    "ClockStep",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LinkFade",
    "PacketCorruption",
    "ResilienceLog",
    "StationChurn",
    "StationCrash",
    "compile_plan",
    "install_faults",
]
