#!/usr/bin/env python
"""Long-haul operation: imperfect clocks, drift, and online rendezvous.

The paper's scheme rests on each station predicting its neighbours'
schedules from fitted clock models (Section 7).  Over a long run, the
residual error of the fitted clock *rate* grows without bound — so a
deployment needs the maintenance loop the paper sketches: stations
"occasionally rendezvous and exchange clock readings".

This example runs the same 15-station network three ways, with
deliberately poor oscillators (200 ppm) and noisy clock exchanges:

1. pre-run rendezvous only — the models go stale and hops start
   missing their windows;
2. with a periodic online refresh — operation stays (near-)lossless;
3. refresh plus propagation-delay compensation (Section 3.3's remark),
   the full long-haul configuration.

Run::

    python examples/long_haul_operation.py
"""

import repro
from repro.experiments.simsetup import standard_network
from repro.net import NetworkConfig


def run_variant(label, slot, refresh, model_delay):
    config = NetworkConfig(
        seed=7,
        rendezvous_jitter=0.02 * slot,
        rendezvous_count=4,
        guard_fraction=0.05,
        clock_rate_error_ppm=200.0,
        rendezvous_refresh_slots=refresh,
        model_propagation_delay=model_delay,
    )
    result = repro.simulate(
        repro.Scenario(
            station_count=15,
            load_packets_per_slot=0.04,
            duration_slots=1500,
            config=config,
        ),
        seed=7,
    ).result
    missed = result.losses_by_reason.get("not_listening", 0)
    print(
        f"  {label:<38s} losses {result.losses_total:4d} "
        f"(missed windows {missed:4d}), hop deliveries {result.hop_deliveries}"
    )
    return result


def main() -> None:
    slot = standard_network(15, 7, NetworkConfig(seed=7), trace=False).budget.slot_time
    print(
        "15 stations, 1500 slots, 200 ppm oscillators, 0.02-slot exchange "
        "jitter\n"
    )
    stale = run_variant("pre-run rendezvous only", slot, None, False)
    fresh = run_variant("+ online refresh every 100 slots", slot, 100.0, False)
    full = run_variant("+ refresh + delay compensation", slot, 100.0, True)

    print()
    improvement = stale.losses_total / max(fresh.losses_total, 1)
    print(
        f"Online rendezvous reduced losses {improvement:.0f}x "
        f"({stale.losses_total} -> {fresh.losses_total}); with delay "
        f"compensation the full configuration lost {full.losses_total}."
    )
    print(
        "\nThe failure mode is specific: every stale-model loss is a "
        "'not_listening' record — a burst that arrived outside the "
        "receiver's true window.  No SIR or Type 2/3 losses occur; the "
        "scheme degrades only through clock-model error, exactly where "
        "Section 7 says maintenance must happen."
    )


if __name__ == "__main__":
    main()
