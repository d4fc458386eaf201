#!/usr/bin/env python
"""Channel-access shootout: the paper's scheme versus the classics.

Runs the same 40-station network — identical placement, routes, powers,
and traffic — under five channel access protocols across a range of
offered loads, and prints the comparison the paper's Section 2 implies:

* ALOHA / slotted ALOHA (the lineage the simple interference models
  produced),
* CSMA (carrier sensing against the spread-spectrum din),
* MACA (RTS/CTS control traffic per packet),
* the MAC-frontier contenders (SIC-ALOHA, multi-level power,
  SINR-adaptive persistence),
* the paper's schedule-based collision-free scheme.

The contender list is the MAC registry — register a new scheme with
:func:`repro.mac.register_mac` and it appears here by name.

Every printed number comes from the run's
:class:`~repro.net.NetworkResult` — losses, delay — except control
overhead, which counts the RTS and CTS frames each MACA station sent
(T7's :func:`~repro.experiments.t7_baselines.control_per_hop`).

Run::

    python examples/baseline_shootout.py
"""

import repro
from repro.experiments.t7_baselines import control_per_hop
from repro.mac import mac_names
from repro.net import NetworkConfig


def main() -> None:
    loads = (0.02, 0.05, 0.1, 0.15)
    station_count = 40
    duration_slots = 500.0
    seed = 2024

    header = (
        f"{'mac':>14s} {'load/slot':>9s} {'e2e':>6s} {'loss%':>7s} "
        f"{'ctrl/hop':>9s} {'delay (slots)':>14s}"
    )
    print(f"{station_count} stations, {duration_slots:.0f} slots per run\n")
    print(header)
    print("-" * len(header))

    scenario_by_load = {
        load: repro.Scenario(
            station_count=station_count,
            load_packets_per_slot=load,
            duration_slots=duration_slots,
            config=NetworkConfig(seed=seed),
        )
        for load in loads
    }
    for load in loads:
        for name in mac_names():
            outcome = repro.simulate(scenario_by_load[load], seed=seed, mac=name)
            result = outcome.result
            loss_pct = (
                100.0 * result.losses_total / result.transmissions
                if result.transmissions
                else 0.0
            )
            control = control_per_hop(outcome.network, result)
            delay_slots = result.mean_delay / outcome.network.budget.slot_time
            print(
                f"{name:>14s} {load:>9.2f} "
                f"{result.delivered_end_to_end:>6d} "
                f"{loss_pct:>6.2f}% {control:>9.2f} "
                f"{delay_slots:>14.1f}"
            )
        print()

    print(
        "The scheme's loss column is exactly zero at every load — not a\n"
        "small number, zero: the design-rate calibration guarantees the\n"
        "SIR criterion under any concurrency the schedules permit, and\n"
        "Type 2/3 collisions are structurally impossible.  The baselines\n"
        "lose packets despite enjoying oracle ACKs and free global\n"
        "synchronisation, and MACA pays ~2 control bursts per data hop."
    )


if __name__ == "__main__":
    main()
