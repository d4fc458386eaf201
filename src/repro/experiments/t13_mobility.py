"""Experiment T13: mobility churn, time-varying channels, and ARQ.

The paper's setting (Section 2) is a metropolitan network of slowly
*moving* stations, yet every preceding experiment froze the geometry
at build time.  This experiment drives a continuous channel episode —
random-waypoint mobility plus AR(1) shadow fading from
:mod:`repro.mobility` — through three variants of the same network
and measures, per churn rate: the pre-churn delivery ratio, the ratio
during churn, the recovered ratio afterwards, and the Section 7.1
rendezvous-recovery latency.

Variants:

* ``shepard`` — the paper's scheme with re-acquisition enabled: the
  channel process scans for neighbour-set turnover and triggers
  :meth:`~repro.net.network.Network.reconverge` (fresh clock models,
  routes, power control, courtesy sets).
* ``aloha`` — a contention baseline left with its build-time state:
  after stations move, its routes and power lookups are permanently
  stale.
* ``aloha_arq`` — the same stale baseline with the stop-and-wait ARQ
  sublayer: bounded retries past the fade coherence time convert
  transient losses into delayed deliveries, the graceful-degradation
  half of the story.

Expected shape: all variants sag while the channel is churning (that
is physics); the re-acquiring scheme recovers its pre-churn delivery
ratio once the episode ends, the stale baseline does not, and ARQ
pulls the baseline partway back at the price of retransmissions.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import ExperimentReport, register
from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.faults.resilience import split_losses, window_ratio
from repro.mac.registry import get_mac
from repro.mobility import (
    ChannelSpec,
    FadingSpec,
    RandomWaypoint,
    install_channel,
)
from repro.net.network import NetworkConfig

__all__ = ["RECOVERY_FRACTION", "run", "run_mobility_point"]


def _resolve_variant(name: str) -> Tuple[str, bool]:
    """Split a T13 variant name into (registered MAC name, arq?).

    A trailing ``_arq`` wraps any registered MAC in the stop-and-wait
    ARQ sublayer — ``"aloha_arq"``, ``"sic_aloha_arq"``, ... — so the
    variant vocabulary grows with the MAC registry instead of a
    hand-maintained tuple.  Raises ``ValueError`` for names whose base
    is not registered.
    """
    arq_on = name.endswith("_arq")
    base = name[: -len("_arq")] if arq_on else name
    get_mac(base)  # fail fast on unknown base MACs
    return base, arq_on

#: Recovery criterion: the scheme's post-churn delivery ratio must
#: reach this fraction of its own pre-churn steady state.
RECOVERY_FRACTION = 0.9


def run_mobility_point(
    churn_rate: float,
    station_count: int = 24,
    warmup_slots: float = 150.0,
    churn_slots: float = 200.0,
    recovery_slots: float = 300.0,
    window_slots: float = 50.0,
    tick_slots: float = 2.0,
    fade_sigma_db: float = 3.0,
    fade_coherence_slots: float = 8.0,
    reacquire_every_slots: float = 25.0,
    reacquire_delay_slots: float = 4.0,
    arq_max_retries: int = 3,
    arq_backoff_slots: float = 2.0,
    load_packets_per_slot: float = 0.1,
    seed: int = 47,
    variants: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """One churn-rate point: every requested variant through the same
    channel trajectory.

    ``churn_rate`` is the waypoint speed in characteristic lengths
    (``R0``) per 100 slots — the natural mobility unit of the paper's
    density analysis.  Mobility and fading draw from the seed tree
    independently of re-acquisition, so all variants face the
    bit-identical channel trajectory.

    Returns the report rows plus the per-variant recovery fractions
    the summary claims accumulate.
    """
    if churn_rate <= 0.0:
        raise ValueError("churn_rate must be positive")
    if warmup_slots <= window_slots:
        raise ValueError("warmup must be longer than one measurement window")
    suite = ("shepard", "aloha", "aloha_arq")
    if variants is not None:
        suite = tuple(variants)
    rows: List[Tuple[Any, ...]] = []
    recoveries: Dict[str, float] = {}
    rendezvous: Dict[str, float] = {}
    for name in suite:
        base_mac, arq_on = _resolve_variant(name)
        config = NetworkConfig(
            seed=seed,
            arq_max_retries=arq_max_retries if arq_on else None,
            arq_backoff_slots=arq_backoff_slots,
        )
        network = standard_network(
            station_count,
            placement_seed=seed,
            config=config,
            mac=base_mac,
        )
        add_uniform_poisson(network, load_packets_per_slot, seed + 1)
        # Speed in metres per slot: churn_rate R0 per 100 slots.  A
        # fresh model per variant keeps the channel trajectory
        # identical — all the state lives in the seed-tree RNGs.
        speed = churn_rate * network.placement.characteristic_length / 100.0
        spec = ChannelSpec(
            mobility=RandomWaypoint(speed=speed),
            fading=FadingSpec(
                sigma_db=fade_sigma_db,
                coherence_slots=fade_coherence_slots,
            ),
            tick_slots=tick_slots,
            start_slot=warmup_slots,
            end_slot=warmup_slots + churn_slots,
            reacquire_every_slots=(
                reacquire_every_slots if base_mac == "shepard" else None
            ),
            reacquire_delay_slots=reacquire_delay_slots,
        )
        channel = install_channel(network, spec, seed=seed)
        assert channel is not None  # churn_rate > 0 makes the spec live
        slot = network.budget.slot_time

        # The first window absorbs the pipeline-fill transient and is
        # excluded from the pre-churn baseline (same discipline as T12).
        fill_snapshot = network.run(window_slots * slot)
        pre_snapshot = network.run((warmup_slots - window_slots) * slot)
        pre_ratio = window_ratio(fill_snapshot, pre_snapshot)

        churn_snapshot = network.run(churn_slots * slot)
        churn_ratio = window_ratio(pre_snapshot, churn_snapshot)

        threshold = RECOVERY_FRACTION * pre_ratio
        recovery_latency = float("nan")
        elapsed = 0.0
        last = churn_snapshot
        tail_start = churn_snapshot
        while elapsed < recovery_slots:
            snapshot = network.run(window_slots * slot)
            elapsed += window_slots
            ratio = window_ratio(last, snapshot)
            last = snapshot
            if elapsed == window_slots:
                # The first recovery window absorbs the re-convergence
                # and queue-drain transient, mirroring the warmup's
                # pipeline-fill window.
                tail_start = snapshot
            if math.isnan(recovery_latency) and ratio >= threshold:
                recovery_latency = elapsed
        # The recovered ratio is measured over the whole tail, not one
        # window: per-window ratios fluctuate with queue drain, the
        # steady state does not.
        final_ratio = window_ratio(tail_start, last)

        rendezvous_slots = channel.log.mean_rendezvous_recovery() / slot
        _fault_losses, sir_losses = split_losses(last.losses_by_reason)
        rows.append(
            (
                name,
                churn_rate,
                len(channel.log.turnovers),
                pre_ratio,
                churn_ratio,
                final_ratio,
                recovery_latency,
                rendezvous_slots,
                len(channel.log.mobility_reroutes),
                sir_losses,
                last.arq_retries,
                last.arq_giveups,
            )
        )
        recoveries[name] = (
            final_ratio / pre_ratio if pre_ratio > 0 else float("nan")
        )
        rendezvous[name] = rendezvous_slots
    return {"rows": rows, "recoveries": recoveries, "rendezvous": rendezvous}


@register("T13")
def run(
    churn_rates: Sequence[float] = (1.0, 3.0),
    station_count: int = 24,
    warmup_slots: float = 150.0,
    churn_slots: float = 200.0,
    recovery_slots: float = 300.0,
    window_slots: float = 50.0,
    tick_slots: float = 2.0,
    fade_sigma_db: float = 3.0,
    fade_coherence_slots: float = 8.0,
    reacquire_every_slots: float = 25.0,
    reacquire_delay_slots: float = 4.0,
    arq_max_retries: int = 3,
    arq_backoff_slots: float = 2.0,
    load_packets_per_slot: float = 0.1,
    seed: int = 47,
    variants: Optional[Sequence[str]] = None,
) -> ExperimentReport:
    """Delivery ratio and recovery versus mobility churn rate.

    Runs :func:`run_mobility_point` at each churn rate in turn and
    keeps the rows in churn-rate order.
    """
    report = ExperimentReport(
        experiment_id="T13",
        title="Mobility churn, time-varying channels, and ARQ",
        columns=(
            "variant",
            "churn R0/100slots",
            "turnovers",
            "pre-churn ratio",
            "churn ratio",
            "recovered ratio",
            "recovery (slots)",
            "rendezvous (slots)",
            "reconverges",
            "sir losses",
            "arq retries",
            "arq giveups",
        ),
    )
    shepard_recoveries: List[float] = []
    stale_recoveries: List[float] = []
    for rate in churn_rates:
        point = run_mobility_point(
            rate,
            station_count=station_count,
            warmup_slots=warmup_slots,
            churn_slots=churn_slots,
            recovery_slots=recovery_slots,
            window_slots=window_slots,
            tick_slots=tick_slots,
            fade_sigma_db=fade_sigma_db,
            fade_coherence_slots=fade_coherence_slots,
            reacquire_every_slots=reacquire_every_slots,
            reacquire_delay_slots=reacquire_delay_slots,
            arq_max_retries=arq_max_retries,
            arq_backoff_slots=arq_backoff_slots,
            load_packets_per_slot=load_packets_per_slot,
            seed=seed,
            variants=variants,
        )
        for row in point["rows"]:
            report.add_row(*row)
        recovered = point["recoveries"].get("shepard")
        if recovered is not None and not math.isnan(recovered):
            shepard_recoveries.append(recovered)
        stale = point["recoveries"].get("aloha")
        if stale is not None and not math.isnan(stale):
            stale_recoveries.append(stale)
    if shepard_recoveries:
        report.claim(
            "scheme post-churn delivery vs pre-churn steady state",
            f">= {RECOVERY_FRACTION}",
            min(shepard_recoveries),
        )
    if stale_recoveries:
        report.claim(
            "stale (no re-acquisition, no ARQ) baseline recovery",
            f"< {RECOVERY_FRACTION}",
            max(stale_recoveries),
        )
    report.notes.append(
        "All variants face the bit-identical seed-tree channel "
        "trajectory; losses while the channel churns are physics, so "
        "the discriminating columns are the recovered ratio, the "
        "rendezvous-recovery latency, and the ARQ retry price."
    )
    return report
