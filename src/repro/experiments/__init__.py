"""Experiment modules: one per figure/table in DESIGN.md's index.

Importing this package registers every experiment; use
:func:`repro.experiments.runner.get_experiment` or the module-level
``run`` functions directly.
"""

from repro.experiments import (  # noqa: F401 - imported for registration
    a1_guard_jitter,
    a2_despreader_sizing,
    a3_courtesy_rate,
    a4_target_sir_policy,
    a5_fixed_rate_penalty,
    a6_spatial_reuse,
    a7_delay_model,
    a8_self_organization,
    fig1_snr_decline,
    fig2_collisions,
    fig3_relay,
    fig4_schedule,
    t1_scheduling_delay,
    t2_duty_cycle,
    t3_hol_blocking,
    t4_collision_free,
    t5_routing_neighbors,
    t6_power_control,
    t7_baselines,
    t8_metro,
    t9_connectivity,
    t10_routing_tradeoff,
    t11_clock_offsets,
    t12_resilience,
    t13_mobility,
    t14_capacity,
)
from repro.experiments.runner import (
    ExperimentReport,
    all_experiments,
    get_experiment,
)

__all__ = [
    "ExperimentReport",
    "all_experiments",
    "get_experiment",
]
