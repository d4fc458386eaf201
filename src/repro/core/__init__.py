"""The paper's primary contribution: model, analysis, and access scheme."""

from repro.core.access import (
    DEFAULT_SEARCH_SLOTS,
    NoTransmitWindowError,
    ScheduleView,
    find_transmit_window,
)
from repro.core.collisions import (
    CollisionType,
    InterferenceSource,
    classify_loss,
    classify_source,
    count_by_type,
)
from repro.core.design import (
    DesignPoint,
    expected_neighbors,
    range_doubling_cost_db,
    reach_for_expected_neighbors,
)
from repro.core.noise import (
    NoiseSample,
    interference_integral,
    sample_snr,
    snr_curve,
    snr_nearest_neighbor,
    snr_nearest_neighbor_db,
)
from repro.core.power_control import (
    ConstantDeliveredPolicy,
    FullPowerPolicy,
    PolicyKind,
    PowerPolicy,
    TargetSirPolicy,
    make_policy,
)
from repro.core.reception import (
    ReceptionTracker,
    max_rate,
    required_sir,
    shannon_capacity,
    sir,
)
from repro.core.schedule import DEFAULT_RECEIVE_FRACTION, Schedule, hash_slot

__all__ = [
    "CollisionType",
    "ConstantDeliveredPolicy",
    "DEFAULT_RECEIVE_FRACTION",
    "DEFAULT_SEARCH_SLOTS",
    "DesignPoint",
    "FullPowerPolicy",
    "InterferenceSource",
    "NoTransmitWindowError",
    "NoiseSample",
    "PolicyKind",
    "PowerPolicy",
    "ReceptionTracker",
    "Schedule",
    "ScheduleView",
    "TargetSirPolicy",
    "classify_loss",
    "classify_source",
    "count_by_type",
    "expected_neighbors",
    "find_transmit_window",
    "hash_slot",
    "interference_integral",
    "make_policy",
    "max_rate",
    "range_doubling_cost_db",
    "reach_for_expected_neighbors",
    "required_sir",
    "sample_snr",
    "shannon_capacity",
    "sir",
    "snr_curve",
    "snr_nearest_neighbor",
    "snr_nearest_neighbor_db",
]
