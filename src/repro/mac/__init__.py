"""Channel access protocols: the paper's scheme and classic baselines.

New contenders plug in through :mod:`repro.mac.registry` — register a
builder with :func:`register_mac` and every suite experiment picks the
scheme up by name.
"""

from repro.mac.aloha import AlohaMac
from repro.mac.arq import ArqConfig, ArqSublayer
from repro.mac.base import MacProtocol
from repro.mac.csma import CsmaMac
from repro.mac.maca import MacaMac
from repro.mac.multilevel_power import MultilevelPowerMac
from repro.mac.registry import (
    MacBuildContext,
    MacDescriptor,
    get_mac,
    mac_factory,
    mac_names,
    register_mac,
)
from repro.mac.shepard import ShepardMac
from repro.mac.sic_aloha import SicAlohaMac
from repro.mac.sinr_adaptive import SinrAdaptiveMac
from repro.mac.tdma import TdmaMac, TdmaPlan, build_tdma_plan, greedy_coloring

__all__ = [
    "AlohaMac",
    "ArqConfig",
    "ArqSublayer",
    "CsmaMac",
    "MacBuildContext",
    "MacDescriptor",
    "MacProtocol",
    "MacaMac",
    "MultilevelPowerMac",
    "ShepardMac",
    "SicAlohaMac",
    "SinrAdaptiveMac",
    "TdmaMac",
    "TdmaPlan",
    "build_tdma_plan",
    "get_mac",
    "greedy_coloring",
    "mac_factory",
    "mac_names",
    "register_mac",
]
