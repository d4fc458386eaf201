"""Declarative MAC registry: the plug-in surface for channel access.

Every contender — the paper's scheme and each baseline — registers a
:class:`MacDescriptor` here under a stable name, carrying both the
capability flags experiments care about (slotted?  which receiver
model on the despreader banks?) and the recipe for building one bound
instance per station.  Experiments enumerate by name
(:func:`mac_names`), and ``build_network(mac="sic_aloha")`` builds
every station's MAC through :func:`mac_factory` — the one build path
for a named scheme, the paper's own included — so adding a MAC is one
module plus one ``@register_mac`` decorator, with no hand-written
suite dicts to keep in sync.

Stream identity: each descriptor owns the seed-tree stream prefix its
per-station RNGs derive from, so two MACs can never collide on a
stream name (uniqueness is enforced at registration).  The five legacy
contenders keep their historical single-letter prefixes (``a``/``s``/
``c``/``m``) so their replay digests and experiment rows stay
bit-identical across the registry redesign; every newer MAC defaults
to the collision-proof ``"<name>:"`` form.

The ``tdma`` baseline stays outside the registry: it needs a global
slot plan computed from the built network's geometry, which the
per-station ``(index, budget)`` build contract cannot express — it
remains available by passing an explicit factory as ``mac=`` (see
``repro.mac.tdma.build_tdma_plan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from repro.mac.aloha import AlohaMac
from repro.mac.csma import CsmaMac
from repro.mac.maca import MacaMac
from repro.mac.multilevel_power import MultilevelPowerMac
from repro.mac.shepard import ShepardMac
from repro.mac.sic_aloha import SicAlohaMac
from repro.mac.sinr_adaptive import SinrAdaptiveMac
from repro.radio.receiver_model import SicReceiver

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.base import MacProtocol
    from repro.net.network import LinkBudget, NetworkConfig
    from repro.sim.streams import RandomStreams

__all__ = [
    "MacBuildContext",
    "MacDescriptor",
    "register_mac",
    "mac_names",
    "get_mac",
    "mac_factory",
]


@dataclass(frozen=True)
class MacBuildContext:
    """Everything a registered builder may draw on for one station.

    Attributes:
        index: the station's network-wide index.
        budget: the built network's calibrated link budget.
        config: the network's configuration (the paper's scheme takes
            its guard from it).
        streams: the seed-tree stream factory for this network.
        descriptor: the descriptor being built (supplies the stream
            prefix).
    """

    index: int
    budget: "LinkBudget"
    config: "NetworkConfig"
    streams: "RandomStreams"
    descriptor: "MacDescriptor"

    def stream(self) -> np.random.Generator:
        """This station's private RNG, derived from the descriptor's
        stream prefix plus the station index — the only sanctioned way
        for a registered builder to obtain randomness."""
        return self.streams.stream(
            f"{self.descriptor.stream_prefix}{self.index}"
        )


@dataclass(frozen=True)
class MacDescriptor:
    """One registered channel access scheme.

    Attributes:
        name: registry name (also the experiment row label).
        builder: constructs one unbound MAC instance per station from a
            :class:`MacBuildContext`.
        slotted: the scheme assumes a free global slot grid (a baseline
            idealisation the paper's scheme does without).
        receiver_model: the :class:`~repro.radio.receiver_model.SicReceiver`
            installed on every station's despreader bank when this MAC
            is selected network-wide (``None`` keeps the plain
            receiver).  One frozen, stateless instance serves every
            bank.
        stream_prefix: seed-tree prefix for per-station RNG streams;
            unique across the registry by construction.
        description: one-line human-readable summary.
    """

    name: str
    builder: Callable[[MacBuildContext], "MacProtocol"]
    slotted: bool = False
    receiver_model: Optional[SicReceiver] = None
    stream_prefix: str = ""
    description: str = ""


_REGISTRY: Dict[str, MacDescriptor] = {}


def register_mac(
    name: str,
    *,
    slotted: bool = False,
    receiver_model: Optional[SicReceiver] = None,
    stream_prefix: Optional[str] = None,
    description: str = "",
) -> Callable[[Callable[[MacBuildContext], "MacProtocol"]], Callable]:
    """Class decorator-style registration of a MAC builder.

    ``stream_prefix`` defaults to ``"<name>:"``, which cannot collide
    with any other registered name's default; the legacy single-letter
    prefixes are grandfathered explicitly for digest stability.
    """
    if not name:
        raise ValueError("a MAC needs a non-empty name")
    if receiver_model is not None and not isinstance(receiver_model, SicReceiver):
        raise TypeError(
            f"MAC {name!r} receiver model must be a SicReceiver, "
            f"not {receiver_model!r}"
        )
    prefix = f"{name}:" if stream_prefix is None else stream_prefix

    def decorate(
        builder: Callable[[MacBuildContext], "MacProtocol"],
    ) -> Callable[[MacBuildContext], "MacProtocol"]:
        if name in _REGISTRY:
            raise ValueError(f"MAC {name!r} is already registered")
        for other in _REGISTRY.values():
            if other.stream_prefix == prefix:
                raise ValueError(
                    f"MAC {name!r} stream prefix {prefix!r} collides "
                    f"with {other.name!r}; stream identity must be "
                    "unique per MAC"
                )
        _REGISTRY[name] = MacDescriptor(
            name=name,
            builder=builder,
            slotted=slotted,
            receiver_model=receiver_model,
            stream_prefix=prefix,
            description=description,
        )
        return builder

    return decorate


def mac_names() -> Tuple[str, ...]:
    """Registered MAC names, in registration order (the paper's scheme
    first, then the lineage in historical order, then the frontier)."""
    return tuple(_REGISTRY)


def get_mac(name: str) -> MacDescriptor:
    """The descriptor registered under ``name``.

    Raises:
        ValueError: for an unknown name (the known names are listed).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ValueError(
            f"unknown MAC {name!r}; registered MACs: {known}"
        ) from None


def mac_factory(
    name: str, streams: "RandomStreams", config: "NetworkConfig"
) -> Callable[[int, "LinkBudget"], "MacProtocol"]:
    """A ``(index, budget) -> MacProtocol`` factory for ``name``.

    Each station's instance is built from a :class:`MacBuildContext`
    over ``streams`` and ``config``; ``build_network`` resolves every
    registered name through here.

    Raises:
        ValueError: for an unknown name (the known names are listed).
    """
    descriptor = get_mac(name)

    def factory(index: int, budget: "LinkBudget") -> "MacProtocol":
        return descriptor.builder(
            MacBuildContext(
                index=index,
                budget=budget,
                config=config,
                streams=streams,
                descriptor=descriptor,
            )
        )

    return factory


# -- the registered contenders, in historical order -------------------


@register_mac(
    "shepard",
    description="the paper's schedule-based scheme",
)
def _build_shepard(context: MacBuildContext) -> "MacProtocol":
    return ShepardMac(
        guard=context.config.guard_fraction * context.budget.slot_time
    )


@register_mac(
    "aloha",
    stream_prefix="a",
    description="pure ALOHA with binary exponential backoff",
)
def _build_aloha(context: MacBuildContext) -> "MacProtocol":
    return AlohaMac(context.stream())


@register_mac(
    "slotted_aloha",
    slotted=True,
    stream_prefix="s",
    description="slot-aligned ALOHA (free global synchronisation)",
)
def _build_slotted_aloha(context: MacBuildContext) -> "MacProtocol":
    return AlohaMac(context.stream(), slotted=True)


@register_mac(
    "csma",
    stream_prefix="c",
    description="carrier sense with random deferral",
)
def _build_csma(context: MacBuildContext) -> "MacProtocol":
    return CsmaMac(
        context.stream(),
        # Sense threshold: half the delivered-power target — hears any
        # sender roughly as close as its own addressee, while staying
        # above the distant aggregate din.
        sense_threshold_w=0.5 * context.budget.target_delivered_w,
    )


@register_mac(
    "maca",
    stream_prefix="m",
    description="RTS/CTS handshaking (two control bursts per data)",
)
def _build_maca(context: MacBuildContext) -> "MacProtocol":
    return MacaMac(context.stream())


@register_mac(
    "sic_aloha",
    slotted=True,
    receiver_model=SicReceiver(),
    description=(
        "slotted ALOHA with successive interference cancellation at "
        "the receiver (Li & Dai)"
    ),
)
def _build_sic_aloha(context: MacBuildContext) -> "MacProtocol":
    return SicAlohaMac(context.stream())


@register_mac(
    "multilevel_power",
    slotted=True,
    description=(
        "slotted ALOHA with multi-level random transmit power "
        "(Kumar et al.)"
    ),
)
def _build_multilevel_power(context: MacBuildContext) -> "MacProtocol":
    return MultilevelPowerMac(context.stream())


@register_mac(
    "sinr_adaptive",
    slotted=True,
    description=(
        "persistence adapts to locally measured SINR (Kim & Kim)"
    ),
)
def _build_sinr_adaptive(context: MacBuildContext) -> "MacProtocol":
    return SinrAdaptiveMac(context.stream(), context.budget)
