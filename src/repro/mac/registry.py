"""Declarative MAC registry: the plug-in surface for channel access.

Every contender — the paper's scheme and each baseline — registers a
:class:`MacDescriptor` here under a stable name, carrying both the
capability flags experiments care about (slotted?  needs a
despreader-bank receiver model?) and the recipe for building one bound
instance per station.  Experiments enumerate and build by name
(:func:`mac_names` / :func:`build_mac` / :func:`mac_suite`), and
``build_network(mac="sic_aloha")`` resolves through the same table, so
adding a MAC is one module plus one ``@register_mac`` decorator — no
hand-written suite dicts to keep in sync.

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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.mac.aloha import AlohaMac
from repro.mac.csma import CsmaMac
from repro.mac.maca import MacaMac
from repro.mac.multilevel_power import MultilevelPowerMac
from repro.mac.sic_aloha import SicAlohaMac
from repro.mac.sinr_adaptive import SinrAdaptiveMac
from repro.radio.receiver_model import receiver_model_names

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.base import MacProtocol
    from repro.net.network import LinkBudget
    from repro.sim.streams import RandomStreams

__all__ = [
    "MacBuildContext",
    "MacDescriptor",
    "register_mac",
    "mac_names",
    "get_mac",
    "build_mac",
    "mac_factory",
    "mac_suite",
]


@dataclass(frozen=True)
class MacBuildContext:
    """Everything a registered builder may draw on for one station.

    Attributes:
        index: the station's network-wide index.
        budget: the built network's calibrated link budget.
        streams: the seed-tree stream factory for this suite/network.
        descriptor: the descriptor being built (supplies the stream
            prefix).
    """

    index: int
    budget: "LinkBudget"
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
        needs_bank: the scheme's semantics depend on the receiver's
            despreader bank beyond plain tracking (e.g. a cancelling
            receiver model).
        builder_default: ``build_network`` ignores the registry builder
            for this name and uses its own config-aware default (the
            paper's scheme derives its guard from the network config,
            which the per-station build contract cannot see).
        receiver_model: receiver model name to install on every
            station's despreader bank when this MAC is selected
            network-wide (``None`` keeps the plain default receiver).
        stream_prefix: seed-tree prefix for per-station RNG streams;
            unique across the registry by construction.
        description: one-line human-readable summary.
    """

    name: str
    builder: Callable[[MacBuildContext], "MacProtocol"]
    slotted: bool = False
    needs_bank: bool = False
    builder_default: bool = False
    receiver_model: Optional[str] = None
    stream_prefix: str = ""
    description: str = ""


_REGISTRY: Dict[str, MacDescriptor] = {}


def register_mac(
    name: str,
    *,
    slotted: bool = False,
    needs_bank: bool = False,
    builder_default: bool = False,
    receiver_model: Optional[str] = None,
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
    prefix = f"{name}:" if stream_prefix is None else stream_prefix
    if receiver_model is not None and receiver_model not in receiver_model_names():
        known = ", ".join(receiver_model_names())
        raise ValueError(
            f"MAC {name!r} names unknown receiver model "
            f"{receiver_model!r}; known models: {known}"
        )

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
            needs_bank=needs_bank,
            builder_default=builder_default,
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


def build_mac(
    name: str,
    index: int,
    budget: "LinkBudget",
    streams: "RandomStreams",
) -> "MacProtocol":
    """Build one station's MAC instance by registry name."""
    descriptor = get_mac(name)
    return descriptor.builder(
        MacBuildContext(
            index=index, budget=budget, streams=streams, descriptor=descriptor
        )
    )


def mac_factory(
    name: str, streams: "RandomStreams"
) -> Optional[Callable[[int, "LinkBudget"], "MacProtocol"]]:
    """A ``(index, budget) -> MacProtocol`` factory for ``name``.

    Returns ``None`` for ``builder_default`` descriptors (the paper's
    scheme), telling ``build_network`` to use its config-aware default
    — the same convention the legacy suite dict used.
    """
    descriptor = get_mac(name)
    if descriptor.builder_default:
        return None

    def factory(index: int, budget: "LinkBudget") -> "MacProtocol":
        return descriptor.builder(
            MacBuildContext(
                index=index,
                budget=budget,
                streams=streams,
                descriptor=descriptor,
            )
        )

    return factory


def mac_suite(
    seed: int, names: Optional[Sequence[str]] = None
) -> Dict[str, Optional[Callable[[int, "LinkBudget"], "MacProtocol"]]]:
    """Name -> factory for a whole contender suite (None = the scheme).

    The drop-in replacement for the old hand-written T7 dict: one
    :class:`~repro.sim.streams.RandomStreams` per suite, per-MAC stream
    prefixes from the registry.  ``names`` selects and orders a subset;
    unknown names raise.
    """
    from repro.sim.streams import RandomStreams

    streams = RandomStreams(seed)
    selected = mac_names() if names is None else tuple(names)
    return {name: mac_factory(name, streams) for name in selected}


# -- the registered contenders, in historical order -------------------


@register_mac(
    "shepard",
    builder_default=True,
    description=(
        "the paper's schedule-based scheme; built by build_network with "
        "its config-derived guard"
    ),
)
def _build_shepard(context: MacBuildContext) -> "MacProtocol":
    raise ValueError(
        "the paper's scheme derives its guard from the network config; "
        "build it through build_network (mac='shepard' or the default) "
        "rather than build_mac"
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
    needs_bank=True,
    receiver_model="sic",
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
