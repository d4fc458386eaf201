"""Continuous time-varying channels: mobility plus fading, with
re-acquisition.

The fault layer's :class:`~repro.faults.spec.LinkFade` is a one-shot
episode: scale a link, hold, restore.  This module generalises it into
a *process*: a maintenance generator that, every ``tick_slots``, (1)
advances a :class:`~repro.mobility.models.MobilityModel` and
re-evaluates path gains for every link touching a moved station, (2)
evolves an AR(1) log-normal shadow-fading state per tracked link, and
(3) pushes the combined gains into the medium through
:meth:`~repro.net.medium.Medium.update_links` — an *incremental*
write that keeps the interference field consistent via the same
delta/axpy accounting (and the same sanitizer-checked resync bound) as
transmission begin/end.

Determinism: every random draw flows from the seed tree
(:func:`~repro.parallel.seedtree.derive_seed`), with independent
branches for fading, mobility, and re-acquisition, so channel
trajectories are bit-reproducible and identical across worker counts.

Exact restore: the tracked links and their geometry gains are read
at install from the network's nominal matrix, the array its medium
was built on, and only re-evaluated for links touching moved
stations.  With zero mobility the geometry never changes, so when the
episode ends and fades are reset, the process writes back exactly the
nominal gains — :meth:`~repro.net.medium.Medium
.channel_drift_from_nominal` returns identically ``0.0``, which the
process asserts under ``REPRO_SANITIZE=1``.

Zero cost: an inert spec (no mobility or zero speed, no fading or
zero sigma) makes :func:`install_channel` return ``None`` without
touching the network — mirroring the empty
:class:`~repro.faults.spec.FaultPlan` guarantee, replay digests are
bit-identical to runs without this package imported.

Re-acquisition (Section 7.1 under churn): every
``reacquire_every_slots`` the process compares each link's live
*geometry* against the link budget's hearability threshold.  When the
hearable set differs from the last known one, the affected stations
have stale receive-window state; after ``reacquire_delay_slots`` (the
modelled detection/rendezvous lag) the process calls
:meth:`~repro.net.network.Network.reconverge`, which re-fits clock
models for new pairs, re-derives routes, re-aims power control, and
kicks schedule-driven MACs.  Turnovers and re-acquisitions are logged
in a :class:`~repro.faults.resilience.ResilienceLog` so experiments
can report per-station rendezvous-recovery latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Set

import numpy as np

from repro.faults.resilience import ResilienceLog
from repro.faults.spec import _require_finite
from repro.mobility.models import MobilityModel
from repro.obs.events import (
    ChannelUpdate,
    NeighborTurnover,
    RendezvousReacquire,
)
from repro.parallel.seedtree import derive_seed
from repro.sim.process import ProcessGenerator
from repro.sim.sanitizer import SanitizerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = ["FadingSpec", "ChannelSpec", "ChannelProcess", "install_channel"]


@dataclass(frozen=True)
class FadingSpec:
    """AR(1) log-normal shadow fading per link.

    Each tracked link carries a fade state ``x`` in dB evolving as
    ``x' = rho * x + sqrt(1 - rho^2) * sigma * eps`` with
    ``rho = exp(-tick / coherence)``: a Gauss-Markov process whose
    stationary distribution is ``N(0, sigma^2)`` regardless of tick
    rate, so the fading statistics do not depend on the tick interval.

    Attributes:
        sigma_db: stationary standard deviation of the fade, in dB.
        coherence_slots: 1/e decorrelation time of the fade, in slots —
            retries spaced further apart than this see effectively
            independent channel draws.
    """

    sigma_db: float = 3.0
    coherence_slots: float = 8.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.sigma_db < 0.0:
            raise ValueError("fade sigma must be non-negative")
        if self.coherence_slots <= 0.0:
            raise ValueError("coherence time must be positive")

    @property
    def is_inert(self) -> bool:
        """Whether the fading can never change a gain."""
        return self.sigma_db == 0.0


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative description of a continuous channel episode.

    Attributes:
        mobility: station trajectory model, or ``None`` for static.
        fading: per-link shadow fading, or ``None`` for none.
        tick_slots: channel update interval, in slots.
        start_slot: episode start, slots after the process begins.
        end_slot: episode end (slots after the process begins); the
            channel holds still afterwards.  ``None`` runs forever.
        restore_fading_at_end: reset fades to 0 dB when the episode
            ends, so the channel settles on pure geometry.
        reacquire_every_slots: neighbour-set scan interval, or ``None``
            to disable re-acquisition entirely (baseline behaviour:
            the network soldiers on with stale state).
        reacquire_delay_slots: modelled detection/rendezvous lag
            between a scan that finds turnover and the re-convergence.
        track_gain_floor: optionally ignore links whose install-time
            gain is below this floor (bounds the tracked-link count).
    """

    mobility: Optional[MobilityModel] = None
    fading: Optional[FadingSpec] = None
    tick_slots: float = 2.0
    start_slot: float = 0.0
    end_slot: Optional[float] = None
    restore_fading_at_end: bool = True
    reacquire_every_slots: Optional[float] = None
    reacquire_delay_slots: float = 4.0
    track_gain_floor: Optional[float] = None

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.tick_slots <= 0.0:
            raise ValueError("tick interval must be positive")
        if self.start_slot < 0.0:
            raise ValueError("start slot must be non-negative")
        if self.end_slot is not None and self.end_slot <= self.start_slot:
            raise ValueError("episode must end after it starts")
        if (
            self.reacquire_every_slots is not None
            and self.reacquire_every_slots <= 0.0
        ):
            raise ValueError("reacquire interval must be positive")
        if self.reacquire_delay_slots < 0.0:
            raise ValueError("reacquire delay must be non-negative")
        if self.track_gain_floor is not None and self.track_gain_floor < 0.0:
            raise ValueError("track floor must be non-negative")

    @property
    def is_inert(self) -> bool:
        """Whether the spec can never change the channel.

        An inert spec installs *nothing* (see :func:`install_channel`),
        which is the zero-cost guarantee: runs are bit-identical to
        ones without channel support.
        """
        moving = self.mobility is not None and not self.mobility.is_static
        fading = self.fading is not None and not self.fading.is_inert
        return not moving and not fading


class ChannelProcess:
    """The running channel: per-tick gain updates plus re-acquisition.

    Construct via :func:`install_channel`.  Exposes the same ``log``
    as the fault injector so experiments treat discrete faults and
    continuous churn uniformly.
    """

    def __init__(
        self, network: "Network", spec: ChannelSpec, seed: int = 0
    ) -> None:
        self.network = network
        self.spec = spec
        self.seed = seed
        self.env = network.env
        self.medium = network.medium
        self.instr = network.instrumentation
        self.log = ResilienceLog()
        self.ticks = 0
        self.updates_applied = 0
        self._fade_rng = np.random.default_rng(
            derive_seed(seed, "channel", "fading")
        )
        self._mobility_rng = np.random.default_rng(
            derive_seed(seed, "channel", "mobility")
        )
        self._reacquire_rng = np.random.default_rng(
            derive_seed(seed, "channel", "reacquire")
        )
        self._positions = np.array(
            network.placement.positions, dtype=float, copy=True
        )
        # Routing/power geometry baseline for reconverge: tracked links
        # are overwritten with live geometry, untracked ones (below the
        # track floor) keep their nominal values.
        self._base_gains = np.array(network.matrix.gains, copy=True)
        self._receivers, self._sources, self._geometry = self._tracked_links()
        self._fade_db = np.zeros(self._geometry.size)
        self._known_hearable = self._geometry >= network.budget.min_gain
        self._turned_over: Set[int] = set()

    # -- link tracking --------------------------------------------------

    def _tracked_links(self):
        """(receivers, sources, gains) for every link the process
        maintains, from the nominal matrix."""
        receivers, sources = np.nonzero(self._base_gains > 0.0)
        receivers = receivers.astype(np.intp)
        sources = sources.astype(np.intp)
        gains = self._base_gains[receivers, sources].astype(float)
        keep = receivers != sources
        if self.spec.track_gain_floor is not None:
            keep &= gains >= self.spec.track_gain_floor
        return receivers[keep], sources[keep], gains[keep].copy()

    @property
    def tracked_links(self) -> int:
        """Number of links the process maintains."""
        return int(self._geometry.size)

    def _refresh_geometry(self, moved: np.ndarray) -> None:
        """Re-evaluate path gains for links touching moved stations.

        Only touched links are recomputed; untouched links keep their
        cached values bit-exactly, which is what makes the zero-
        velocity episode restore *exactly* nominal.
        """
        touched = np.isin(self._receivers, moved) | np.isin(
            self._sources, moved
        )
        idx = np.nonzero(touched)[0]
        if idx.size == 0:
            return
        delta = (
            self._positions[self._receivers[idx]]
            - self._positions[self._sources[idx]]
        )
        distance = np.sqrt((delta**2).sum(axis=1))
        self._geometry[idx] = np.asarray(
            self.network.propagation_model.power_gain(distance), dtype=float
        )

    # -- per-tick update ------------------------------------------------

    def _tick(self) -> None:
        spec = self.spec
        moved = np.empty(0, dtype=np.intp)
        if spec.mobility is not None:
            moved = spec.mobility.step(
                self._positions, spec.tick_slots, self._mobility_rng
            )
            if moved.size:
                self._refresh_geometry(moved)
        gains = self._geometry
        if spec.fading is not None and not spec.fading.is_inert:
            rho = math.exp(-spec.tick_slots / spec.fading.coherence_slots)
            noise = self._fade_rng.standard_normal(self._fade_db.size)
            self._fade_db *= rho
            self._fade_db += math.sqrt(1.0 - rho * rho) * (
                spec.fading.sigma_db * noise
            )
            gains = self._geometry * 10.0 ** (self._fade_db / 10.0)
        applied = self.medium.update_links(self._receivers, self._sources, gains)
        self.ticks += 1
        self.updates_applied += applied
        if self.instr.active:
            self.instr.emit(
                ChannelUpdate(self.env.now, int(moved.size), applied)
            )

    def _restore_fading(self) -> None:
        """Reset fades to 0 dB and settle the medium on pure geometry."""
        self._fade_db[:] = 0.0
        self.medium.update_links(self._receivers, self._sources, self._geometry)
        if self.instr.active:
            self.instr.emit(ChannelUpdate(self.env.now, 0, self.tracked_links))
        if self.env.sanitizing and (
            self.spec.mobility is None or self.spec.mobility.is_static
        ):
            # Exact-restore discipline: with no mobility the geometry
            # cache was never recomputed, so the medium must be back at
            # nominal *bit-exactly* — any drift means the incremental
            # update path compounded where it should not have.
            drift = self.medium.channel_drift_from_nominal()
            if drift != 0.0:
                raise SanitizerError(
                    f"channel restore left gain drift {drift!r} "
                    "from nominal on a mobility-free episode"
                )

    # -- re-acquisition -------------------------------------------------

    def _scan_turnover(self) -> bool:
        """Compare live-geometry hearability against the known set.

        Logs per-station turnovers for stations whose neighbour set
        changed; returns whether anything turned over.
        """
        hearable = self._geometry >= self.network.budget.min_gain
        changed = hearable != self._known_hearable
        if not changed.any():
            return False
        now = self.env.now
        changed_idx = np.nonzero(changed)[0]
        for station in np.unique(
            self._receivers[changed_idx]
        ).tolist():
            at_station = changed_idx[self._receivers[changed_idx] == station]
            gained = int(np.count_nonzero(hearable[at_station]))
            lost = int(at_station.size - gained)
            self.log.turnovers.append((now, int(station)))
            self._turned_over.add(int(station))
            if self.instr.active:
                self.instr.emit(
                    NeighborTurnover(now, int(station), gained, lost)
                )
        self._known_hearable = hearable
        return True

    def _live_matrix(self):
        """Dense routing/power geometry: nominal with tracked links
        overwritten by live geometry (no fading — routing and power
        control aim at the mean channel, not the instantaneous fade)."""
        from repro.propagation.matrix import PropagationMatrix

        live = self._base_gains.copy()
        live[self._receivers, self._sources] = self._geometry
        return PropagationMatrix(live)

    def _reconverge(self) -> None:
        counters = self.network.reconverge(
            self._live_matrix(), self._reacquire_rng
        )
        now = self.env.now
        stations = sorted(self._turned_over)
        for station in stations:
            self.log.reacquired.append((now, station))
        self._turned_over.clear()
        self.log.mobility_reroutes.append(now)
        if self.instr.active:
            self.instr.emit(
                RendezvousReacquire(
                    now,
                    len(stations),
                    counters["new_pairs"],
                    counters["kicked"],
                )
            )

    # -- the maintenance process ----------------------------------------

    def process(self) -> ProcessGenerator:
        """The maintenance generator ``install_channel`` registers."""
        env = self.env
        spec = self.spec
        slot = self.network.budget.slot_time
        tick_dt = spec.tick_slots * slot
        origin = env.now
        if spec.start_slot > 0.0:
            yield env.timeout(spec.start_slot * slot)
        if spec.mobility is not None and not spec.mobility.is_static:
            spec.mobility.prepare(
                self._positions,
                self.network.placement.region_radius,
                self._mobility_rng,
            )
        end_at = (
            None
            if spec.end_slot is None
            else origin + spec.end_slot * slot
        )
        scan_dt = (
            None
            if spec.reacquire_every_slots is None
            else spec.reacquire_every_slots * slot
        )
        next_scan = None if scan_dt is None else env.now + scan_dt
        pending_at: Optional[float] = None
        while True:
            now = env.now
            if pending_at is not None and pending_at < now + tick_dt:
                # Service the scheduled re-convergence before the next
                # channel tick (the rendezvous lag elapsed mid-tick).
                if pending_at > now:
                    yield env.timeout(pending_at - now)
                self._reconverge()
                pending_at = None
                continue
            yield env.timeout(tick_dt)
            if end_at is not None and env.now > end_at + 1e-12:
                break
            self._tick()
            if next_scan is not None and env.now >= next_scan:
                if self._scan_turnover() and pending_at is None:
                    pending_at = env.now + spec.reacquire_delay_slots * slot
                next_scan = env.now + scan_dt
        # Episode over: settle the channel, then converge onto it.
        if spec.fading is not None and spec.restore_fading_at_end:
            self._restore_fading()
        if scan_dt is not None:
            self._scan_turnover()
            if spec.reacquire_delay_slots > 0.0:
                yield env.timeout(spec.reacquire_delay_slots * slot)
            self._reconverge()


def install_channel(
    network: "Network", spec: ChannelSpec, seed: int = 0
) -> Optional[ChannelProcess]:
    """Attach a continuous channel process to a network before it starts.

    Returns the installed :class:`ChannelProcess` (also stored as
    ``network.channel``), or ``None`` for an inert spec — in which
    case nothing is installed and the run is bit-identical to one
    without channel support (the mobility counterpart of the empty
    fault plan guarantee).
    """
    if spec.is_inert:
        return None
    process = ChannelProcess(network, spec, seed)
    network.add_maintenance(process.process)
    network.channel = process
    return process
