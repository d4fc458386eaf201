"""Metric timelines: windowed per-station series derived from events.

A :class:`MetricTimelines` is a :class:`~repro.obs.sinks.Sink` that
folds the typed event stream into per-kind counts and per-station time
series as it flows — duty cycle, queue depth, SIR margin, losses — in
O(stations x windows) memory, never retaining the events themselves.

It folds only what a run's :class:`~repro.net.network.NetworkResult`
cannot give: the result already carries every cumulative counter
(deliveries, the loss taxonomy, delay, duty cycle), and experiments
read their rows from it.  ``repro report`` draws the windowed series.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.obs.events import TraceEvent
from repro.obs.sinks import Sink
from repro.sim.stats import Welford

__all__ = ["MetricTimelines"]


class MetricTimelines(Sink):
    """Per-kind event counts and windowed per-station series.

    Args:
        window: window length in simulated time units for the per-window
            series; ``None`` counts event kinds only.  May be assigned
            after construction (e.g. once the built network's slot time
            is known) as long as no event has been emitted; every
            assignment is checked to be positive and finite.
    """

    def __init__(self, window: Optional[float] = None) -> None:
        self.window = window
        self._counts: Counter = Counter()
        self._last_time = 0.0
        self._tx_open: Dict[int, float] = {}
        # Windowed series state, all keyed by (station, window index).
        self._duty_w: Dict[Tuple[int, int], float] = {}
        self._queue_w: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._sir_w: Dict[Tuple[int, int], Welford] = {}
        self._loss_w: Counter = Counter()

    def _get_window(self) -> Optional[float]:
        return self._window

    def _set_window(self, window: Optional[float]) -> None:
        if window is not None and not (math.isfinite(window) and window > 0.0):
            raise ValueError("window must be positive and finite")
        self._window = window

    window = property(_get_window, _set_window, doc="The window length, or None.")

    # -- sink protocol -------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        """Fold one typed event into the timelines."""
        kind = event.KIND
        self._counts[kind] += 1
        if event.time > self._last_time:
            self._last_time = event.time
        if self._window is not None:
            handler = _HANDLERS.get(kind)
            if handler is not None:
                handler(self, event)

    # -- per-kind folds (windowed only) --------------------------------

    def _on_tx_start(self, event: TraceEvent) -> None:
        self._tx_open[event.source] = event.time

    def _on_tx_end(self, event: TraceEvent) -> None:
        start = self._tx_open.pop(event.source, None)
        if start is None:
            return
        window = self._window
        first = int(start // window)
        last = int(event.time // window)
        for index in range(first, last + 1):
            low = max(start, index * window)
            high = min(event.time, (index + 1) * window)
            if high > low:
                key = (event.source, index)
                self._duty_w[key] = self._duty_w.get(key, 0.0) + (high - low)

    def _on_rx_ok(self, event: TraceEvent) -> None:
        key = (event.receiver, int(event.time // self._window))
        welford = self._sir_w.get(key)
        if welford is None:
            welford = self._sir_w[key] = Welford()
        welford.add(event.min_sir)

    def _on_rx_fail(self, event: TraceEvent) -> None:
        self._loss_w[(event.receiver, int(event.time // self._window))] += 1

    def _on_queue_change(self, event: TraceEvent) -> None:
        self._set_queue_depth(event.station, event.depth, event.time)

    def _on_queue_flush(self, event: TraceEvent) -> None:
        self._set_queue_depth(event.station, 0, event.time)

    def _set_queue_depth(self, station: int, depth: int, time: float) -> None:
        key = (station, int(time // self._window))
        previous = self._queue_w.get(key)
        peak = depth if previous is None else max(previous[1], depth)
        self._queue_w[key] = (depth, peak)

    # -- counts --------------------------------------------------------

    def count(self, kind: str) -> int:
        """Occurrences of one event kind."""
        return self._counts[kind]

    def kinds(self) -> Dict[str, int]:
        """Mapping of event kind to occurrence count."""
        return dict(self._counts)

    # -- time series ---------------------------------------------------

    def _require_window(self) -> float:
        if self._window is None:
            raise ValueError(
                "series need a window; construct MetricTimelines with "
                "window set (or assign it before the run starts)"
            )
        return self._window

    @property
    def window_count(self) -> int:
        """Number of windows the observed stream spans."""
        window = self._require_window()
        if self._last_time <= 0.0:
            return 0
        return int(self._last_time // window) + 1

    def duty_series(self, station: int) -> List[Tuple[float, float]]:
        """Per-window ``(window start, duty fraction)`` for a station."""
        window = self._require_window()
        return [
            (index * window, self._duty_w.get((station, index), 0.0) / window)
            for index in range(self.window_count)
        ]

    def queue_depth_series(self, station: int) -> List[Tuple[float, int]]:
        """Per-window ``(window start, peak backlog depth)``; windows
        without queue activity carry the last observed depth forward."""
        window = self._require_window()
        series: List[Tuple[float, int]] = []
        depth = 0
        for index in range(self.window_count):
            sample = self._queue_w.get((station, index))
            if sample is not None:
                value = sample[1]
                depth = sample[0]
            else:
                value = depth
            series.append((index * window, value))
        return series

    def sir_series(self, station: int) -> List[Tuple[float, float]]:
        """Per-window ``(window start, mean delivered min-SIR)``; NaN in
        windows where the station received nothing."""
        window = self._require_window()
        return [
            (
                index * window,
                self._sir_w[(station, index)].mean
                if (station, index) in self._sir_w
                else math.nan,
            )
            for index in range(self.window_count)
        ]

    def loss_series(
        self, station: Optional[int] = None
    ) -> List[Tuple[float, int]]:
        """Per-window ``(window start, lost hops)`` at one receiver, or
        network-wide when ``station`` is ``None``."""
        window = self._require_window()
        series: List[Tuple[float, int]] = []
        for index in range(self.window_count):
            if station is None:
                total = sum(
                    count
                    for (_s, w), count in self._loss_w.items()
                    if w == index
                )
            else:
                total = self._loss_w[(station, index)]
            series.append((index * window, total))
        return series


_HANDLERS = {
    "tx_start": MetricTimelines._on_tx_start,
    "tx_end": MetricTimelines._on_tx_end,
    "tx_abort": MetricTimelines._on_tx_end,
    "rx_ok": MetricTimelines._on_rx_ok,
    "rx_fail": MetricTimelines._on_rx_fail,
    "queue_enter": MetricTimelines._on_queue_change,
    "queue_leave": MetricTimelines._on_queue_change,
    "queue_flush": MetricTimelines._on_queue_flush,
}
