"""Outside-in layer tracer for the benchmark's traced rep.

Spans are installed by replacing the binding a caller looks up (a
module global or a class attribute) with a timing wrapper, in the
traced child process only; untraced reps never install a span.
Each span records its layer's call count and *self* time: the span's
duration minus the time of the spans nested inside it, kept on a stack
so that recursion and cross-layer nesting are both handled.  Two root
spans, ``setup`` and ``run``, enclose everything a rep times; their own
self time is the part of the rep no named layer accounts for.

Rules for patching:

* classmethods are re-wrapped as classmethods;
* generator functions are never wrapped (a wrapper would time only the
  generator's creation) — such a target counts as unresolved;
* if any target of a layer fails to resolve, the whole layer is
  reported as missing and left unpatched, and the trace goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "Layer", "Tracer", "per_layer_metric_specs"]


@dataclass(frozen=True)
class Layer:
    """One simulator layer and the call sites its spans wrap.

    A target is ``"package.module:Name"`` or
    ``"package.module:Class.method"``; a ``*`` part fans out over the
    values of a registry dict (``"mod:REGISTRY.*.__init__"``).
    """

    name: str
    targets: Tuple[str, ...]


#: The layers, outermost first.  Where a layer has no public entry
#: point, the single private function named here is the one wrapped.
LAYERS: Tuple[Layer, ...] = (
    # run's own time is the dispatch loop around each step.
    Layer(
        "sim.engine",
        ("repro.sim.engine:Environment.run", "repro.sim.engine:Environment.step"),
    ),
    Layer(
        "core.access",
        (
            "repro.mac.shepard:find_transmit_window",
            "repro.analysis.metro:_first_joint_start",
        ),
    ),
    Layer(
        "net.medium",
        ("repro.net.medium:Medium.transmit", "repro.net.medium:Medium._end"),
    ),
    Layer(
        "net.medium.field",
        (
            "repro.net.medium:Medium._apply_axpy",
            "repro.net.medium:Medium._remove_axpy",
            "repro.net.medium:Medium._resync_field",
        ),
    ),
    Layer("net.medium.bound", ("repro.net.medium:Medium.field_error_bound_w",)),
    Layer(
        "net.medium.overhear", ("repro.net.medium:Medium._notify_overhearers",)
    ),
    Layer(
        "core.reception",
        (
            "repro.core.reception:TrackerBatch.add",
            "repro.core.reception:TrackerBatch.update",
            "repro.core.reception:TrackerBatch.update_where",
            "repro.core.reception:TrackerBatch.remove",
        ),
    ),
    Layer(
        "obs",
        (
            "repro.obs.api:Instrumentation.emit",
            "repro.obs.events:EVENT_TYPES.*.__init__",
        ),
    ),
    Layer(
        "propagation",
        (
            "repro.propagation.matrix:PropagationMatrix.from_placement",
            "repro.propagation.sparse:SparseGainField.from_placement",
        ),
    ),
    Layer(
        "routing",
        (
            "repro.net.network:min_energy_tables",
            "repro.net.network:min_hop_tables",
        ),
    ),
    Layer("clock", ("repro.net.network:_install_clock_models",)),
    Layer("parallel.task", ("repro.parallel.pool:execute_task",)),
    Layer(
        "parallel.cache",
        (
            "repro.parallel.cache:ResultCache.get",
            "repro.parallel.cache:ResultCache.put",
        ),
    ),
)

_LAYERS_BY_NAME = {layer.name: layer for layer in LAYERS}
_TRANSMIT = "repro.net.medium:Medium.transmit"
_JOINT_START = "repro.analysis.metro:_first_joint_start"
_RESYNC = "repro.net.medium:Medium._resync_field"
_CACHE_GET = "repro.parallel.cache:ResultCache.get"
_UPDATES = (
    "repro.core.reception:TrackerBatch.update",
    "repro.core.reception:TrackerBatch.update_where",
)

#: The extra per-layer metrics beyond ``<layer>.calls/.self_s/.share``:
#: ``(name, unit, better)``.
_EXTRA_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("core.access.calls_per_tx", "ratio", "lower"),
    ("core.access.failed", "count", "lower"),
    ("core.reception.rows_per_update", "rows", "lower"),
    ("net.medium.field.resyncs", "count", "lower"),
    ("parallel.cache.get_p50_us", "us", "lower"),
    ("parallel.cache.get_p99_us", "us", "lower"),
    ("bench.coverage", "ratio", "higher"),
    ("bench.trace_overhead", "ratio", "lower"),
)


def per_layer_metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric the traced rep reports, as
    ``(name, unit, better)``, in report order."""
    specs: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        specs.append((f"{layer.name}.calls", "count", "lower"))
        specs.append((f"{layer.name}.self_s", "s", "lower"))
        specs.append((f"{layer.name}.share", "ratio", "lower"))
    specs.extend(_EXTRA_METRICS)
    return specs


@dataclass
class _TargetStats:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0
    probe_sum: float = 0.0
    samples_s: List[float] = field(default_factory=list)


def _failed_result(target: str) -> Optional[Callable[[Any], bool]]:
    # The metro window search signals "no window" by returning inf;
    # find_transmit_window raises instead (counted by the wrapper).
    if target == _JOINT_START:
        return lambda result: result == math.inf
    return None


def _entry_probe(target: str) -> Optional[Callable[..., float]]:
    # Rows held by the tracker batch when an update starts.
    if target in _UPDATES:
        return lambda batch, *args, **kwargs: batch.count
    return None


class _Unresolved(Exception):
    pass


def _resolve(target: str) -> List[Tuple[Any, str]]:
    """The ``(owner, attribute)`` bindings a target names."""
    module_name, _, path = target.partition(":")
    try:
        owners: List[Any] = [importlib.import_module(module_name)]
    except ImportError as exc:
        raise _Unresolved(f"cannot import {module_name}: {exc}") from None
    parts = path.split(".")
    for part in parts[:-1]:
        if part == "*":
            owners = [value for owner in owners for value in owner.values()]
            continue
        try:
            owners = [getattr(owner, part) for owner in owners]
        except AttributeError:
            raise _Unresolved(f"{target}: no attribute {part!r}") from None
    attribute = parts[-1]
    bindings = []
    for owner in owners:
        if not hasattr(owner, attribute):
            raise _Unresolved(f"{target}: no attribute {attribute!r}")
        raw = (
            inspect.getattr_static(owner, attribute)
            if inspect.isclass(owner)
            else getattr(owner, attribute)
        )
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if not callable(func):
            raise _Unresolved(f"{target} is not callable")
        if inspect.isgeneratorfunction(func):
            raise _Unresolved(f"{target} is a generator function")
        bindings.append((owner, attribute))
    return bindings


class Tracer:
    """Span stack, per-target stats and the patches that feed them.

    Args:
        clock: the time source (seconds); tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        # Open spans: [start, time covered by nested spans].
        self._stack: List[List[float]] = []
        self._root_names: List[str] = []
        self.targets: Dict[str, _TargetStats] = {}
        self.roots: Dict[str, Tuple[float, float]] = {}  # name -> (wall, self)
        self.missing: Dict[str, str] = {}
        self._installed: List[Layer] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def _close(self, frame: List[float]) -> Tuple[float, float]:
        elapsed = self._clock() - frame[0]
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed, elapsed - frame[1]

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A root span (``setup`` or ``run``) enclosing timed work."""
        frame = [self._clock(), 0.0]
        self._stack.append(frame)
        self._root_names.append(name)
        try:
            yield
        finally:
            self._stack.pop()
            self._root_names.pop()
            wall, own = self._close(frame)
            old_wall, old_own = self.roots.get(name, (0.0, 0.0))
            self.roots[name] = (old_wall + wall, old_own + own)

    def _wrap(self, target: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` wrapped in a span attributed to ``target``."""
        stats = self.targets.setdefault(target, _TargetStats())
        stack = self._stack
        roots = self._root_names
        clock = self._clock
        close = self._close
        failed_result = _failed_result(target)
        probe = _entry_probe(target)
        sample = target == _CACHE_GET

        @functools.wraps(func)
        def span(*args: Any, **kwargs: Any) -> Any:
            if probe is not None:
                stats.probe_sum += probe(*args, **kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                stack.pop()
                elapsed, own = close(frame)
                stats.calls += 1
                stats.self_s += own
                if sample and roots and roots[0] == "run":
                    stats.samples_s.append(elapsed)
            if failed_result is not None and failed_result(result):
                stats.failed += 1
            return result

        return span

    # -- patching ------------------------------------------------------

    def install(self, layers: Tuple[Layer, ...] = LAYERS) -> None:
        """Patch every resolvable layer; record the rest as missing."""
        for layer in layers:
            try:
                resolved = [(t, _resolve(t)) for t in layer.targets]
            except _Unresolved as exc:
                self.missing[layer.name] = str(exc)
                continue
            for target, bindings in resolved:
                for owner, attribute in bindings:
                    self._patch(target, owner, attribute)
            self._installed.append(layer)

    def _patch(self, target: str, owner: Any, attribute: str) -> None:
        raw = (
            inspect.getattr_static(owner, attribute)
            if inspect.isclass(owner)
            else getattr(owner, attribute)
        )
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self._wrap(target, raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._wrap(target, raw.__func__))
        else:
            patched = self._wrap(target, raw)
        self._patches.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, patched)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, attribute, original in reversed(self._patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def _stat(self, target: str) -> _TargetStats:
        return self.targets.get(target) or _TargetStats()

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics by name (``bench.trace_overhead`` is left
        to the caller, which knows the untraced run time).  Metrics of
        a missing layer are omitted."""
        wall = sum(total for total, _own in self.roots.values())
        covered = 0.0
        values: Dict[str, float] = {}
        for layer in self._installed:
            stats = [self._stat(target) for target in layer.targets]
            self_s = sum(stat.self_s for stat in stats)
            covered += self_s
            values[f"{layer.name}.calls"] = sum(stat.calls for stat in stats)
            values[f"{layer.name}.self_s"] = self_s
            values[f"{layer.name}.share"] = self_s / wall if wall > 0 else 0.0
        if "core.access.calls" in values and "net.medium.calls" in values:
            transmissions = self._stat(_TRANSMIT).calls
            values["core.access.calls_per_tx"] = (
                values["core.access.calls"] / transmissions if transmissions else 0.0
            )
            values["core.access.failed"] = sum(
                self._stat(t).failed for t in _LAYERS_BY_NAME["core.access"].targets
            )
        if "core.reception.calls" in values:
            updates = sum(self._stat(t).calls for t in _UPDATES)
            rows = sum(self._stat(t).probe_sum for t in _UPDATES)
            values["core.reception.rows_per_update"] = rows / updates if updates else 0.0
        if "net.medium.field.calls" in values:
            values["net.medium.field.resyncs"] = self._stat(_RESYNC).calls
        if "parallel.cache.calls" in values:
            p50, p99 = _percentiles_us(self._stat(_CACHE_GET).samples_s)
            values["parallel.cache.get_p50_us"] = p50
            values["parallel.cache.get_p99_us"] = p99
        values["bench.coverage"] = covered / wall if wall > 0 else 0.0
        return values


def _percentiles_us(samples_s: List[float]) -> Tuple[float, float]:
    if len(samples_s) < 2:
        only = samples_s[0] * 1e6 if samples_s else 0.0
        return only, only
    cuts = statistics.quantiles(samples_s, n=100, method="inclusive")
    return cuts[49] * 1e6, cuts[98] * 1e6
