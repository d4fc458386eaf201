"""Task descriptions and execution: one seeded simulation run per task.

A :class:`TaskSpec` is a picklable, self-contained description of one
unit of work — an experiment from the registry, a dotted-name callable,
or the standard loaded-network scenario — plus the derived seed that
makes it reproducible.  :func:`execute_task` turns a spec into a
:class:`TaskResult` *without ever raising*: exceptions become
structured error rows, so a pool of workers can aggregate outcomes
deterministically whatever happens inside a task.

Because a task is fully described by its spec (parameters and seed
included), executing it inline, in a spawned worker, or on another
host yields bit-identical payloads — the property the cross-process
determinism tests pin down via :func:`payload_digest`.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

__all__ = [
    "TaskSpec",
    "TaskResult",
    "canonicalize",
    "execute_task",
    "payload_digest",
    "report_to_payload",
    "payload_to_report",
    "resolve_function",
    "spec_identity",
    "spec_digest",
]

#: Task kinds: an experiment id from the registry, a ``module:callable``
#: dotted name, or the standard ``run_loaded_network`` scenario.
_KINDS = ("experiment", "function", "scenario")


@dataclass(frozen=True)
class TaskSpec:
    """One unit of parallelisable work.

    Attributes:
        task_id: unique, stable identifier; aggregation merges results
            in spec order, keyed by this id.
        kind: ``"experiment"`` (``target`` is a registry id such as
            ``"T7"``), ``"function"`` (``target`` is a picklable-safe
            ``"package.module:callable"`` dotted name), or
            ``"scenario"`` (the ``run_loaded_network`` family;
            ``target`` is ignored).
        target: what to run, interpreted per ``kind``.
        params: keyword arguments for the target (must be picklable).
        seed: derived seed from the task tree; when set it is passed to
            the target as its ``seed`` keyword (the builder is
            responsible for only seeding seed-taking targets).
        sanitize: run under the determinism sanitizer; targets that
            expose a ``replay_digest`` in their payload need this.
        timeout_s: per-task wall-clock limit (enforced only by the
            multiprocess pool; inline execution cannot be interrupted).
        retries: extra attempts after a worker crash or timeout (a task
            failing with a Python exception is *not* retried — that
            failure is deterministic).
    """

    task_id: str
    kind: str
    target: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    sanitize: bool = False
    timeout_s: Optional[float] = None
    retries: int = 1

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; one of {_KINDS}")
        if self.kind in ("experiment", "function") and not self.target:
            raise ValueError(f"{self.kind} tasks need a target")
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ValueError("timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")

    def kwargs(self) -> Dict[str, Any]:
        """The keyword arguments actually passed to the target."""
        merged = dict(self.params)
        if self.seed is not None:
            merged["seed"] = self.seed
        return merged


@dataclass
class TaskResult:
    """Outcome of one task: a payload, or a structured error — never a
    missing row.

    Attributes:
        task_id: the spec's id.
        ok: whether the task produced a payload.
        payload: picklable result dictionary (``None`` on error).
        error: failure description (exception, crash, or timeout).
        attempts: how many times the task was started (> 1 after a
            worker crash or timeout triggered a retry).
        replay_digest: the engine's replay digest, when the task ran
            sanitized and its payload carried one.
        payload_digest: BLAKE2b fingerprint of the canonicalised
            payload — the cross-process bit-exactness check.
    """

    task_id: str
    ok: bool
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 1
    replay_digest: Optional[str] = None
    payload_digest: Optional[str] = None


def resolve_function(dotted: str) -> Callable[..., Any]:
    """Import ``"package.module:callable"`` and return the callable."""
    module_name, separator, attribute = dotted.partition(":")
    if not separator or not module_name or not attribute:
        raise ValueError(
            f"function target {dotted!r} is not of the form 'module:callable'"
        )
    module = importlib.import_module(module_name)
    try:
        func = getattr(module, attribute)
    except AttributeError:
        raise AttributeError(
            f"module {module_name!r} has no attribute {attribute!r}"
        ) from None
    if not callable(func):
        raise TypeError(f"{dotted!r} is not callable")
    return func


#: Canonical spellings of the floats JSON cannot carry.  ``json.dumps``
#: would otherwise emit the non-standard tokens ``NaN``/``Infinity``
#: (which ``json.loads`` turns back into values that break ``==``
#: comparisons, so journal/cache round-trips would silently diverge).
_NONFINITE = {"nan": "nan", "inf": "inf", "-inf": "-inf"}


#: Exact built-in types that are already canonical.  Subclasses (an
#: ``IntEnum``, a ``str`` subclass) are not in it: they take the full
#: chain, whose ``isinstance`` tests give them the same JSON as before.
_ATOMS = frozenset({str, int, bool, type(None)})


def _plain(value: Any) -> Any:
    """Canonicalise a value for digesting: numpy scalars to Python
    scalars, arrays to nested lists, tuples to lists, mappings keyed by
    ``str``, and non-finite floats to an explicit marker mapping.

    The exact built-in types a payload is made of are dispatched on
    first, without the ``Mapping`` ABC check; everything else goes
    through :func:`_plain_other` and canonicalises to the same JSON.
    """
    cls = type(value)
    if cls in _ATOMS:
        return value
    if cls is float:
        if math.isfinite(value):
            return value
    elif cls is dict:
        return {str(key): _plain(sub) for key, sub in value.items()}
    elif cls is list or cls is tuple:
        return [_plain(element) for element in value]
    return _plain_other(value)


def _plain_other(value: Any) -> Any:
    """:func:`_plain` for numpy values, sequence and mapping subclasses,
    non-finite floats, and anything else (its ``repr``)."""
    if type(value).__module__.partition(".")[0] == "numpy":
        if getattr(value, "ndim", 0) > 0:
            return _plain(value.tolist())
        if hasattr(value, "item"):
            return _plain(value.item())
    if isinstance(value, (list, tuple)):
        return [_plain(element) for element in value]
    if isinstance(value, Mapping):
        return {str(key): _plain(sub) for key, sub in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {"__nonfinite__": _NONFINITE["nan"]}
        return {"__nonfinite__": _NONFINITE["inf" if value > 0 else "-inf"]}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonicalize(value: Any) -> Any:
    """Public alias of the canonicaliser: JSON-safe, numpy-free values
    (used when writing payloads to report artifacts)."""
    return _plain(value)


def _json_digest(value: Any) -> str:
    """BLAKE2b over ``value``'s canonical JSON: sorted keys, and no
    ``NaN``/``Infinity`` tokens (``ValueError`` instead).  ``value`` must
    already be canonical, as :func:`_plain` output or JSON decoded from
    it is; the recipe behind :func:`payload_digest` and
    :func:`spec_digest`."""
    canonical = json.dumps(value, sort_keys=True, allow_nan=False)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def payload_digest(payload: Mapping[str, Any]) -> str:
    """Deterministic fingerprint of a payload (canonical JSON, BLAKE2b).

    Two payloads digest equal iff their canonicalised values are
    identical — the currency of the jobs-invariance guarantee.
    ``allow_nan=False`` is the backstop: canonicalisation rewrites every
    non-finite float to a marker mapping, so a NaN reaching the encoder
    means a value slipped past :func:`canonicalize` and must fail loudly
    rather than digest inconsistently.
    """
    try:
        return _json_digest(_plain(dict(payload)))
    except ValueError as exc:
        raise ValueError(
            "payload contains a non-finite float that survived "
            "canonicalisation; digests would be platform-dependent"
        ) from exc


def spec_identity(spec: "TaskSpec") -> Dict[str, Any]:
    """The canonical identity of a spec's *work*: everything that
    determines its outcome, nothing that doesn't.

    Deliberately excludes ``task_id`` (two sweeps may label identical
    work differently) and the scheduling knobs ``timeout_s``/``retries``
    (they bound execution, never results).  This mapping is the only
    legal cache key: result rows are a pure function of it.
    """
    return {
        "kind": spec.kind,
        "target": spec.target,
        "params": canonicalize(dict(spec.params)),
        "seed": spec.seed,
        "sanitize": spec.sanitize,
    }


def spec_digest(spec: "TaskSpec") -> str:
    """BLAKE2b fingerprint of :func:`spec_identity` — the
    content-addressed store key of a task's result."""
    return _json_digest(spec_identity(spec))


def report_to_payload(report: Any) -> Dict[str, Any]:
    """Flatten an :class:`~repro.experiments.runner.ExperimentReport`
    into a picklable dictionary."""
    return {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "columns": list(report.columns),
        "rows": [list(row) for row in report.rows],
        "claims": {
            name: [paper, measured]
            for name, (paper, measured) in report.claims.items()
        },
        "notes": list(report.notes),
    }


def payload_to_report(payload: Mapping[str, Any]) -> Any:
    """Rebuild an ``ExperimentReport`` from :func:`report_to_payload`."""
    from repro.experiments.runner import ExperimentReport

    report = ExperimentReport(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        columns=tuple(payload["columns"]),
        rows=[tuple(row) for row in payload["rows"]],
        claims={
            name: (paper, measured)
            for name, (paper, measured) in payload["claims"].items()
        },
        notes=list(payload["notes"]),
    )
    return report


def _run_experiment(spec: TaskSpec) -> Dict[str, Any]:
    from repro.experiments import get_experiment

    report = get_experiment(spec.target)(**spec.kwargs())
    return report_to_payload(report)


def _run_function(spec: TaskSpec) -> Dict[str, Any]:
    func = resolve_function(spec.target)
    outcome = func(**spec.kwargs())
    if isinstance(outcome, Mapping):
        return dict(outcome)
    return {"value": outcome}


def _run_scenario(spec: TaskSpec) -> Dict[str, Any]:
    """The ``run_loaded_network`` family, always sanitized so the
    engine's replay digest rides along as the determinism witness."""
    from repro.experiments.simsetup import run_loaded_network
    from repro.sim.sanitizer import sanitized

    kwargs = dict(spec.params)
    stations = int(kwargs.pop("stations"))
    load = float(kwargs.pop("load"))
    duration_slots = float(kwargs.pop("duration_slots"))
    seed = spec.seed if spec.seed is not None else 29
    placement_seed = int(kwargs.pop("placement_seed", seed + stations))
    traffic_seed = int(kwargs.pop("traffic_seed", seed))
    if kwargs:
        unknown = ", ".join(sorted(kwargs))
        raise TypeError(f"unknown scenario parameters: {unknown}")
    with sanitized(True):
        network, result = run_loaded_network(
            stations,
            load,
            duration_slots,
            placement_seed=placement_seed,
            traffic_seed=traffic_seed,
        )
        digest = network.env.replay_digest()
    return {
        "stations": stations,
        "load": load,
        "duration_slots": duration_slots,
        "seed": seed,
        "events": network.env.events_processed,
        "deliveries": result.hop_deliveries,
        "delivered_end_to_end": result.delivered_end_to_end,
        "losses": result.losses_total,
        "collision_free": result.collision_free,
        "replay_digest": digest,
    }


_RUNNERS = {
    "experiment": _run_experiment,
    "function": _run_function,
    "scenario": _run_scenario,
}


def execute_task(spec: TaskSpec) -> TaskResult:
    """Run one task to a structured result; never raises.

    The same function runs inline (``jobs=1``) and inside pool workers,
    which is what makes pooled execution bit-identical to serial: the
    outcome depends only on the spec.
    """
    from repro.sim.sanitizer import sanitized

    runner = _RUNNERS[spec.kind]
    try:
        if spec.sanitize and spec.kind != "scenario":
            with sanitized(True):
                payload = runner(spec)
        else:
            payload = runner(spec)
    except Exception as exc:  # noqa: BLE001 - structured capture is the point
        trace = traceback.format_exc(limit=8)
        return TaskResult(
            task_id=spec.task_id,
            ok=False,
            error=f"{type(exc).__name__}: {exc}\n{trace}",
        )
    digest: Optional[str] = None
    raw_digest = payload.get("replay_digest")
    if isinstance(raw_digest, str):
        digest = raw_digest
    return TaskResult(
        task_id=spec.task_id,
        ok=True,
        payload=payload,
        replay_digest=digest,
        payload_digest=payload_digest(payload),
    )


def results_digest(results: Sequence[TaskResult]) -> str:
    """One fingerprint over an ordered result list (payload digests and
    error markers), for whole-run comparisons across worker counts."""
    parts = []
    for result in results:
        if result.ok:
            parts.append(f"{result.task_id}={result.payload_digest}")
        else:
            parts.append(f"{result.task_id}=ERROR")
    joined = "\n".join(parts)
    return hashlib.blake2b(joined.encode("utf-8"), digest_size=16).hexdigest()


__all__.append("results_digest")
