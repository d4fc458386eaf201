"""Experiment harness: uniform report structure and registry.

Every experiment module exposes the entry point
``run(**params) -> ExperimentReport``, registered by the
:func:`register` decorator.  A report carries the experiment id (the
DESIGN.md index), a table of rows (what the paper's figure/table
showed), and free-form notes recording paper-claimed versus measured
values — the same rows EXPERIMENTS.md summarises.

An experiment runs its points serially in the calling process; fan-out
over workers and seeded replication belong to ``repro run-all``
(:func:`repro.parallel.suite.run_suite`) and ``repro sweep``
(:func:`repro.parallel.sweep.run_sweep`).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "ExperimentReport",
    "format_table",
    "register",
    "get_experiment",
    "all_experiments",
]


@dataclass
class ExperimentReport:
    """Structured outcome of one experiment.

    Attributes:
        experiment_id: index key from DESIGN.md (e.g. ``"F1"``).
        title: human-readable experiment title.
        columns: column names of the result table.
        rows: result rows (tuples aligned with ``columns``).
        claims: mapping of claim name to (paper value, measured value).
        notes: anything a reader of EXPERIMENTS.md should know.
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Tuple] = field(default_factory=list)
    claims: Dict[str, Tuple[Any, Any]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def claim(self, name: str, paper: Any, measured: Any) -> None:
        """Record a paper-vs-measured comparison line."""
        self.claims[name] = (paper, measured)

    def format(self) -> str:
        """Render the report as aligned text (benches print this)."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            lines.extend(format_table(self.columns, self.rows))
        for name, (paper, measured) in self.claims.items():
            lines.append(f"  claim [{name}]: paper={_fmt(paper)} measured={_fmt(measured)}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    columns: Sequence[str], rows: Sequence[Sequence[Any]]
) -> List[str]:
    """A header, a rule and one line per row, each cell formatted as
    the report's claims are and right-aligned to its column's widest
    entry; a row shorter than ``columns`` leaves its last cells out."""
    table = [tuple(str(c) for c in columns)] + [
        tuple(_fmt(cell) for cell in row) for row in rows
    ]
    widths = [
        max(len(row[i]) if i < len(row) else 0 for row in table)
        for i in range(len(columns))
    ]
    lines = []
    for index, row in enumerate(table):
        lines.append(
            "  " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
        if index == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))
    return lines


_REGISTRY: Dict[str, Callable[..., ExperimentReport]] = {}


def register(experiment_id: str) -> Callable:
    """Decorator registering an experiment's ``run`` under its id.

    The registered (and module-exported) callable wraps the
    implementation: it takes the implementation's parameters as
    keyword arguments only, keeps its signature for introspection
    (``__wrapped__``), and carries ``experiment_id``.
    """

    def decorator(func: Callable[..., ExperimentReport]) -> Callable:
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")

        @functools.wraps(func)
        def run(*args: Any, **kwargs: Any) -> ExperimentReport:
            if args:
                raise TypeError(
                    f"{experiment_id} takes keyword arguments; positional "
                    "values are not accepted"
                )
            return func(**kwargs)

        run.experiment_id = experiment_id
        _REGISTRY[experiment_id] = run
        return run

    return decorator


def get_experiment(experiment_id: str) -> Callable[..., ExperimentReport]:
    """Look up an experiment's run callable by id."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")


def all_experiments() -> Dict[str, Callable[..., ExperimentReport]]:
    """All registered experiments, keyed by id."""
    return dict(_REGISTRY)


def _refuse_unknown_params(experiment_id: str, names: Iterable[str]) -> None:
    """Raise ``ValueError`` for any of ``names`` the experiment does not
    take, listing the parameters it does take."""
    parameters = inspect.signature(get_experiment(experiment_id)).parameters
    unknown = sorted(set(names) - set(parameters))
    if unknown:
        raise ValueError(
            f"experiment {experiment_id} has no parameter "
            f"{', '.join(map(repr, unknown))}; it takes: "
            f"{', '.join(parameters)}"
        )
