"""Configuration, orchestration, and the reproflow CLI driver."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from tools.reproflow.apilock import run_api_pass, write_api_lock
from tools.reproflow.findings import (
    Baseline,
    Finding,
    filter_suppressed,
    findings_to_json,
    format_findings,
    load_baseline,
)
from tools.reproflow.forksafety import run_fork_pass
from tools.reproflow.project import Project, load_project
from tools.reproflow.schema import (
    extract_event_schemas,
    run_schema_pass,
    write_schema_lock,
)
from tools.reproflow.seeds import run_seeds_pass

__all__ = ["PASSES", "ReproflowConfig", "analyze", "main", "write_locks"]

#: The four interprocedural passes, in report order.
PASSES = ("seeds", "schema", "fork", "api")


@dataclass
class ReproflowConfig:
    """Where the project lives and what the passes should trust.

    The defaults describe the real repository; tests point the same
    analyzer at synthetic fixture packages by overriding ``src_root``
    and the module names.
    """

    #: the package directory to analyse (contains ``__init__.py``).
    src_root: Path = Path("src/repro")
    #: dotted package name (defaults to the directory name).
    package: str = "repro"
    #: module holding the frozen event dataclasses.
    events_module: str = "repro.obs.events"
    #: modules that ARE the sanctioned seeding machinery (not analysed
    #: by the seeds pass).
    trusted_seed_modules: Tuple[str, ...] = (
        "repro.sim.streams",
        "repro.parallel.seedtree",
    )
    #: fork-safety reachability roots: ``module:function`` entries, or
    #: bare module names meaning "every top-level function".
    entry_points: Tuple[str, ...] = (
        "repro.parallel.task:execute_task",
        "repro.parallel.task:_run_experiment",
        "repro.parallel.task:_run_function",
        "repro.parallel.pool:_worker_main",
        "repro.parallel.cache:ResultCache.verify",
    )
    #: extra fork-safety roots (qualified names).
    extra_fork_roots: Tuple[str, ...] = (
        "repro.experiments.simsetup:run_loaded_network",
    )
    #: lock/baseline locations (resolved relative to the repo root).
    schema_lock: Path = Path("tools/reproflow/schema.lock")
    api_lock: Path = Path("tools/reproflow/api.lock")
    baseline: Path = Path("tools/reproflow/baseline.json")
    #: passes to run (all four by default).
    select: Tuple[str, ...] = PASSES


def _load(config: ReproflowConfig) -> Project:
    return load_project(config.src_root, config.package)


def _raw_findings(project: Project, config: ReproflowConfig) -> List[Finding]:
    findings: List[Finding] = []
    if "seeds" in config.select:
        findings.extend(
            run_seeds_pass(project, trusted_modules=config.trusted_seed_modules)
        )
    if "schema" in config.select:
        findings.extend(
            run_schema_pass(project, config.events_module, config.schema_lock)
        )
    if "fork" in config.select:
        findings.extend(
            run_fork_pass(
                project,
                entry_points=config.entry_points,
                extra_roots=config.extra_fork_roots,
            )
        )
    if "api" in config.select:
        findings.extend(run_api_pass(project, config.api_lock))
    return findings


def analyze(
    config: ReproflowConfig,
    baseline: Optional[Baseline] = None,
) -> List[Finding]:
    """Load the project, run the selected passes, apply suppressions."""
    project = _load(config)
    raw = _raw_findings(project, config)
    sources: Dict[str, Sequence[str]] = {
        info.rel_path(project.root): info.source_lines
        for info in project.modules.values()
    }
    if baseline is None:
        baseline = load_baseline(config.baseline)
    selected = (
        None if tuple(config.select) == PASSES else set(config.select)
    )
    kept, hygiene = filter_suppressed(
        raw, sources, baseline=baseline, selected_passes=selected
    )
    return kept + hygiene


def write_locks(config: ReproflowConfig) -> List[str]:
    """Regenerate both lock files from the current tree."""
    project = _load(config)
    written: List[str] = []
    info = project.modules.get(config.events_module)
    if info is not None:
        schemas, _order, error = extract_event_schemas(info)
        if error is None:
            write_schema_lock(config.schema_lock, schemas)
            written.append(config.schema_lock.as_posix())
    write_api_lock(config.api_lock, project)
    written.append(config.api_lock.as_posix())
    return written


def find_repo_root(start: Optional[Path] = None) -> Optional[Path]:
    """Walk up from ``start`` to the directory holding tools/reproflow."""
    current = (start or Path.cwd()).resolve()
    for candidate in [current, *current.parents]:
        if (candidate / "tools" / "reproflow").is_dir() and (
            candidate / "src" / "repro"
        ).is_dir():
            return candidate
    return None


def config_for_repo(root: Path) -> ReproflowConfig:
    """The standard configuration anchored at a repo root."""
    return ReproflowConfig(
        src_root=root / "src" / "repro",
        schema_lock=root / "tools" / "reproflow" / "schema.lock",
        api_lock=root / "tools" / "reproflow" / "api.lock",
        baseline=root / "tools" / "reproflow" / "baseline.json",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m tools.reproflow``."""
    parser = argparse.ArgumentParser(
        prog="reproflow",
        description=(
            "Whole-program static analysis: seed provenance, event-schema "
            "contracts, fork-safety, and the public-API lock."
        ),
    )
    parser.add_argument(
        "--root", metavar="DIR", default=None,
        help="repository root (default: walk up from the cwd)",
    )
    parser.add_argument(
        "--select", metavar="PASSES",
        help=f"comma-separated subset of passes (default: {','.join(PASSES)})",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the findings as JSON"
    )
    parser.add_argument(
        "--write-locks", action="store_true",
        help="regenerate schema.lock and api.lock from the current tree",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="baseline file (default: tools/reproflow/baseline.json)",
    )
    parser.add_argument(
        "--list-passes", action="store_true", help="list passes and exit"
    )
    args = parser.parse_args(argv)

    if args.list_passes:
        for pass_id in PASSES:
            print(pass_id)
        return 0

    root = Path(args.root).resolve() if args.root else find_repo_root()
    if root is None or not (root / "src" / "repro").is_dir():
        print(
            "reproflow: cannot find the repository root (need src/repro "
            "and tools/reproflow); pass --root DIR",
            file=sys.stderr,
        )
        return 2
    config = config_for_repo(root)
    if args.baseline:
        config.baseline = Path(args.baseline)
    if args.select:
        wanted = tuple(
            p.strip() for p in args.select.split(",") if p.strip()
        )
        unknown = set(wanted) - set(PASSES)
        if unknown:
            parser.error(f"unknown passes: {', '.join(sorted(unknown))}")
        config.select = wanted

    if args.write_locks:
        for path in write_locks(config):
            print(f"wrote {path}")
        return 0

    try:
        baseline = load_baseline(config.baseline)
    except (ValueError, KeyError) as exc:
        print(f"reproflow: bad baseline file: {exc}", file=sys.stderr)
        return 2
    findings = analyze(config, baseline=baseline)
    if args.json:
        print(findings_to_json(findings, extra={"root": str(root)}))
    elif findings:
        print(format_findings(findings))
    if findings:
        print(f"reproflow: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    if not args.json:
        print("reproflow: clean")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
