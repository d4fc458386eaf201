"""Command-line interface: run the paper's experiments by id.

Usage::

    python -m repro list
    python -m repro run T4
    python -m repro run T4 --set station_counts='(100,)' --set duration_slots=200
    python -m repro run-all --jobs 4 --quick --output suite.json
    python -m repro sweep --experiment T7 --jobs 4 --replications 5
    python -m repro sweep --experiment T7 --cache ~/.repro-cache
    python -m repro cache stats ~/.repro-cache --json
    python -m repro cache gc ~/.repro-cache --max-bytes 100000000
    python -m repro cache verify ~/.repro-cache --recompute 3
    python -m repro design --stations 1e9 --duty 0.5
    python -m repro metro --stations 1e6 --bandwidth 1e9
    python -m repro trace --experiment T7 --jsonl t7.jsonl --summary
    python -m repro trace --read t7.jsonl --kind rx_fail --limit 20
    python -m repro report --timeline duty --stations 100 --duration-slots 300

``--set`` values are parsed as Python literals (falling back to plain
strings), so tuples, floats, and booleans all work.  ``run-all`` and
``sweep`` fan tasks over a multiprocess pool; results are bit-identical
at any ``--jobs`` because per-task seeds come from the seed tree, never
from scheduling order.  ``trace`` streams any experiment's typed event
stream to JSONL/binary sinks (or decodes one back); ``report`` runs the
T2-style loaded network and renders per-station metric timelines.
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.metro import MetroProjection
from repro.core.design import DesignPoint
from repro.experiments import all_experiments, get_experiment
from repro.experiments.runner import _refuse_unknown_params
from repro.sim.sanitizer import sanitized

__all__ = ["main", "build_parser", "parse_overrides", "run_digest"]


def parse_overrides(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse ``key=value`` strings; values are Python literals when
    possible, raw strings otherwise."""
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        try:
            overrides[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            overrides[key] = raw
    return overrides


def _experiment_summary(run_callable) -> str:
    module = sys.modules.get(run_callable.__module__)
    doc = (module.__doc__ or "").strip() if module else ""
    return doc.splitlines()[0] if doc else "(no description)"


def _cmd_list(_args: argparse.Namespace) -> int:
    experiments = all_experiments()

    def sort_key(eid: str) -> "tuple[str, int]":
        return (eid[0], int(eid[1:]))

    for experiment_id in sorted(experiments, key=sort_key):
        summary = _experiment_summary(experiments[experiment_id])
        print(f"{experiment_id:>4s}  {summary}")
    return 0


def _cmd_macs(_args: argparse.Namespace) -> int:
    from repro.mac.registry import get_mac, mac_names

    for name in mac_names():
        descriptor = get_mac(name)
        flags = []
        if descriptor.slotted:
            flags.append("slotted")
        if descriptor.receiver_model is not None:
            flags.append(f"rx={descriptor.receiver_model.name}")
        tag = f" [{', '.join(flags)}]" if flags else ""
        print(f"{name:>18s}{tag}  {descriptor.description}")
    return 0


def _experiment_call(
    experiment_id: str, pairs: Optional[Sequence[str]]
) -> Optional[tuple[Callable[..., Any], Dict[str, Any]]]:
    """An experiment's run callable and its parsed ``--set`` overrides,
    or ``None`` after printing the usage error: an unknown id, a
    malformed pair, or a key the experiment does not take."""
    try:
        run = get_experiment(experiment_id)
        overrides = parse_overrides(pairs or [])
        _refuse_unknown_params(experiment_id, overrides)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return None
    return run, overrides


def _cmd_run(args: argparse.Namespace) -> int:
    call = _experiment_call(args.experiment_id, args.set)
    if call is None:
        return 2
    run, overrides = call
    print(run(**overrides).format())
    return 0


def _find_reproflow_root(explicit: Optional[str]) -> Optional[Path]:
    """The repository checkout holding ``tools/reproflow``.

    The deep linter is a repo tool, not part of the installed package,
    so it is located by walking up from the cwd (and, as a fallback,
    from this file's own checkout) rather than imported directly.
    """
    candidates: List[Path] = []
    if explicit:
        candidates.append(Path(explicit))
    else:
        here = Path.cwd().resolve()
        candidates.extend([here, *here.parents])
        candidates.append(Path(__file__).resolve().parent.parent.parent)
    for candidate in candidates:
        if (candidate / "tools" / "reproflow").is_dir() and (
            candidate / "src" / "repro"
        ).is_dir():
            return candidate.resolve()
    return None


def _cmd_lint(args: argparse.Namespace) -> int:
    if not args.deep:
        print(
            "repro lint: the shallow AST rules run via "
            "'python -m tools.reprolint'; this command drives the "
            "whole-program analyzer — pass --deep",
            file=sys.stderr,
        )
        return 2
    root = _find_reproflow_root(args.root)
    if root is None:
        print(
            "repro lint --deep needs the repository checkout "
            "(tools/reproflow next to src/repro); run from inside the "
            "repo or pass --root DIR",
            file=sys.stderr,
        )
        return 2
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tools.reproflow.runner import main as reproflow_main

    argv = ["--root", str(root)]
    if args.json:
        argv.append("--json")
    if args.write_locks:
        argv.append("--write-locks")
    if args.select:
        argv.extend(["--select", args.select])
    if args.baseline:
        argv.extend(["--baseline", args.baseline])
    return reproflow_main(argv)


def _cmd_design(args: argparse.Namespace) -> int:
    return _print_summary(
        DesignPoint,
        station_count=args.stations,
        duty_cycle=args.duty,
        detection_margin_db=args.margin,
        reach_doublings=args.reach_doublings,
    )


def _cmd_metro(args: argparse.Namespace) -> int:
    return _print_summary(
        MetroProjection,
        station_count=args.stations,
        bandwidth_hz=args.bandwidth,
        duty_cycle=args.duty,
        beta=args.beta,
        reach_doublings=args.reach_doublings,
    )


def _print_summary(build: Callable[..., Any], **params: Any) -> int:
    """Print a calculator's ``summary()``.  Parameters its constructor
    refuses, and parameters whose summary overflows, leaves a math
    domain or is not finite, are a usage error."""
    try:
        summary = build(**params).summary()
    except (ArithmeticError, ValueError) as exc:
        # An OverflowError's args are (errno, message).
        detail = exc.args[-1] if exc.args else type(exc).__name__
        print(f"{build.__name__}: {detail}", file=sys.stderr)
        return 2
    for key, value in summary.items():
        if isinstance(value, float) and not math.isfinite(value):
            print(f"{build.__name__}: {key} is {value}", file=sys.stderr)
            return 2
    for key, value in summary.items():
        print(f"{key:>24s}: {value:.4g}" if isinstance(value, float) else
              f"{key:>24s}: {value}")
    return 0


def run_digest(
    stations: int,
    load: float,
    duration_slots: float,
    seed: int,
) -> str:
    """Run the T4-style loaded-network scenario once, sanitized, and
    return the engine's replay digest."""
    from repro.experiments.simsetup import run_loaded_network

    with sanitized(True):
        network, _ = run_loaded_network(
            stations,
            load,
            duration_slots,
            placement_seed=seed + stations,
            traffic_seed=seed,
        )
    return network.env.replay_digest()


def _cmd_verify_determinism(args: argparse.Namespace) -> int:
    digests = []
    for attempt in (1, 2):
        digest = run_digest(args.stations, args.load, args.duration_slots, args.seed)
        digests.append(digest)
        print(f"run {attempt}: replay digest {digest}")
    if digests[0] == digests[1]:
        print("determinism verified: digests identical")
        return 0
    print(
        "DETERMINISM VIOLATION: same-seed runs produced different replay "
        "digests",
        file=sys.stderr,
    )
    return 1


def _open_cache(path: Optional[str]):
    if path is None:
        return None
    from repro.parallel.cache import ResultCache

    return ResultCache(path)


def _print_cache_traffic(cache) -> None:
    if cache is None:
        return
    session = cache.stats()["session"]
    total = session["hits"] + session["misses"]
    rate = (100.0 * session["hits"] / total) if total else 0.0
    print(
        f"cache: {session['hits']}/{total} hits ({rate:.1f}%), "
        f"{session['puts']} written, {session['corrupt']} quarantined "
        f"[{cache.root}]",
        file=sys.stderr,
    )


def _cmd_run_all(args: argparse.Namespace) -> int:
    import json

    from repro.parallel.suite import run_suite

    def progress(done: int, total: int, result) -> None:
        status = "ok" if result.ok else "FAILED"
        print(f"[{done}/{total}] {result.task_id}: {status}", file=sys.stderr)

    try:
        cache = _open_cache(args.cache)
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    suite = run_suite(
        jobs=args.jobs,
        quick=args.quick,
        timeout_s=args.timeout_s,
        retries=args.retries,
        progress=progress if not args.no_progress else None,
        cache=cache,
    )
    print(suite.format())
    _print_cache_traffic(cache)
    if args.output:
        # sort_keys: cache hits rebuild payloads from canonical (sorted)
        # JSON, so sorting here keeps the artifact byte-identical whether
        # each row was computed or recalled.
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(suite.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 1 if suite.errors else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.parallel.sweep import (
        SweepPlan,
        build_sweep_tasks,
        default_sweep_values,
        run_sweep,
        sweep_parameter,
    )

    try:
        parameter = sweep_parameter(args.experiment, args.parameter)
        if args.values:
            values = tuple(
                ast.literal_eval(part) for part in args.values.split(",") if part
            )
        else:
            values = default_sweep_values(args.experiment, parameter)
        base_params = parse_overrides(args.set or [])
        plan = SweepPlan(
            experiment_id=args.experiment,
            parameter=parameter,
            values=values,
            replications=args.replications,
            root_seed=args.root_seed,
            base_params=base_params,
            timeout_s=args.timeout_s,
            retries=args.retries,
        )
        # Refuse a bad plan before --cache DIR is created and marked.
        build_sweep_tasks(plan)
    except (KeyError, ValueError, SyntaxError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(message, file=sys.stderr)
        return 2
    try:
        cache = _open_cache(args.cache)
        outcome = run_sweep(plan, jobs=args.jobs, cache=cache)
    except ValueError as exc:
        print(exc.args[0] if exc.args else str(exc), file=sys.stderr)
        return 2
    print(outcome.format())
    _print_cache_traffic(cache)
    if args.output:
        # sort_keys: see _cmd_run_all — byte-identical artifacts whether
        # rows were computed or cache hits.
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(outcome.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 1 if outcome.errors else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.parallel.cache import CacheDivergenceError, ResultCache

    try:
        cache = ResultCache(args.dir)
    except ValueError as exc:
        print(exc.args[0] if exc.args else str(exc), file=sys.stderr)
        return 2

    if args.cache_command == "stats":
        report = cache.stats()
    elif args.cache_command == "gc":
        if args.max_bytes is None and args.max_age_s is None:
            print(
                "cache gc needs --max-bytes and/or --max-age-s",
                file=sys.stderr,
            )
            return 2
        report = cache.gc(max_bytes=args.max_bytes, max_age_s=args.max_age_s)
    else:  # verify
        try:
            report = cache.verify(recompute=args.recompute)
        except CacheDivergenceError as exc:
            print(f"DIVERGENCE: {exc}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in report.items():
            if key == "corrupt_keys" and not value:
                continue
            print(f"{key:>20s}: {value}")
    if args.cache_command == "verify" and report["corrupt_quarantined"]:
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        BinarySink,
        Instrumentation,
        JsonlSink,
        MetricTimelines,
        read_trace,
        use_instrumentation,
    )

    if args.read:
        wanted = set(args.kind or [])
        counts: Dict[str, int] = {}
        shown = 0
        for event in read_trace(args.read):
            counts[event.KIND] = counts.get(event.KIND, 0) + 1
            if wanted and event.KIND not in wanted:
                continue
            if args.limit is None or shown < args.limit:
                record = {"kind": event.KIND, "time": event.time}
                record.update(event.payload())
                print(json.dumps(record, sort_keys=True))
                shown += 1
        if args.summary:
            total = sum(counts.values())
            print(f"{total} events across {len(counts)} kinds", file=sys.stderr)
            for kind in sorted(counts):
                print(f"  {kind:>18s}  {counts[kind]}", file=sys.stderr)
        return 0

    if not args.experiment:
        print("trace needs --experiment ID (or --read PATH)", file=sys.stderr)
        return 2
    call = _experiment_call(args.experiment, args.set)
    if call is None:
        return 2
    run, overrides = call

    timelines = MetricTimelines()
    sinks = [timelines]
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl, rotate_bytes=args.rotate_bytes))
    if args.binary:
        sinks.append(BinarySink(args.binary))
    if len(sinks) == 1:
        print("trace needs a sink: --jsonl PATH and/or --binary PATH",
              file=sys.stderr)
        return 2
    instrumentation = Instrumentation(tuple(sinks))
    with use_instrumentation(instrumentation):
        report = run(**overrides)
    instrumentation.close()
    print(report.format())
    for path in ([args.jsonl] if args.jsonl else []) + (
        [args.binary] if args.binary else []
    ):
        print(f"wrote {path}")
    if args.summary:
        kind_counts = timelines.kinds()
        total = sum(kind_counts.values())
        print(f"\n{total} events across {len(kind_counts)} kinds")
        for kind in sorted(kind_counts):
            print(f"  {kind:>18s}  {kind_counts[kind]}")
    return 0


_SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


def _sparkline(values: Sequence[float], peak: float) -> str:
    cells = []
    for value in values:
        if value != value:  # NaN: no observation in this window
            cells.append("·")
            continue
        if peak <= 0.0:
            cells.append(_SPARK_LEVELS[0])
            continue
        level = min(1.0, max(0.0, value / peak))
        cells.append(_SPARK_LEVELS[math.ceil(level * (len(_SPARK_LEVELS) - 1))])
    return "".join(cells)


def _at_least(
    convert: Callable[[str], Any], low: float, strict: bool = False
) -> Callable[[str], Any]:
    """An argparse type: a finite ``convert(text)`` of at least ``low``,
    or above it when ``strict``."""

    def parse(text: str) -> Any:
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a valid {convert.__name__}: {text!r}"
            ) from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if value < low or (strict and value == low):
            relation = "above" if strict else "at least"
            raise argparse.ArgumentTypeError(
                f"must be {relation} {low}, got {text!r}"
            )
        return value

    return parse


_positive_finite = _at_least(float, 0.0, strict=True)
# One station alone has no interference bound to calibrate the link
# budget against.
_station_count = _at_least(int, 2)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.simsetup import add_uniform_poisson, standard_network
    from repro.net.network import NetworkConfig
    from repro.obs import Instrumentation, MetricTimelines, use_instrumentation
    from repro.parallel.aggregate import summarize

    timelines = MetricTimelines()
    with use_instrumentation(Instrumentation((timelines,))):
        network = standard_network(
            args.stations, args.seed, NetworkConfig(seed=args.seed)
        )
    slot = network.budget.slot_time
    # The window is in slots on the CLI but seconds internally; the slot
    # time is only known once the network's link budget is calibrated,
    # so assign it after build and before any event is emitted.
    timelines.window = args.window_slots * slot
    add_uniform_poisson(network, args.load, args.seed + 1)
    result = network.run(args.duration_slots * slot)

    metric = args.timeline
    series_of = {
        "duty": timelines.duty_series,
        "queue": timelines.queue_depth_series,
        "sir": timelines.sir_series,
        "loss": lambda station: timelines.loss_series(station),
    }[metric]
    rows = [series_of(station) for station in range(args.stations)]
    peak = max(
        (value for row in rows for _t, value in row if value == value),
        default=0.0,
    )

    print(
        f"{metric} timeline: {args.stations} stations, "
        f"{args.duration_slots:g} slots, window {args.window_slots:g} slots "
        f"({timelines.window_count} windows), seed {args.seed}"
    )
    print(
        f"load {args.load:g} pkt/slot/station | "
        f"hop deliveries {result.hop_deliveries} | "
        f"losses {result.losses_total} | peak {peak:.4g}"
    )
    for station in range(args.stations):
        values = [value for _t, value in rows[station]]
        line = _sparkline(values, peak)
        tail = max((v for v in values if v == v), default=0.0)
        print(f"  s{station:03d} |{line}| max {tail:.3g}")
    if metric == "duty":
        summary = summarize(
            station.duty_cycle(result.duration) for station in network.stations
        )
        print(
            f"duty cycle across stations: mean {summary.mean:.4f}, "
            f"std {summary.stddev:.4f}, max {summary.maximum:.4f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Shepard (SIGCOMM 1996): run any of the "
            "paper's figures/tables and the design calculators."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_cmd = commands.add_parser("list", help="list available experiments")
    list_cmd.set_defaults(handler=_cmd_list)

    macs_cmd = commands.add_parser(
        "macs",
        help="list the registered channel access schemes (MAC registry)",
    )
    macs_cmd.set_defaults(handler=_cmd_macs)

    run_cmd = commands.add_parser("run", help="run one experiment by id")
    run_cmd.add_argument("experiment_id", help="experiment id, e.g. T4 or F1")
    run_cmd.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override an experiment parameter (repeatable)",
    )
    run_cmd.set_defaults(handler=_cmd_run)

    run_all_cmd = commands.add_parser(
        "run-all",
        help=(
            "run every registered experiment over a worker pool "
            "(bit-identical results at any --jobs)"
        ),
    )
    run_all_cmd.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1 = inline serial)",
    )
    run_all_cmd.add_argument(
        "--quick", action="store_true",
        help="seconds-scale parameterisations (the CI smoke set)",
    )
    run_all_cmd.add_argument(
        "--timeout-s", type=_positive_finite, default=None, metavar="SECONDS",
        help="per-experiment timeout enforced by the pool",
    )
    run_all_cmd.add_argument(
        "--retries", type=_at_least(int, 0), default=1,
        help="crash/timeout retries per experiment (default 1)",
    )
    run_all_cmd.add_argument(
        "--output", metavar="PATH",
        help="write every report plus the suite digest as JSON",
    )
    run_all_cmd.add_argument(
        "--no-progress", action="store_true",
        help="suppress the per-experiment progress lines on stderr",
    )
    run_all_cmd.add_argument(
        "--cache", metavar="DIR",
        help=(
            "content-addressed result cache: experiments already stored "
            "return instantly, only misses run; rerunning a killed run "
            "over the same DIR resumes it"
        ),
    )
    run_all_cmd.set_defaults(handler=_cmd_run_all)

    sweep_cmd = commands.add_parser(
        "sweep",
        help=(
            "sweep one experiment's natural parameter over a worker "
            "pool, with seeded replications per point"
        ),
    )
    sweep_cmd.add_argument(
        "--experiment", required=True, metavar="ID",
        help="experiment id, e.g. T7",
    )
    sweep_cmd.add_argument(
        "--parameter", metavar="NAME",
        help="sweep parameter (defaults to the experiment's natural one)",
    )
    sweep_cmd.add_argument(
        "--values", metavar="V1,V2,...",
        help=(
            "comma-separated Python literals; defaults to the "
            "experiment's own default sequence"
        ),
    )
    sweep_cmd.add_argument(
        "--replications", type=int, default=1, metavar="R",
        help="independently seeded runs per sweep point",
    )
    sweep_cmd.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1 = inline serial)",
    )
    sweep_cmd.add_argument(
        "--root-seed", type=int, default=0,
        help="seed-tree root; per-task seeds derive from it",
    )
    sweep_cmd.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="extra experiment parameter applied to every task",
    )
    sweep_cmd.add_argument(
        "--timeout-s", type=_positive_finite, default=None, metavar="SECONDS",
        help="per-task timeout enforced by the pool",
    )
    sweep_cmd.add_argument(
        "--retries", type=_at_least(int, 0), default=1,
        help="crash/timeout retries per task (default 1)",
    )
    sweep_cmd.add_argument(
        "--output", metavar="PATH",
        help="write rows, summaries, and digests as JSON",
    )
    sweep_cmd.add_argument(
        "--cache", metavar="DIR",
        help=(
            "content-addressed result cache: points already stored "
            "return instantly (bit-identical), only misses run; "
            "rerunning a killed sweep over the same DIR resumes it"
        ),
    )
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    cache_cmd = commands.add_parser(
        "cache",
        help=(
            "inspect or maintain a content-addressed result cache "
            "(stats, gc, verify)"
        ),
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    for name, blurb in (
        ("stats", "entry/byte totals plus session traffic counters"),
        ("gc", "evict entries by age and/or total size"),
        ("verify", "re-check every entry's digests (optionally re-run some)"),
    ):
        sub = cache_sub.add_parser(name, help=blurb)
        sub.add_argument("dir", help="cache directory")
        sub.add_argument(
            "--json", action="store_true", help="emit the report as JSON"
        )
        if name == "gc":
            sub.add_argument(
                "--max-bytes", type=_at_least(int, 0), default=None,
                metavar="N",
                help="evict oldest entries until the store fits N bytes",
            )
            sub.add_argument(
                "--max-age-s", type=_at_least(float, 0.0), default=None,
                metavar="SECONDS",
                help="evict entries not written in the last SECONDS",
            )
        if name == "verify":
            sub.add_argument(
                "--recompute", type=int, default=0, metavar="N",
                help=(
                    "re-execute up to N entries from their stored spec and "
                    "hard-fail on any digest divergence"
                ),
            )
        sub.set_defaults(handler=_cmd_cache)

    design_cmd = commands.add_parser(
        "design", help="print the Section 6 link budget for a scale"
    )
    design_cmd.add_argument("--stations", type=float, default=1e9)
    design_cmd.add_argument("--duty", type=float, default=1.0)
    design_cmd.add_argument("--margin", type=float, default=5.0)
    design_cmd.add_argument("--reach-doublings", type=float, default=1.0)
    design_cmd.set_defaults(handler=_cmd_design)

    metro_cmd = commands.add_parser(
        "metro", help="print the metro-scale rate projection"
    )
    metro_cmd.add_argument("--stations", type=float, default=1e6)
    metro_cmd.add_argument("--bandwidth", type=float, default=1e9)
    metro_cmd.add_argument("--duty", type=float, default=0.35)
    metro_cmd.add_argument("--beta", type=float, default=1.0)
    metro_cmd.add_argument("--reach-doublings", type=float, default=0.0)
    metro_cmd.set_defaults(handler=_cmd_metro)

    lint_cmd = commands.add_parser(
        "lint",
        help=(
            "run the reproflow whole-program analyzer (seed provenance, "
            "event-schema contracts, fork-safety, API lock)"
        ),
    )
    lint_cmd.add_argument(
        "--deep", action="store_true",
        help="run the interprocedural passes (required; reserved flag)",
    )
    lint_cmd.add_argument(
        "--json", action="store_true", help="emit the findings as JSON"
    )
    lint_cmd.add_argument(
        "--write-locks", action="store_true",
        help="regenerate schema.lock and api.lock from the current tree",
    )
    lint_cmd.add_argument(
        "--select", metavar="PASSES",
        help="comma-separated subset of passes (seeds,schema,fork,api)",
    )
    lint_cmd.add_argument(
        "--baseline", metavar="PATH",
        help="baseline file (default: tools/reproflow/baseline.json)",
    )
    lint_cmd.add_argument(
        "--root", metavar="DIR",
        help="repository root (default: walk up from the cwd)",
    )
    lint_cmd.set_defaults(handler=_cmd_lint)

    verify_cmd = commands.add_parser(
        "verify-determinism",
        help="run a seeded scenario twice and compare replay digests",
    )
    verify_cmd.add_argument("--stations", type=_station_count, default=40)
    verify_cmd.add_argument("--load", type=_positive_finite, default=0.03)
    verify_cmd.add_argument("--duration-slots", type=_positive_finite, default=80.0)
    verify_cmd.add_argument("--seed", type=int, default=29)
    verify_cmd.set_defaults(handler=_cmd_verify_determinism)

    trace_cmd = commands.add_parser(
        "trace",
        help=(
            "stream an experiment's typed event trace to JSONL/binary "
            "sinks, or decode a written trace back"
        ),
    )
    trace_cmd.add_argument(
        "--experiment", metavar="ID",
        help="experiment id to run under instrumentation (e.g. T7)",
    )
    trace_cmd.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override an experiment parameter (repeatable)",
    )
    trace_cmd.add_argument(
        "--jsonl", metavar="PATH", help="write events as JSON lines",
    )
    trace_cmd.add_argument(
        "--binary", metavar="PATH",
        help="write events as a compact columnar .npz trace",
    )
    trace_cmd.add_argument(
        "--rotate-bytes", type=_at_least(int, 1), default=None, metavar="N",
        help="rotate the JSONL file into .1/.2/... segments at N bytes",
    )
    trace_cmd.add_argument(
        "--read", metavar="PATH",
        help="decode a written trace (JSONL or binary) instead of running",
    )
    trace_cmd.add_argument(
        "--kind", action="append", metavar="KIND",
        help="read mode: only print events of this kind (repeatable)",
    )
    trace_cmd.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="read mode: print at most N events",
    )
    trace_cmd.add_argument(
        "--summary", action="store_true",
        help="print per-kind event counts",
    )
    trace_cmd.set_defaults(handler=_cmd_trace)

    report_cmd = commands.add_parser(
        "report",
        help=(
            "run the seeded loaded network and render per-station metric "
            "timelines (duty cycle, queue depth, SIR, losses)"
        ),
    )
    report_cmd.add_argument(
        "--timeline", required=True,
        choices=("duty", "queue", "sir", "loss"),
        help="which per-station series to render",
    )
    report_cmd.add_argument("--stations", type=_station_count, default=100)
    report_cmd.add_argument("--load", type=_positive_finite, default=0.05)
    report_cmd.add_argument(
        "--duration-slots", type=_positive_finite, default=300.0, metavar="SLOTS",
    )
    report_cmd.add_argument(
        "--window-slots", type=_positive_finite, default=10.0, metavar="SLOTS",
        help="aggregation window width in slots (default 10)",
    )
    report_cmd.add_argument("--seed", type=int, default=7)
    report_cmd.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
