"""The reprolint rule implementations.

Each rule is a class with a ``CODE``, a one-line ``SUMMARY``, an
``applies_to(path)`` scope predicate, and a ``check(tree, path)`` method
returning :class:`Violation` objects.  Rules are pure AST analyses: no
imports of the linted code are performed, so the suite is safe to run on
broken or half-written files.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ALL_RULES",
    "Rule",
    "Violation",
    "UnseededRandomRule",
    "WallClockRule",
    "SimTimeEqualityRule",
    "MutableDefaultRule",
    "BareExceptRule",
    "DunderAllRule",
    "YieldEventRule",
    "ParallelSeedRule",
    "FaultSeedRule",
    "LegacyTraceRecordRule",
]


@dataclass(frozen=True)
class Violation:
    """One lint finding, pointing at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """Render in the conventional ``path:line:col: CODE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _parts(path: str) -> Tuple[str, ...]:
    return PurePosixPath(path.replace("\\", "/")).parts


def _under_src(path: str) -> bool:
    return "src" in _parts(path)


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Reconstruct a dotted name from nested Attribute/Name nodes."""
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
        return ".".join(reversed(chain))
    return None


class Rule:
    """Base class: a named, scoped AST check."""

    CODE = "REP000"
    SUMMARY = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (repo-relative, posix)."""
        return True

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        """Analyse ``tree`` and return any violations."""
        raise NotImplementedError

    def _violation(self, path: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.CODE,
            message=message,
        )


class UnseededRandomRule(Rule):
    """REP001: randomness must flow through ``repro.sim.streams``.

    Direct draws from the ``random`` module or the ``numpy.random``
    global state bypass the named-stream seeding discipline and make
    runs irreproducible.  Constructing seeded generators
    (``default_rng``, ``SeedSequence``, ``Generator`` and the bit
    generators) is allowed anywhere — those take explicit seeds.
    """

    CODE = "REP001"
    SUMMARY = "no direct random.* / numpy.random.* global-state draws"

    #: ``sim/streams.py`` (the sanctioned wrapper) needs no carve-out:
    #: it only touches the :data:`ALLOWED` seeded constructors.  Any
    #: future exception belongs inline as a ``reprolint: disable=``
    #: comment, which the REP011 audit retires when it goes stale.

    #: numpy.random names that construct seeded generators rather than
    #: drawing from hidden global state.
    ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "BitGenerator",
            "SeedSequence",
            "RandomState",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    violations.append(
                        self._violation(
                            path,
                            node,
                            "import from the stdlib `random` module; draw from "
                            "a seeded stream (repro.sim.streams) instead",
                        )
                    )
                elif node.module in ("numpy.random", "np.random"):
                    for alias in node.names:
                        if alias.name not in self.ALLOWED:
                            violations.append(
                                self._violation(
                                    path,
                                    node,
                                    f"import of numpy.random.{alias.name}; use a "
                                    "seeded stream (repro.sim.streams) instead",
                                )
                            )
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if parts[0] == "random" and len(parts) == 2:
                    violations.append(
                        self._violation(
                            path,
                            node,
                            f"call to {dotted}() uses the stdlib global RNG; "
                            "draw from a seeded stream (repro.sim.streams)",
                        )
                    )
                elif (
                    len(parts) >= 3
                    and parts[0] in ("np", "numpy")
                    and parts[1] == "random"
                    and parts[2] not in self.ALLOWED
                ):
                    violations.append(
                        self._violation(
                            path,
                            node,
                            f"call to {dotted}() draws from numpy's global RNG; "
                            "draw from a seeded stream (repro.sim.streams)",
                        )
                    )
        return violations


class WallClockRule(Rule):
    """REP002: simulation code must not read the wall clock.

    Simulated time is ``env.now``; reading the host clock couples run
    outcomes to machine speed and breaks replay.  Scoped to ``src/``
    (benchmarks and tests may legitimately time things).

    Exemptions live in the exempt files themselves as ``# reprolint:
    disable[-file]=REP002`` directives (the perf-measurement harness
    and the parallel-execution modules, which time *host* execution of
    completed simulation runs).  Any new exemption needs the same
    property — measurement of, never input to, the simulation — and
    the unused-suppression audit (REP011) retires it when the timing
    code goes away.
    """

    CODE = "REP002"
    SUMMARY = "no wall-clock reads (time.time, datetime.now, ...) under src/"

    FORBIDDEN_SUFFIXES = (
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    )
    FORBIDDEN_IMPORTS = {
        "time": {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
        },
    }

    def applies_to(self, path: str) -> bool:
        return _under_src(path)

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                forbidden = self.FORBIDDEN_IMPORTS.get(node.module or "")
                if forbidden:
                    for alias in node.names:
                        if alias.name in forbidden:
                            violations.append(
                                self._violation(
                                    path,
                                    node,
                                    f"import of {node.module}.{alias.name}; "
                                    "simulation code must use simulated time "
                                    "(env.now), not the wall clock",
                                )
                            )
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                if any(
                    dotted == suffix or dotted.endswith("." + suffix)
                    for suffix in self.FORBIDDEN_SUFFIXES
                ):
                    violations.append(
                        self._violation(
                            path,
                            node,
                            f"call to {dotted}() reads the wall clock; "
                            "simulation code must use simulated time (env.now)",
                        )
                    )
        return violations


class SimTimeEqualityRule(Rule):
    """REP003: no ``==`` / ``!=`` on simulated-time floats.

    Simulated times are floats accumulated through arithmetic; exact
    equality is representation-dependent.  Use ``math.isclose`` or the
    half-open interval helpers in :mod:`repro.core.intervals`.  The
    check is a name heuristic: a comparison operand "looks like a time"
    if it is ``*.now`` or an identifier built from time words (``now``,
    ``time``, ``when``, ``deadline``, ``timestamp``, ``instant``).
    Scoped to ``src/``; tests may assert exact engine semantics.
    """

    CODE = "REP003"
    SUMMARY = "no == / != on simulated-time floats under src/ (use math.isclose)"

    TIME_WORD = re.compile(
        r"(^|_)(now|time|when|deadline|timestamp|instant)(_|$)"
    )

    def applies_to(self, path: str) -> bool:
        return _under_src(path)

    def _time_like(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            if node.attr == "now" or self.TIME_WORD.search(node.attr):
                return _dotted_name(node) or node.attr
        elif isinstance(node, ast.Name):
            if self.TIME_WORD.search(node.id):
                return node.id
        return None

    @staticmethod
    def _exempt_other(node: ast.AST) -> bool:
        # Comparing a time-like name against None/str/bool is identity
        # or config logic, not float arithmetic.
        return isinstance(node, ast.Constant) and isinstance(
            node.value, (str, bool, type(None))
        )

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                name = self._time_like(left) or self._time_like(right)
                if name is None:
                    continue
                if self._exempt_other(left) or self._exempt_other(right):
                    continue
                violations.append(
                    self._violation(
                        path,
                        node,
                        f"exact equality on simulated-time value {name!r}; "
                        "use math.isclose or interval membership",
                    )
                )
        return violations


class MutableDefaultRule(Rule):
    """REP004: no mutable default arguments."""

    CODE = "REP004"
    SUMMARY = "no mutable default arguments"

    MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            return dotted in self.MUTABLE_CALLS
        return False

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults: List[ast.AST] = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if self._is_mutable(default):
                    violations.append(
                        self._violation(
                            path,
                            default,
                            f"mutable default argument in {node.name}(); "
                            "default to None and create inside the body",
                        )
                    )
        return violations


class BareExceptRule(Rule):
    """REP005: no bare ``except:`` clauses."""

    CODE = "REP005"
    SUMMARY = "no bare except: clauses"

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                violations.append(
                    self._violation(
                        path,
                        node,
                        "bare except: swallows KeyboardInterrupt and engine "
                        "failures; catch a specific exception",
                    )
                )
        return violations


class DunderAllRule(Rule):
    """REP006: ``__all__`` must match the public definitions.

    Every ``src/repro`` module must declare ``__all__``; every listed
    name must exist at module top level, and every public top-level
    function, class, and constant must be listed.  This keeps the
    wildcard-import surface and the documented API in lockstep.
    """

    CODE = "REP006"
    SUMMARY = "__all__ must exist and match public definitions in src/repro"

    @staticmethod
    def _literal_strings(node: Optional[ast.expr]) -> Optional[List[str]]:
        """The string elements of a literal list/tuple, else None."""
        if isinstance(node, (ast.List, ast.Tuple)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.elts
        ):
            return [e.value for e in node.elts]
        return None

    def applies_to(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        if not _under_src(path) or "/repro/" not in "/" + normalized:
            return False
        return not normalized.endswith("__main__.py")

    @staticmethod
    def _target_names(node: ast.stmt) -> Iterable[str]:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        public: List[str] = []
        defined: set = set()
        dunder_all: Optional[ast.stmt] = None
        listed: Optional[List[str]] = None

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
                if not node.name.startswith("_"):
                    public.append(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    defined.add(name)
            elif isinstance(node, ast.AugAssign):
                # __all__ += [...]
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == "__all__"
                    and listed is not None
                ):
                    extra = self._literal_strings(node.value)
                    if extra is not None:
                        listed.extend(extra)
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                # __all__.append("x") / __all__.extend([...])
                call = node.value
                if (
                    isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "__all__"
                    and listed is not None
                    and len(call.args) == 1
                ):
                    argument = call.args[0]
                    if call.func.attr == "append":
                        if isinstance(argument, ast.Constant) and isinstance(
                            argument.value, str
                        ):
                            listed.append(argument.value)
                    elif call.func.attr == "extend":
                        extra = self._literal_strings(argument)
                        if extra is not None:
                            listed.extend(extra)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in self._target_names(node):
                    if name == "__all__":
                        dunder_all = node
                        listed = self._literal_strings(node.value)
                    else:
                        defined.add(name)
                        if not name.startswith("_"):
                            public.append(name)

        violations: List[Violation] = []
        if dunder_all is None:
            if public:
                violations.append(
                    Violation(
                        path=path,
                        line=1,
                        col=0,
                        code=self.CODE,
                        message=(
                            "module has public definitions but no __all__; "
                            "declare the public API explicitly"
                        ),
                    )
                )
            return violations
        if listed is None:
            violations.append(
                self._violation(
                    path,
                    dunder_all,
                    "__all__ must be a literal list/tuple of strings",
                )
            )
            return violations
        for name in listed:
            if name not in defined:
                violations.append(
                    self._violation(
                        path,
                        dunder_all,
                        f"__all__ lists {name!r}, which is not defined or "
                        "imported in the module",
                    )
                )
        for name in public:
            if name not in listed:
                violations.append(
                    self._violation(
                        path,
                        dunder_all,
                        f"public definition {name!r} is missing from __all__",
                    )
                )
        return violations


class YieldEventRule(Rule):
    """REP007: processes must only yield Event objects (heuristic).

    The engine fails a process that yields a non-Event, but only at run
    time on the path that executes the yield.  This check flags, in any
    *process-shaped* generator (one that yields from an Event factory
    such as ``env.timeout(...)``, or takes an ``env`` parameter), yields
    whose value can be proven non-Event statically: literals, container
    displays, arithmetic, comparisons, and bare ``yield``.
    """

    CODE = "REP007"
    SUMMARY = "processes must only yield Event objects (heuristic)"

    EVENT_FACTORIES = frozenset(
        {"timeout", "event", "process", "any_of", "all_of", "succeed", "fail"}
    )

    _NON_EVENT_NODES = (
        ast.Constant,
        ast.List,
        ast.Tuple,
        ast.Dict,
        ast.Set,
        ast.ListComp,
        ast.DictComp,
        ast.SetComp,
        ast.GeneratorExp,
        ast.BinOp,
        ast.UnaryOp,
        ast.BoolOp,
        ast.Compare,
        ast.JoinedStr,
        ast.Lambda,
    )

    def _yields_of(
        self, func: ast.AST
    ) -> List[ast.Yield]:
        """Yield expressions belonging to ``func`` itself (not nested
        defs/lambdas/comprehensions, which have their own frames)."""
        yields: List[ast.Yield] = []
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Yield):
                yields.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return yields

    def _process_shaped(
        self, func: ast.FunctionDef, yields: Sequence[ast.Yield]
    ) -> bool:
        arg_names = {a.arg for a in func.args.args}
        if "env" in arg_names:
            return True
        for node in yields:
            value = node.value
            if isinstance(value, ast.Call):
                dotted = _dotted_name(value.func)
                if dotted and dotted.split(".")[-1] in self.EVENT_FACTORIES:
                    return True
        return False

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yields = self._yields_of(node)
            if not yields or not self._process_shaped(node, yields):
                continue
            for yield_node in yields:
                value = yield_node.value
                if value is None:
                    violations.append(
                        self._violation(
                            path,
                            yield_node,
                            f"bare yield in process {node.name}(); processes "
                            "must yield Event objects",
                        )
                    )
                elif isinstance(value, self._NON_EVENT_NODES):
                    violations.append(
                        self._violation(
                            path,
                            yield_node,
                            f"process {node.name}() yields a "
                            f"{type(value).__name__}, which cannot be an "
                            "Event; yield env.timeout(...) or another Event",
                        )
                    )
        return violations


class ParallelSeedRule(Rule):
    """REP008: parallelism in ``src/repro`` must use the seed-tree API.

    Direct ``multiprocessing`` / ``concurrent.futures`` / ``os.fork``
    usage bypasses the :mod:`repro.parallel` task layer — worker
    functions would draw seeds (or worse, share RNG state) in ways
    that depend on worker count and scheduling order, breaking the
    bit-exact jobs-invariance guarantee.  All fan-out must go through
    :func:`repro.parallel.pool.run_tasks` over seed-tree-derived
    :class:`~repro.parallel.task.TaskSpec` objects;
    ``repro/parallel/pool.py`` is the single sanctioned wrapper and
    marks its two multiprocessing imports with inline ``reprolint:
    disable=REP008`` comments.
    """

    CODE = "REP008"
    SUMMARY = (
        "no direct multiprocessing/concurrent.futures in src/repro; "
        "use repro.parallel (seed-tree tasks + pool)"
    )

    FORBIDDEN_MODULES = ("multiprocessing", "concurrent.futures", "concurrent")

    def applies_to(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return _under_src(path) and "/repro/" in "/" + normalized

    def _forbidden_module(self, name: Optional[str]) -> bool:
        if not name:
            return False
        return any(
            name == module or name.startswith(module + ".")
            for module in self.FORBIDDEN_MODULES
        )

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._forbidden_module(alias.name):
                        violations.append(
                            self._violation(
                                path,
                                node,
                                f"import of {alias.name} bypasses the "
                                "seed-tree parallel API; fan out through "
                                "repro.parallel.pool.run_tasks",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if self._forbidden_module(node.module):
                    violations.append(
                        self._violation(
                            path,
                            node,
                            f"import from {node.module} bypasses the "
                            "seed-tree parallel API; fan out through "
                            "repro.parallel.pool.run_tasks",
                        )
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted == "os.fork":
                    violations.append(
                        self._violation(
                            path,
                            node,
                            "os.fork() duplicates RNG and engine state; "
                            "fan out through repro.parallel.pool.run_tasks",
                        )
                    )
        return violations


class FaultSeedRule(Rule):
    """REP009: fault/mobility modules must draw randomness from the
    seed tree.

    Everything under ``src/repro/faults`` and ``src/repro/mobility``
    exists to make failure and churn scenarios bit-reproducible and
    jobs-invariant: fault schedules and channel trajectories are
    compiled ahead of execution from seeds derived via
    :func:`repro.parallel.seedtree.derive_seed`.  A fault module that
    reaches for ambient entropy (``random``, ``secrets``,
    ``os.urandom``) or constructs an unseeded / non-derived generator
    (``default_rng()`` with no argument, ``RandomState``) silently
    breaks that guarantee, so any such draw is flagged — the mirror of
    REP008's rule for parallelism.
    """

    CODE = "REP009"
    SUMMARY = (
        "fault/mobility modules (src/repro/faults, src/repro/mobility) "
        "must derive all randomness from the seed tree "
        "(repro.parallel.seedtree)"
    )

    FORBIDDEN_MODULES = ("random", "secrets")

    def applies_to(self, path: str) -> bool:
        normalized = "/" + path.replace("\\", "/")
        return _under_src(path) and (
            "/repro/faults/" in normalized
            or "/repro/mobility/" in normalized
        )

    def _forbidden_module(self, name: Optional[str]) -> bool:
        if not name:
            return False
        return any(
            name == module or name.startswith(module + ".")
            for module in self.FORBIDDEN_MODULES
        )

    @staticmethod
    def _seed_derived(node: ast.AST) -> bool:
        """Whether an argument expression plausibly carries a derived
        seed: a ``derive_seed``/``seed`` call, a ``.seed`` attribute, or
        a name mentioning "seed"."""
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                dotted = _dotted_name(child.func)
                if dotted and dotted.split(".")[-1] in ("derive_seed", "seed"):
                    return True
            elif isinstance(child, ast.Attribute) and "seed" in child.attr.lower():
                return True
            elif isinstance(child, ast.Name) and "seed" in child.id.lower():
                return True
        return False

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._forbidden_module(alias.name):
                        violations.append(
                            self._violation(
                                path,
                                node,
                                f"import of {alias.name} in a fault module; "
                                "derive fault randomness via "
                                "repro.parallel.seedtree.derive_seed",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if self._forbidden_module(node.module):
                    violations.append(
                        self._violation(
                            path,
                            node,
                            f"import from {node.module} in a fault module; "
                            "derive fault randomness via "
                            "repro.parallel.seedtree.derive_seed",
                        )
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                name = dotted.split(".")[-1]
                if dotted == "os.urandom":
                    violations.append(
                        self._violation(
                            path,
                            node,
                            "os.urandom() is ambient entropy; derive fault "
                            "randomness via repro.parallel.seedtree",
                        )
                    )
                elif name == "RandomState":
                    violations.append(
                        self._violation(
                            path,
                            node,
                            "RandomState is legacy global-style RNG; use "
                            "default_rng(derive_seed(...)) instead",
                        )
                    )
                elif name == "default_rng":
                    arguments = list(node.args) + [
                        keyword.value for keyword in node.keywords
                    ]
                    if not arguments:
                        violations.append(
                            self._violation(
                                path,
                                node,
                                "default_rng() without a seed draws OS "
                                "entropy; pass derive_seed(...)",
                            )
                        )
                    elif not any(self._seed_derived(arg) for arg in arguments):
                        violations.append(
                            self._violation(
                                path,
                                node,
                                "default_rng() seed is not derived from the "
                                "seed tree; pass derive_seed(...) or a "
                                "*seed-named value",
                            )
                        )
        return violations


class LegacyTraceRecordRule(Rule):
    """REP010: no string-kind ``trace.record(...)`` call sites.

    Every emission goes through the typed event classes in
    :mod:`repro.obs.events` and the ``Instrumentation.emit`` facade.  A
    string-kind ``trace.record("kind", **blob)`` call site would emit
    untyped, schema-less rows that the sinks and metric timelines
    cannot decode.  Scoped to ``src/repro`` outside the observability
    package itself.
    """

    CODE = "REP010"
    SUMMARY = (
        "no string-kind trace.record(...) call sites in src/repro; "
        "emit typed events through repro.obs.Instrumentation"
    )

    def applies_to(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        if "/repro/obs/" in "/" + normalized:
            return False
        return _under_src(path) and "/repro/" in "/" + normalized

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) >= 2 and parts[-1] == "record" and parts[-2] == "trace":
                violations.append(
                    self._violation(
                        path,
                        node,
                        f"call to {dotted}() uses a string-kind "
                        "trace surface; emit a typed repro.obs event via "
                        "Instrumentation.emit instead",
                    )
                )
        return violations


#: The full suite, in code order.
ALL_RULES: Tuple[Rule, ...] = (
    UnseededRandomRule(),
    WallClockRule(),
    SimTimeEqualityRule(),
    MutableDefaultRule(),
    BareExceptRule(),
    DunderAllRule(),
    YieldEventRule(),
    ParallelSeedRule(),
    FaultSeedRule(),
    LegacyTraceRecordRule(),
)
