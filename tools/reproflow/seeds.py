"""Seed-provenance pass: every RNG construction traces to an approved root.

The determinism contract (DESIGN.md) is that all randomness derives
from explicit, identity-keyed seeds: the SplitMix64 seed tree
(:mod:`repro.parallel.seedtree`), experiment/Scenario ``seed``
parameters, or the named streams (:mod:`repro.sim.streams`).  This
pass finds every RNG constructor call in the project —
``numpy.random.default_rng``, ``random.Random``, ``SeedSequence``,
``RandomState`` — and classifies the provenance of its seed argument
by taint-style dataflow:

* **approved** — a ``derive_seed``/``integer_seed`` call, a parameter
  or attribute whose name contains ``seed``, a value returned by a
  project function that itself returns approved seed material, or
  arithmetic over approved values;
* **literal** — bottoms out only in constants (``default_rng(0)``):
  a hidden fixed seed that silently decouples the run from the
  experiment's seed parameters;
* **ambient** — no argument at all (OS entropy);
* **laundered** — flows from a parameter *not* named like a seed whose
  call sites pass literals or ambient values: the cross-module case
  AST-local lints (REP001/REP008/REP009) cannot see.

Unknown provenance (attribute reads, unresolvable calls) is not
flagged — this is a lint, not a verifier — but a non-seed-named
parameter feeding an RNG is checked at every resolvable call site,
which is what gives the pass interprocedural reach.
"""

from __future__ import annotations

import ast
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from tools.reproflow.findings import Finding
from tools.reproflow.project import FunctionInfo, Project, dotted_name

__all__ = ["run_seeds_pass"]

#: Callables that *construct* an RNG from a seed argument.
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "random.Random",
}

#: Bare names that, when imported from numpy.random / random, construct RNGs.
_RNG_BARE = {
    "default_rng": "numpy.random.default_rng",
    "SeedSequence": "numpy.random.SeedSequence",
    "RandomState": "numpy.random.RandomState",
    "Random": "random.Random",
}

#: Functions whose return value is approved seed material.
_APPROVED_CALLS = {"derive_seed"}

#: Method names on seed-carrying objects whose result is approved.
_APPROVED_METHODS = {"seed", "integer_seed", "child", "spawn", "generate_state"}


class Provenance(Enum):
    """Taint classes for a seed expression."""

    APPROVED = "approved"
    LITERAL = "literal"
    UNKNOWN = "unknown"


def _is_seed_name(name: str) -> bool:
    lowered = name.lower()
    return "seed" in lowered or lowered in ("root", "entropy", "streams", "rng")


class _FunctionAnalysis:
    """Per-function provenance evaluator with assignment-chain lookup."""

    def __init__(self, project: Project, info: FunctionInfo) -> None:
        self.project = project
        self.info = info
        self.assignments: Dict[str, List[ast.expr]] = {}
        self.params: Set[str] = set()
        args = info.node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            self.params.add(arg.arg)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and node.value is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.assignments.setdefault(target.id, []).append(
                            node.value
                        )
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self.assignments.setdefault(node.target.id, []).append(
                        node.value
                    )

    # ``tainted_params`` collects parameters whose value reaches the
    # seed position so the pass can chase their call sites.
    def classify(
        self, node: Optional[ast.expr], tainted_params: Set[str], depth: int = 0
    ) -> Provenance:
        """Provenance of one expression inside this function."""
        if node is None or depth > 24:
            return Provenance.UNKNOWN
        if isinstance(node, ast.Constant):
            if node.value is None:
                return Provenance.UNKNOWN
            return Provenance.LITERAL
        if isinstance(node, ast.Name):
            if node.id in self.assignments:
                results = {
                    self.classify(value, tainted_params, depth + 1)
                    for value in self.assignments[node.id]
                }
                if Provenance.APPROVED in results:
                    return Provenance.APPROVED
                if results == {Provenance.LITERAL}:
                    return Provenance.LITERAL
                return Provenance.UNKNOWN
            if _is_seed_name(node.id):
                # Seed-named parameters and bindings are approved roots:
                # they are the experiment's explicit seed surface.
                return Provenance.APPROVED
            if node.id in self.params:
                tainted_params.add(node.id)
                return Provenance.UNKNOWN
            # Module-level constant: classify its binding.
            symbol = self.project.modules[self.info.module].symbols.get(node.id)
            if symbol is not None and symbol.kind == "constant":
                value = getattr(symbol.node, "value", None)
                if isinstance(value, ast.Constant):
                    return Provenance.LITERAL
            return Provenance.UNKNOWN
        if isinstance(node, ast.Attribute):
            if _is_seed_name(node.attr):
                return Provenance.APPROVED
            return Provenance.UNKNOWN
        if isinstance(node, ast.Call):
            return self._classify_call(node, tainted_params, depth)
        if isinstance(node, ast.BinOp):
            left = self.classify(node.left, tainted_params, depth + 1)
            right = self.classify(node.right, tainted_params, depth + 1)
            results = {left, right}
            if Provenance.APPROVED in results:
                return Provenance.APPROVED
            if results == {Provenance.LITERAL}:
                return Provenance.LITERAL
            return Provenance.UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self.classify(node.operand, tainted_params, depth + 1)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            results = {
                self.classify(element, tainted_params, depth + 1)
                for element in node.elts
            }
            if Provenance.APPROVED in results:
                return Provenance.APPROVED
            if results and results == {Provenance.LITERAL}:
                return Provenance.LITERAL
            return Provenance.UNKNOWN
        if isinstance(node, ast.IfExp):
            body = self.classify(node.body, tainted_params, depth + 1)
            orelse = self.classify(node.orelse, tainted_params, depth + 1)
            if Provenance.LITERAL in (body, orelse):
                return Provenance.LITERAL
            if body == orelse:
                return body
            return Provenance.UNKNOWN
        if isinstance(node, ast.Subscript):
            return self.classify(node.value, tainted_params, depth + 1)
        return Provenance.UNKNOWN

    def _classify_call(
        self, node: ast.Call, tainted_params: Set[str], depth: int
    ) -> Provenance:
        dotted = dotted_name(node.func)
        if dotted is not None:
            tail = dotted.split(".")[-1]
            if tail in _APPROVED_CALLS:
                return Provenance.APPROVED
            if tail in _APPROVED_METHODS and isinstance(node.func, ast.Attribute):
                return Provenance.APPROVED
            # A project function whose return value is approved.
            symbol = self.project.resolve_dotted(self.info.module, dotted)
            if symbol is not None and symbol.kind == "function":
                qualname = f"{symbol.module}:{symbol.name}"
                returns = _returns_approved(self.project, qualname, depth + 1)
                if returns is not None:
                    return returns
        # hash()/int()/abs() of approved material stays approved.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("int", "abs", "hash")
            and node.args
        ):
            return self.classify(node.args[0], tainted_params, depth + 1)
        return Provenance.UNKNOWN


_RETURN_CACHE: Dict[Tuple[int, str], Optional[Provenance]] = {}


def _returns_approved(
    project: Project, qualname: str, depth: int
) -> Optional[Provenance]:
    """Whether ``qualname``'s return expressions are all approved
    (forward function summary, memoized)."""
    key = (id(project), qualname)
    if key in _RETURN_CACHE:
        return _RETURN_CACHE[key]
    if depth > 8 or qualname not in project.functions:
        return None
    _RETURN_CACHE[key] = None  # cycle guard
    info = project.functions[qualname]
    analysis = _FunctionAnalysis(project, info)
    returns = [
        node
        for node in ast.walk(info.node)
        if isinstance(node, ast.Return) and node.value is not None
    ]
    if not returns:
        _RETURN_CACHE[key] = None
        return None
    results = {
        analysis.classify(node.value, set(), depth) for node in returns
    }
    outcome = (
        Provenance.APPROVED if results == {Provenance.APPROVED} else None
    )
    _RETURN_CACHE[key] = outcome
    return outcome


def _rng_constructor(project: Project, info: FunctionInfo, call: ast.Call) -> Optional[str]:
    """The canonical RNG-constructor name this call invokes, if any."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    external = project.external_name(info.module, dotted)
    if external in _RNG_CONSTRUCTORS:
        return external
    tail = dotted.split(".")[-1]
    if tail in _RNG_BARE:
        # Accept both resolved imports and np.random.* style attribute
        # chains the resolver could not follow.
        if external is None and "." in dotted:
            parts = dotted.split(".")
            if "random" in parts[:-1] or parts[0] in ("np", "numpy"):
                return _RNG_BARE[tail]
            return None
        return _RNG_BARE[tail]
    return None


def _seed_argument(call: ast.Call) -> Optional[ast.expr]:
    """The seed-carrying argument of an RNG constructor call."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg in ("seed", "entropy", "x", "bit_generator"):
            return keyword.value
    return None


def _call_sites_of(
    project: Project, qualname: str
) -> List[Tuple[FunctionInfo, ast.Call]]:
    """Every resolvable call site of ``qualname`` across the project."""
    from tools.reproflow.callgraph import resolve_call

    target = project.functions.get(qualname)
    sites: List[Tuple[FunctionInfo, ast.Call]] = []
    if target is None:
        return sites
    for info in project.functions.values():
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call) and resolve_call(
                project, info, node
            ) == qualname:
                sites.append((info, node))
    return sites


def _argument_for_param(
    info: FunctionInfo, call: ast.Call, param: str
) -> Optional[ast.expr]:
    """The expression bound to ``param`` at one call site."""
    node = info.node
    args = node.args
    positional = [a.arg for a in list(args.posonlyargs) + list(args.args)]
    offset = 1 if info.cls and positional and positional[0] in ("self", "cls") else 0
    # Map the call's positionals onto the callee's parameter list.  The
    # caller-side call is not bound to self, so no offset applies there
    # for plain functions; methods resolved through self.m() drop self.
    names = positional[offset:] if offset else positional
    for index, arg in enumerate(call.args):
        if index < len(names) and names[index] == param:
            return arg
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    return None


def run_seeds_pass(
    project: Project, trusted_modules: Tuple[str, ...] = ()
) -> List[Finding]:
    """Run the pass over every function in the project.

    Args:
        project: the loaded project.
        trusted_modules: module names (e.g. ``repro.sim.streams``,
            ``repro.parallel.seedtree``) that *are* the sanctioned
            seeding machinery and are not themselves analysed.
    """
    _RETURN_CACHE.clear()
    findings: List[Finding] = []
    for qualname, info in sorted(project.functions.items()):
        if info.module in trusted_modules:
            continue
        analysis = _FunctionAnalysis(project, info)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            constructor = _rng_constructor(project, info, node)
            if constructor is None:
                continue
            rel = project.modules[info.module].rel_path(project.root)
            seed_arg = _seed_argument(node)
            if seed_arg is None:
                findings.append(
                    Finding(
                        pass_id="seeds",
                        path=rel,
                        line=node.lineno,
                        symbol=qualname,
                        message=(
                            f"{constructor}() with no seed draws ambient OS "
                            "entropy; pass derive_seed(...) or a seed "
                            "parameter"
                        ),
                    )
                )
                continue
            tainted: Set[str] = set()
            provenance = analysis.classify(seed_arg, tainted)
            if provenance == Provenance.LITERAL:
                findings.append(
                    Finding(
                        pass_id="seeds",
                        path=rel,
                        line=node.lineno,
                        symbol=qualname,
                        message=(
                            f"{constructor}() seeded from a literal; the RNG "
                            "is decoupled from every experiment seed — derive "
                            "the seed (repro.parallel.seedtree.derive_seed) "
                            "or accept a seed parameter"
                        ),
                    )
                )
                continue
            # Interprocedural leg: a non-seed-named parameter reached
            # the seed position — audit what call sites feed it.
            for param in sorted(tainted):
                findings.extend(
                    _check_call_sites(project, qualname, param, constructor)
                )
    return findings


def _check_call_sites(
    project: Project, qualname: str, param: str, constructor: str
) -> List[Finding]:
    findings: List[Finding] = []
    callee = project.functions[qualname]
    for caller, call in _call_sites_of(project, qualname):
        argument = _argument_for_param(callee, call, param)
        if argument is None:
            continue
        analysis = _FunctionAnalysis(project, caller)
        inner_tainted: Set[str] = set()
        provenance = analysis.classify(argument, inner_tainted)
        if provenance == Provenance.LITERAL:
            rel = project.modules[caller.module].rel_path(project.root)
            findings.append(
                Finding(
                    pass_id="seeds",
                    path=rel,
                    line=call.lineno,
                    symbol=caller.qualname,
                    message=(
                        f"literal seed laundered through parameter "
                        f"{param!r} of {qualname} into {constructor}(); "
                        "derive the seed from the seed tree instead"
                    ),
                )
            )
    return findings
