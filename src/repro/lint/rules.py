"""Lint rules: the determinism & fork-safety invariants of the runtime.

Each rule is a function ``(tree, path) -> List[Diagnostic]`` over one
parsed module.  The rules are deliberately *syntactic* — no type
inference — tuned so that a true positive is an invariant violation the
parallel runtime actually depends on, and intentional exceptions are
marked ``# lint-ok: CODE`` at the offending line (see
:mod:`repro.lint.engine`).

* ``LNT001`` — call to a module-level ``random.*`` function (or
  ``numpy.random.*`` legacy global).  These draw from interpreter-global,
  implicitly-seeded state; every draw in this codebase must come from an
  explicitly seeded ``random.Random`` (or ``numpy`` ``Generator``)
  threaded through the call tree, or runs stop being reproducible and
  workers fork identical streams.  Constructors (``random.Random``,
  ``random.SystemRandom``, ``numpy.random.default_rng``,
  ``numpy.random.Generator`` …) are fine: they *create* local state.
* ``LNT002`` — time-derived seed: a wall-clock call (``time.time``,
  ``time.time_ns``, ``time.monotonic``, ``datetime.now`` …) in the
  argument list of a ``Random(...)`` / ``default_rng(...)`` construction
  or a ``.seed(...)`` call.  Time seeds differ per process and per run;
  seeds must come from the experiment spec / seed tree.
* ``LNT003`` — RNG consumption inside iteration over an unordered
  collection: a ``for`` whose iterable is syntactically a set (literal,
  comprehension, or ``set()``/``frozenset()`` call) and whose body calls
  an RNG method (a draw on a name containing ``rng``/``random``, or any
  well-known draw method like ``choice``/``shuffle``).  Set order varies
  with ``PYTHONHASHSEED``, so the draw sequence would too — iterate a
  ``sorted(...)`` view instead.
* ``LNT004`` — unpicklable pool-crossing type: in the packages whose
  objects cross process boundaries (core, programs, machines, conversion,
  resilience, lipton, baselines), a class that stores an unpicklable
  value on ``self`` (a ``MappingProxyType``, a lock/condition/semaphore,
  an open file handle) must define ``__reduce__``/``__getstate__`` (or
  ``__reduce_ex__``/``__deepcopy__``-style custom serialisation) so a
  pool ``submit`` does not explode at pickling time.
* ``LNT005`` — lowercase module-level mutable container: module-level
  lists/dicts/sets that are not ALL_CAPS constants (or sunken
  ``_private`` singletons managed through accessor functions with
  ``global``) are fork-hazardous ambient state — each worker silently
  gets a divergent copy.
* ``LNT006`` — unused module-level import (``__init__.py`` re-export
  surfaces are skipped).
* ``LNT007`` — population size captured at construction time: a
  ``self.<attr> = <config>.size`` / ``len(<config>)`` assignment inside
  ``__init__``, or a nested ``def``/``lambda`` closing over a local that
  was bound (exactly once) from such an expression.  Populations are
  dynamic under churn (:mod:`repro.resilience.churn`): a size snapshot
  taken at construction/definition time goes stale the moment a
  ``JoinAgents``/``LeaveAgents`` fault fires — read the live size at use
  time, or refresh the local after every fault barrier (a local that
  *is* reassigned elsewhere in the function is not flagged).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.core.diagnostics import Diagnostic, WARNING

#: Constructors on the random/numpy.random modules that *create* local
#: generator state rather than drawing from the global one.
_RNG_CONSTRUCTORS = {
    "Random",
    "SystemRandom",
    "default_rng",
    "Generator",
    "RandomState",
    "PCG64",
    "Philox",
    "SFC64",
    "MT19937",
    "SeedSequence",
}

#: Wall-clock sources that must never feed a seed.
_TIME_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}

#: Method names that draw from an RNG.
_DRAW_METHODS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "binomial",
    "multinomial",
    "getrandbits",
    "triangular",
}

#: Attribute sources whose values do not pickle.
_UNPICKLABLE_CALLS = {
    "MappingProxyType",
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "open",
}

#: Custom-serialisation hooks, any of which makes a class pool-safe.
_PICKLE_HOOKS = {"__reduce__", "__reduce_ex__", "__getstate__"}

#: Package prefixes (relative to ``src/repro``) whose types cross the
#: process-pool boundary.
POOL_CROSSING_PREFIXES = (
    "core",
    "programs",
    "machines",
    "conversion",
    "resilience",
    "lipton",
    "baselines",
)


def _diag(code: str, message: str, path: str, node: ast.AST) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=WARNING,
        message=message,
        target=path,
        location=str(getattr(node, "lineno", 0)),
    )


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for an attribute chain rooted at a Name, else ``""``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# ----------------------------------------------------------------------
# LNT001 / LNT002 — global RNG use and time-derived seeds
# ----------------------------------------------------------------------
def rule_global_rng(tree: ast.Module, path: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        parts = dotted.split(".")
        # random.X(...) / np.random.X(...) / numpy.random.X(...)
        is_stdlib = len(parts) == 2 and parts[0] == "random"
        is_numpy = (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
        )
        if (is_stdlib or is_numpy) and parts[-1] not in _RNG_CONSTRUCTORS:
            out.append(
                _diag(
                    "LNT001",
                    f"call to global RNG function {dotted}(): draw from an "
                    "explicitly seeded random.Random / numpy Generator "
                    "instead",
                    path,
                    node,
                )
            )
    return out


def _contains_time_call(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            dotted = _dotted(sub.func)
            parts = tuple(dotted.split("."))
            if len(parts) >= 2 and (parts[-2], parts[-1]) in _TIME_CALLS:
                return True
    return False


def rule_time_seed(tree: ast.Module, path: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else ""
        )
        if name not in ("Random", "default_rng", "seed", "SeedSequence"):
            continue
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            if _contains_time_call(arg):
                out.append(
                    _diag(
                        "LNT002",
                        f"time-derived seed passed to {name}(): seeds must "
                        "come from the experiment spec / seed tree, never "
                        "the wall clock",
                        path,
                        node,
                    )
                )
                break
    return out


# ----------------------------------------------------------------------
# LNT003 — RNG draws inside unordered-set iteration
# ----------------------------------------------------------------------
def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else ""
        return name in ("set", "frozenset")
    return False


def _draws_rng(body: List[ast.stmt]) -> ast.Call:
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            root = _dotted(func.value).split(".")[0].lower()
            if func.attr in _DRAW_METHODS and ("rng" in root or "random" in root):
                return node
    return None


def rule_rng_in_set_iteration(tree: ast.Module, path: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        if not _is_set_expr(node.iter):
            continue
        draw = _draws_rng(node.body)
        if draw is not None:
            out.append(
                _diag(
                    "LNT003",
                    "RNG draw inside iteration over an unordered set: the "
                    "draw sequence depends on PYTHONHASHSEED — iterate a "
                    "sorted(...) view",
                    path,
                    node,
                )
            )
    return out


# ----------------------------------------------------------------------
# LNT004 — pool-crossing classes with unpicklable attributes
# ----------------------------------------------------------------------
def rule_pool_pickle_safety(tree: ast.Module, path: str) -> List[Diagnostic]:
    normalised = path.replace("\\", "/")
    if normalised.startswith("src/repro/"):
        normalised = normalised[len("src/repro/") :]
    if not normalised.startswith(POOL_CROSSING_PREFIXES):
        return []
    out: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        hooks: Set[str] = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if hooks & _PICKLE_HOOKS:
            continue
        offender = None
        for sub in ast.walk(node):
            # self.<attr> = <unpicklable>(...) — incl. object.__setattr__
            if isinstance(sub, ast.Assign):
                targets = sub.targets
                value = sub.value
            elif isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted.endswith("__setattr__") and len(sub.args) == 3:
                    targets, value = [sub.args[1]], sub.args[2]
                else:
                    continue
            else:
                continue
            stores_on_self = any(
                (isinstance(t, ast.Attribute) and _dotted(t).startswith("self."))
                or isinstance(t, ast.Constant)  # __setattr__(self, "name", v)
                for t in targets
            )
            if not stores_on_self:
                continue
            for call in ast.walk(value):
                if isinstance(call, ast.Call):
                    name = _dotted(call.func).split(".")[-1]
                    if name in _UNPICKLABLE_CALLS:
                        offender = (call, name)
                        break
            if offender:
                break
        if offender:
            call, name = offender
            out.append(
                _diag(
                    "LNT004",
                    f"class {node.name} stores a {name}(...) on instances "
                    "but defines no __reduce__/__getstate__: it will not "
                    "survive the process-pool pickle boundary",
                    path,
                    call,
                )
            )
    return out


# ----------------------------------------------------------------------
# LNT005 — lowercase module-level mutable containers
# ----------------------------------------------------------------------
def _is_mutable_container(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict")
    return False


def rule_module_mutable_state(tree: ast.Module, path: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not _is_mutable_container(value):
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name == name.upper() or name.startswith("__"):
                continue  # ALL_CAPS constant / dunder (__all__ etc.)
            out.append(
                _diag(
                    "LNT005",
                    f"module-level mutable container {name!r}: name it "
                    "ALL_CAPS if it is a constant, or move it behind an "
                    "accessor — ambient mutable state diverges across "
                    "forked workers",
                    path,
                    stmt,
                )
            )
    return out


# ----------------------------------------------------------------------
# LNT006 — unused module-level imports
# ----------------------------------------------------------------------
def rule_unused_imports(tree: ast.Module, path: str) -> List[Diagnostic]:
    if path.endswith("__init__.py"):
        return []  # re-export surface: unused-looking imports are the point
    imported: Dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = stmt
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                imported[alias.asname or alias.name] = stmt
    if not imported:
        return []
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted:
                used.add(dotted.split(".")[0])
    # Names in string annotations and docstring doctests are invisible to
    # the walker; a grep over the raw source would over-match instead.
    # ``__all__`` entries count as uses.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in imported:
                used.add(node.value)
    out: List[Diagnostic] = []
    for name, stmt in imported.items():
        if name not in used:
            out.append(
                _diag("LNT006", f"unused import {name!r}", path, stmt)
            )
    return out


# ----------------------------------------------------------------------
# LNT007 — population size captured at construction time
# ----------------------------------------------------------------------
#: Identifier fragments that mark a value as a population configuration.
_POP_NAME_HINTS = ("config", "population", "current", "dense", "multiset")


def _is_pop_size_expr(node: ast.AST) -> bool:
    """``<config-ish>.size`` or ``len(<config-ish>)``."""
    if isinstance(node, ast.Attribute) and node.attr == "size":
        chain = _dotted(node).lower()
        return any(hint in chain for hint in _POP_NAME_HINTS)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
        and not node.keywords
    ):
        chain = _dotted(node.args[0]).lower()
        return any(hint in chain for hint in _POP_NAME_HINTS)
    return False


def _bound_names(target: ast.AST) -> List[str]:
    """Plain names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for elt in target.elts:
            out.extend(_bound_names(elt))
        return out
    return []


def rule_population_size_capture(tree: ast.Module, path: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []

    # Pattern A: ``self.<attr> = …<config>.size…`` inside ``__init__`` —
    # the attribute freezes the size for the object's whole lifetime.
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if (
                not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                or item.name != "__init__"
            ):
                continue
            for stmt in ast.walk(item):
                if not isinstance(stmt, ast.Assign):
                    continue
                on_self = any(
                    isinstance(t, ast.Attribute)
                    and _dotted(t).startswith("self.")
                    for t in stmt.targets
                )
                if not on_self:
                    continue
                for sub in ast.walk(stmt.value):
                    if _is_pop_size_expr(sub):
                        out.append(
                            _diag(
                                "LNT007",
                                f"{cls.name}.__init__ stores the population "
                                "size on self: the population can resize "
                                "under churn — read the live size at use "
                                "time instead",
                                path,
                                stmt,
                            )
                        )
                        break

    # Pattern B: a nested def/lambda closing over a local bound exactly
    # once from a size expression — the closure sees the stale snapshot
    # forever.  Locals that are reassigned elsewhere (e.g. refreshed at a
    # fault barrier) are fine.
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bindings: Dict[str, int] = {}
        size_bound: Dict[str, ast.Assign] = {}
        for stmt in ast.walk(func):
            if stmt is func:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # inner scopes counted separately
            if isinstance(stmt, ast.Assign):
                names = [n for t in stmt.targets for n in _bound_names(t)]
                for name in names:
                    bindings[name] = bindings.get(name, 0) + 1
                if _is_pop_size_expr(stmt.value):
                    for name in names:
                        size_bound[name] = stmt
            elif isinstance(stmt, ast.AugAssign):
                for name in _bound_names(stmt.target):
                    bindings[name] = bindings.get(name, 0) + 1
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                for name in _bound_names(stmt.target):
                    bindings[name] = bindings.get(name, 0) + 1
        frozen = {
            name for name, stmt in size_bound.items() if bindings.get(name) == 1
        }
        if not frozen:
            continue
        for inner in ast.walk(func):
            if inner is func or not isinstance(
                inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            inner_args = {a.arg for a in inner.args.args}
            inner_args |= {a.arg for a in inner.args.kwonlyargs}
            body = inner.body if isinstance(inner.body, list) else [inner.body]
            rebound = {
                n
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Assign)
                for t in sub.targets
                for n in _bound_names(t)
            }
            for stmt in body:
                hit = None
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)
                        and sub.id in frozen
                        and sub.id not in inner_args
                        and sub.id not in rebound
                    ):
                        hit = sub
                        break
                if hit is not None:
                    label = getattr(inner, "name", "<lambda>")
                    out.append(
                        _diag(
                            "LNT007",
                            f"closure {label} captures {hit.id!r}, a "
                            "population size snapshot taken at definition "
                            "time: the population can resize under churn — "
                            "read the live size inside the closure or "
                            "refresh the local after fault barriers",
                            path,
                            inner,
                        )
                    )
                    break
    return out


#: All rules, in code order; the engine runs each over every module.
ALL_RULES = (
    rule_global_rng,
    rule_time_seed,
    rule_rng_in_set_iteration,
    rule_pool_pickle_safety,
    rule_module_mutable_state,
    rule_unused_imports,
    rule_population_size_capture,
)
