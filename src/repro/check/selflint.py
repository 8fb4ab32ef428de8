"""One-pass lint of the repro codebase itself (families DT, CC and CK).

Bit-identical reproducibility is an *asserted* property of this flow:
the stage cache, the stage-DAG scheduler, and the engine-equivalence
tests all assume that a (netlist, options, seed) triple fully determines
every result.  :func:`lint_paths` parses every file of ``src/repro``
once and derives three rule families from those trees.

**Determinism** (``DT``), per module — the hazard patterns that
historically break that assumption:

``DT001``
    Use of an unseeded random source — the shared module-level
    ``random.*`` functions, ``random.Random()`` with no seed, or
    ``numpy.random.default_rng()`` / legacy ``numpy.random.*`` samplers
    with no seed.
``DT002``
    Wall-clock reads (``time.time`` / ``perf_counter`` / ``strftime``,
    ``datetime.now`` ...) outside the observability subsystem, whose
    whole purpose is timestamps.  Timing that feeds *reports* is fine —
    suppress with a justification comment; timing that feeds an
    algorithm is the bug this rule exists for.
``DT003``
    Direct iteration over a set expression (``for x in set(...)``,
    ``{...}`` literals, set comprehensions, or ``list/tuple/enumerate``
    of one).  Set order depends on ``PYTHONHASHSEED`` for str keys; if
    the order reaches a placement, a cache key, or printed output, runs
    stop being reproducible.  Wrap in ``sorted(...)`` or dedup with
    ``dict.fromkeys(...)`` (insertion-ordered) instead.
``DT004``
    Mutable default argument (``def f(x=[])``) — state leaks across
    calls, so results depend on call history.
``DT005``
    Builtin ``hash()`` outside a ``__hash__`` method — salted per
    process for ``str``/``bytes``, so it must never reach persisted
    keys or ordering (use :func:`repro.flow.cache.stable_hash`).

**Lock discipline** (``CC``), per class.  A *lock* is a name the linted
tree binds to a ``threading`` Lock, RLock, Condition or Semaphore, by
construction or by annotation.  A ``with <lock>:`` body holds it, and so
does every same-class method reached from a held body through
``self.m()`` calls.  (``repro.serve`` has one lock, the job queue's
Condition, so there is no acquisition order to invert.)

``CC002``
    No blocking call while a lock is held: subprocess launches,
    socket/HTTP I/O, file I/O, ``time.sleep``, thread ``join`` and
    ``wait`` on anything but the held condition stall every thread
    contending for the lock.
``CC004``
    Condition discipline: ``wait()`` re-checks its predicate in a
    ``while`` loop (or is ``wait_for``); ``notify()`` holds the lock.

**Stage purity** (``CK``), whole program.  A stage's result must be a
pure function of its upstream artifacts and its options slice — the
inputs its cache key hashes — or cached and fresh runs diverge.

``CK003``
    Ambient reads in stage-reachable code: ``os.environ``, wall-clock
    calls, module-level ``random``, file reads, and mutable module
    globals written by a *different* function.  Reachability starts at
    the ``compute=`` and ``audit=`` functions of the module-level
    ``Stage(...)`` records and follows resolvable calls (module
    functions, imported symbols, ``self.m()``; calling a class reaches
    all its methods).  ``repro.check`` and ``repro.obs`` (bit-identical by
    design) are outside the model, and the stage cache's own file I/O
    is the content-addressed boundary, not an ambient input.

A justified finding is suppressed with an inline
``# check: allow(<rule id>)`` comment on the offending line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .findings import Finding, Severity
from .rules import Rule, rule

DT001 = rule(
    "DT001", Severity.ERROR, "self",
    "random sources must be explicitly seeded",
)
DT002 = rule(
    "DT002", Severity.WARNING, "self",
    "no wall-clock reads outside the observability subsystem",
)
DT003 = rule(
    "DT003", Severity.WARNING, "self",
    "no direct iteration over set expressions (hash-seed ordering)",
)
DT004 = rule(
    "DT004", Severity.ERROR, "self",
    "no mutable default arguments",
)
DT005 = rule(
    "DT005", Severity.WARNING, "self",
    "no builtin hash() outside __hash__ (salted per process)",
)
CC002 = rule(
    "CC002", Severity.WARNING, "self",
    "no blocking calls while holding a lock",
)
CC004 = rule(
    "CC004", Severity.ERROR, "self",
    "condition waits re-check in a loop; notifies hold the lock",
)
CK003 = rule(
    "CK003", Severity.ERROR, "self",
    "no ambient reads (env/clock/RNG/globals/files) in stage code",
)

#: Module path fragments exempt from DT002: timestamps are their job
#: (obs records them; the serve job server schedules with them).
TIME_EXEMPT_PARTS = ("obs", "serve")

#: Subpackages outside the CK003 call model (the linter; obs tracing).
_CK_EXCLUDED_PARTS = ("check", "obs")

#: Module stems exempt from CK003: the stage cache's file I/O *is* the
#: content-addressed boundary, not an ambient input.
_CK_EXEMPT_STEMS = ("cache",)

#: Shared-state random.* functions (the module-level global RNG).
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "getrandbits", "betavariate",
    "expovariate", "normalvariate", "seed",
}

#: Legacy numpy.random module-level samplers (global state).
_NUMPY_GLOBAL_FNS = {
    "rand", "randn", "randint", "random", "choice", "shuffle",
    "permutation", "uniform", "normal", "seed",
}

#: Wall-clock callables as (module-ish name, attribute).
_CLOCK_CALLS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "strftime"), ("time", "localtime"),
    ("time", "gmtime"), ("time", "time_ns"), ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "today"), ("datetime", "utcnow"),
    ("date", "today"),
}

#: Calls through which a set expression is still "directly iterated".
_ITER_WRAPPERS = {"list", "tuple", "enumerate", "iter", "reversed"}

#: Attribute calls that read files.
_FILE_READ_ATTRS = {"read_text", "read_bytes"}

#: ``threading`` types whose objects are locks (an Event is a signal).
_LOCK_TYPES = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
}

#: ``(owner, attr)`` call patterns that block the calling thread.
_BLOCKING_CALLS = {
    ("subprocess", "run"), ("subprocess", "Popen"), ("subprocess", "call"),
    ("subprocess", "check_call"), ("subprocess", "check_output"),
    ("time", "sleep"), ("os", "fsync"), ("socket", "create_connection"),
}

#: Bare attribute names whose calls block regardless of owner (a
#: ``wait`` on the held condition itself is CC004's business instead).
_BLOCKING_ATTRS = {
    "communicate", "urlopen", "sendall", "recv", "accept", "connect",
    "read_text", "write_text", "read_bytes", "write_bytes", "getresponse",
    "open", "wait",
}

#: ``g.<mutator>()`` calls treated as writes to ``g``.
_MUTATOR_ATTRS = {
    "append", "extend", "insert", "pop", "popitem", "remove", "clear",
    "update", "add", "discard", "setdefault", "appendleft", "popleft",
}

#: Constructor names whose module-level result is a mutable container.
_MUTABLE_FACTORIES = {
    "dict", "list", "set", "defaultdict", "deque", "OrderedDict",
    "Counter",
}

#: An inline suppression: ``# check: allow(DT002, CK003)``.
_ALLOW = re.compile(r"# check: allow\(([^)]*)\)")

#: (rule, line, message, fix hint), before suppression comments apply.
_Hit = Tuple[Rule, int, str, str]


@dataclass
class _Module:
    """One file of the linted tree, parsed once, and what walks found."""

    filename: str
    name: str                  # dotted module name below the lint root
    source: str
    tree: ast.Module
    in_stage_model: bool
    #: DT hits, and (line, what) per ambient read, of the DT walk.
    dt_hits: List[_Hit] = field(default_factory=list)
    ambient: List[Tuple[int, str]] = field(default_factory=list)
    #: Local name -> imported module / (module, symbol).
    imports_mod: Dict[str, str] = field(default_factory=dict)
    imports_sym: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    mutable_globals: Set[str] = field(default_factory=set)


def _dotted(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``a.b`` / ``a.b.c`` call targets as (owner, attr)."""
    if isinstance(node, ast.Attribute):
        owner = node.value
        if isinstance(owner, ast.Name):
            return owner.id, node.attr
        if isinstance(owner, ast.Attribute):
            return owner.attr, node.attr
    return None


def _terminal(node: Optional[ast.AST]) -> str:
    """The last identifier of ``x`` / ``a.b.x`` ("" for anything else)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


# -- DT: determinism, per module (the walk also records ambient reads) ---

def _is_set_expression(node: ast.AST) -> bool:
    """True when ``node`` syntactically constructs a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return True
        dotted = _dotted(fn)
        # dict.keys() is insertion-ordered; set ops like a.union(b) are not.
        if dotted and dotted[1] in (
            "union", "intersection", "difference", "symmetric_difference",
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # a | b etc. over sets can't be proven syntactically; skip.
        return False
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    """One file's walk; collects DT hits and the module's ambient reads."""

    def __init__(self, module: _Module) -> None:
        self.time_exempt = any(
            part in TIME_EXEMPT_PARTS for part in Path(module.filename).parts
        )
        self.hits: List[Tuple[Rule, int, str]] = []
        self.ambient = module.ambient
        self._in_hash_method = 0

    # -- DT004 ----------------------------------------------------------
    def _check_defaults(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call):
                fn = default.func
                if isinstance(fn, ast.Name) and fn.id in (
                    "list", "dict", "set", "bytearray",
                ):
                    mutable = True
            if mutable:
                self.hits.append((
                    DT004, default.lineno,
                    f"mutable default argument in {node.name}()",
                ))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        is_hash = node.name == "__hash__"
        self._in_hash_method += is_hash
        self.generic_visit(node)
        self._in_hash_method -= is_hash

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _dotted(node) == ("os", "environ"):
            self.ambient.append((node.lineno, "os.environ read"))
        self.generic_visit(node)

    # -- DT001 / DT002 / DT005 ------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if isinstance(node.func, ast.Attribute) and (
            node.func.attr in _FILE_READ_ATTRS
        ):
            self.ambient.append((
                node.lineno, f"file I/O .{node.func.attr}()",
            ))
        if dotted is not None:
            owner, attr = dotted
            if owner == "random" and attr in _GLOBAL_RANDOM_FNS:
                self.ambient.append((
                    node.lineno, f"global RNG random.{attr}()",
                ))
                self.hits.append((
                    DT001, node.lineno,
                    f"random.{attr}() uses the shared global RNG; "
                    f"construct random.Random(seed)",
                ))
            elif owner == "random" and attr == "Random" and not node.args:
                self.hits.append((
                    DT001, node.lineno,
                    "random.Random() without a seed",
                ))
            elif attr == "default_rng" and not node.args:
                self.hits.append((
                    DT001, node.lineno,
                    "default_rng() without a seed",
                ))
            elif owner == "random" and attr in _NUMPY_GLOBAL_FNS:
                # np.random.<sampler>: owner resolves to "random" via
                # the attribute chain np . random . <fn>.
                self.hits.append((
                    DT001, node.lineno,
                    f"numpy.random.{attr}() uses global state; "
                    f"use default_rng(seed)",
                ))
            elif dotted in _CLOCK_CALLS:
                self.ambient.append((
                    node.lineno, f"wall-clock {owner}.{attr}()",
                ))
                if not self.time_exempt:
                    self.hits.append((
                        DT002, node.lineno,
                        f"wall-clock read {owner}.{attr}() in a core path",
                    ))
            elif dotted == ("os", "getenv"):
                self.ambient.append((node.lineno, "os.getenv() read"))
        elif isinstance(node.func, ast.Name):
            if node.func.id == "open":
                self.ambient.append((node.lineno, "file I/O open()"))
            elif node.func.id == "getenv":
                self.ambient.append((node.lineno, "os.getenv() read"))
            if node.func.id == "hash" and not self._in_hash_method:
                self.hits.append((
                    DT005, node.lineno,
                    "builtin hash() is salted per process; use "
                    "repro.flow.cache.stable_hash for persisted keys",
                ))
            if node.func.id in _ITER_WRAPPERS and node.args:
                if _is_set_expression(node.args[0]):
                    self.hits.append((
                        DT003, node.lineno,
                        f"{node.func.id}() over a set expression leaks "
                        f"hash ordering",
                    ))
        self.generic_visit(node)

    # -- DT003 ----------------------------------------------------------
    def _check_iter(self, iterable: ast.AST) -> None:
        if _is_set_expression(iterable):
            self.hits.append((
                DT003, iterable.lineno,
                "iteration over a set expression leaks hash ordering",
            ))

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)


# -- CC: lock discipline, per class -------------------------------------

def _lock_names(modules: Sequence[_Module]) -> Set[str]:
    """Names the tree binds to a lock, by construction or annotation."""
    names: Set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ) and _terminal(node.value.func) in _LOCK_TYPES:
                names.update(map(_terminal, node.targets))
            elif isinstance(node, ast.AnnAssign) and (
                _terminal(node.annotation) in _LOCK_TYPES
            ):
                names.add(_terminal(node.target))
            elif isinstance(node, ast.arg) and (
                _terminal(node.annotation) in _LOCK_TYPES
            ):
                names.add(node.arg)
            elif isinstance(node, ast.FunctionDef) and (
                _terminal(node.returns) in _LOCK_TYPES
            ):
                names.add(node.name)  # a property exposing a lock
    return names - {""}


def _blocking_call(call: ast.Call) -> Optional[str]:
    """What blocks in ``call``, or None for a non-blocking call."""
    fn = call.func
    if isinstance(fn, ast.Name):
        return "file I/O open()" if fn.id == "open" else None
    dotted = _dotted(fn)
    if dotted is not None and dotted in _BLOCKING_CALLS:
        return f"blocking call {dotted[0]}.{dotted[1]}()"
    # str.join takes an argument; Thread.join() does not.
    attr = _terminal(fn)
    thread_join = attr == "join" and not call.args and not call.keywords
    if attr in _BLOCKING_ATTRS or thread_join:
        return f"blocking call .{attr}()"
    return None


class _LockScan(ast.NodeVisitor):
    """One function body, entered with ``entry`` locks already held."""

    def __init__(
        self, locks: Set[str], entry: FrozenSet[str], where: str = "",
    ) -> None:
        self.locks = locks
        self.where = where
        self.held = sorted(entry)
        self.loops = 0
        self.hits: List[_Hit] = []
        #: (method, held locks) per ``self.m()`` call under a lock.
        self.held_calls: List[Tuple[str, FrozenSet[str]]] = []

    def scan(self, fn: ast.FunctionDef) -> "_LockScan":
        for stmt in fn.body:
            self.visit(stmt)
        return self

    def skip(self, node: ast.AST) -> None:
        """Nested defs and lambdas run later, under unknown locks."""

    visit_FunctionDef = visit_AsyncFunctionDef = skip
    visit_ClassDef = visit_Lambda = skip

    def visit_With(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        depth = len(self.held)
        for item in node.items:  # ``with a, b:`` evaluates b holding a
            self.visit(item.context_expr)
            if _terminal(item.context_expr) in self.locks:
                self.held.append(_terminal(item.context_expr))
        for stmt in node.body:
            self.visit(stmt)
        del self.held[depth:]

    visit_AsyncWith = visit_With

    def visit_While(self, node: ast.While) -> None:
        self.loops += 1
        self.generic_visit(node)
        self.loops -= 1

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        receiver = fn.value if isinstance(fn, ast.Attribute) else None
        attr, lock = _terminal(fn), _terminal(receiver)
        blocking = _blocking_call(node)
        if lock in self.locks and attr in ("notify", "notify_all"):
            if lock not in self.held:
                self.hits.append((
                    CC004, node.lineno,
                    f"{lock} notified without its lock held in "
                    f"{self.where}; the woken thread can miss the state "
                    f"change", "",
                ))
        elif lock in self.locks and attr in ("wait", "wait_for"):
            if attr == "wait" and not self.loops and lock in self.held:
                self.hits.append((
                    CC004, node.lineno,
                    f"{lock}.wait() outside a while loop in "
                    f"{self.where}; spurious wakeups require re-checking "
                    f"the predicate (or use wait_for)", "",
                ))
        elif blocking is not None and self.held:
            self.hits.append((
                CC002, node.lineno,
                f"{blocking} while holding "
                f"{', '.join(sorted(set(self.held)))} in {self.where}; "
                f"every contender stalls for the duration", "",
            ))
        if lock == "self" and self.held:
            self.held_calls.append((attr, frozenset(self.held)))
        self.generic_visit(node)


def _cc_hits(module: _Module, locks: Set[str]) -> List[_Hit]:
    """CC002/CC004 hits of one module, one class at a time."""
    hits: List[_Hit] = []
    scopes = [("", module.tree.body)] + [
        (f"{node.name}.", node.body)
        for node in ast.walk(module.tree) if isinstance(node, ast.ClassDef)
    ]
    for prefix, body in scopes:
        fns = {f.name: f for f in body if isinstance(f, ast.FunctionDef)}
        # A method called through self.m() from a held body runs held,
        # and so does every method it calls the same way.
        entry: Dict[str, FrozenSet[str]] = {name: frozenset() for name in fns}
        pending = list(fns)
        while pending:
            name = pending.pop()
            scan = _LockScan(locks, entry[name]).scan(fns[name])
            for callee, held in scan.held_calls:
                if callee in fns and not held <= entry[callee]:
                    entry[callee] |= held
                    pending.append(callee)
        for name, fn in fns.items():
            where = f"{prefix}{name}"
            hits += _LockScan(locks, entry[name], where).scan(fn).hits
    return hits


# -- CK: stage purity, whole program ------------------------------------

@dataclass
class _FnInfo:
    """One analyzable function or method."""

    qualname: str              # "mod:func" or "mod:Cls.method"
    module: _Module
    cls: Optional[str]
    node: ast.FunctionDef


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_FACTORIES
    return False


def _resolve_from(module: str, node: ast.ImportFrom) -> str:
    if node.level == 0:
        return node.module or ""
    base = module.split(".")[:-node.level]
    if node.module:
        base += node.module.split(".")
    return ".".join(base)


class _StageModel:
    """The whole-program call model CK003 is computed from."""

    def __init__(self, modules: Iterable[_Module]) -> None:
        self.functions: Dict[str, _FnInfo] = {}
        self.by_bare: Dict[str, str] = {}
        #: class name -> methods of every class of that name.
        self.classes: Dict[str, List[str]] = {}
        #: (module, function name) of each stage record's compute and
        #: audit function.
        self.entries: List[Tuple[_Module, str]] = []
        for module in modules:
            self._add_module(module)

    # -- declaration scan ----------------------------------------------

    def _add_module(self, module: _Module) -> None:
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name
                    module.imports_mod[local] = alias.name
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_from(module.name, node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    module.imports_sym[local] = (target, alias.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if node.value is not None and _is_mutable_literal(
                    node.value
                ):
                    module.mutable_globals.update(
                        t.id for t in targets if isinstance(t, ast.Name)
                    )
                if node.value is not None:
                    self._scan_stages(module, node.value)
            elif isinstance(node, ast.ClassDef):
                methods = self.classes.setdefault(node.name, [])
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods.append(self._add_function(
                            module, item, node.name
                        ))
            elif isinstance(node, ast.FunctionDef):
                qualname = self._add_function(module, node, None)
                self.by_bare.setdefault(node.name, qualname)

    def _add_function(
        self, module: _Module, node: ast.FunctionDef, cls: Optional[str]
    ) -> str:
        local = f"{cls}.{node.name}" if cls else node.name
        qualname = f"{module.name}:{local}"
        self.functions[qualname] = _FnInfo(qualname, module, cls, node)
        return qualname

    def _scan_stages(self, module: _Module, value: ast.expr) -> None:
        """The ``compute=``/``audit=`` functions of the ``Stage(...)``
        records in one module-level assignment."""
        for node in ast.walk(value):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ) and node.func.id == "Stage":
                self.entries += [
                    (module, kw.value.id) for kw in node.keywords
                    if kw.arg in ("compute", "audit")
                    and isinstance(kw.value, ast.Name)
                ]

    # -- call resolution -----------------------------------------------

    def _named(self, module: _Module, name: str) -> List[str]:
        """A bare-name call: a function, or a class (all its methods)."""
        local = f"{module.name}:{name}"
        if local in self.functions:
            return [local]
        if name in module.imports_sym:
            tmod, sym = module.imports_sym[name]
            if f"{tmod}:{sym}" in self.functions:
                return [f"{tmod}:{sym}"]
            name = sym
        if name in self.classes:
            return self.classes[name]
        return [self.by_bare[name]] if name in self.by_bare else []

    def _callees(self, info: _FnInfo, call: ast.Call) -> List[str]:
        """Qualnames one call may invoke, as far as they resolve."""
        fn = call.func
        if isinstance(fn, ast.Name):
            return self._named(info.module, fn.id)
        if not isinstance(fn, ast.Attribute) or not isinstance(
            fn.value, ast.Name
        ):
            return []
        owner, module = fn.value.id, info.module
        if owner == "self" and info.cls is not None:
            target = f"{module.name}:{info.cls}.{fn.attr}"
            return [target] if target in self.functions else []
        alias = module.imports_mod.get(owner)
        if alias is None and owner in module.imports_sym:
            tmod, sym = module.imports_sym[owner]
            alias = f"{tmod}.{sym}" if tmod else sym
        target = f"{alias}:{fn.attr}"
        return [target] if alias and target in self.functions else []

    def reachable_functions(self) -> List[_FnInfo]:
        """Functions reachable from any stage entry via resolvable
        calls, in source order."""
        stack: List[str] = []
        for module, name in self.entries:
            stack += self._named(module, name)
        seen: Dict[str, _FnInfo] = {}
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            info = seen[qualname] = self.functions[qualname]
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    stack += self._callees(info, node)
        return sorted(
            seen.values(),
            key=lambda f: (f.module.filename, f.node.lineno),
        )

    # -- purity scan ---------------------------------------------------

    @staticmethod
    def _global_usage(
        info: _FnInfo,
    ) -> Tuple[List[Tuple[str, int]], Set[str]]:
        """(mutable-global reads, mutable globals mutated) in ``info``."""
        mutable = info.module.mutable_globals
        if not mutable:
            return [], set()
        reads: List[Tuple[str, int]] = []
        mutated: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    base: ast.expr = target
                    while isinstance(base, (ast.Subscript, ast.Attribute)):
                        base = base.value
                    if (
                        base is not target
                        and isinstance(base, ast.Name)
                        and base.id in mutable
                    ):
                        mutated.add(base.id)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                owner = node.func.value
                if (
                    isinstance(owner, ast.Name)
                    and owner.id in mutable
                    and node.func.attr in _MUTATOR_ATTRS
                ):
                    mutated.add(owner.id)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load) and node.id in mutable:
                    reads.append((node.id, node.lineno))
        return reads, mutated

    def impurity_hits(self) -> Dict[str, List[_Hit]]:
        """CK003 hits by filename (none without stage anchors)."""
        hits: Dict[str, List[_Hit]] = {}
        mutators: Dict[Tuple[str, str], Set[str]] = {}
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            for name in self._global_usage(info)[1]:
                key = (info.module.name, name)
                mutators.setdefault(key, set()).add(qualname)
        for info in self.reachable_functions():
            module = info.module
            if module.name.rsplit(".", 1)[-1] in _CK_EXEMPT_STEMS:
                continue
            out = hits.setdefault(module.filename, [])
            first, last = info.node.lineno, info.node.end_lineno or 0
            for lineno, detail in module.ambient:
                if first <= lineno <= last:
                    out.append((
                        CK003, lineno,
                        f"{detail} in stage-reachable {info.qualname}; "
                        f"ambient inputs are invisible to the stage cache "
                        f"key, so cached and fresh runs can diverge",
                        "thread the value through the stage's options "
                        "slice (which keys it), or justify with "
                        "# check: allow(CK003)",
                    ))
            reads, own_mutations = self._global_usage(info)
            for name, lineno in reads:  # every read site, like ambient
                writers = mutators.get((module.name, name), set())
                if name in own_mutations or not writers - {info.qualname}:
                    continue
                writer = sorted(writers - {info.qualname})[0]
                out.append((
                    CK003, lineno,
                    f"stage-reachable {info.qualname} reads mutable "
                    f"module global {name!r}, which {writer} mutates; "
                    f"its content is ambient state the stage key "
                    f"cannot see",
                    "capture the content in the stage key or justify "
                    "with # check: allow(CK003)",
                ))
        return hits


# -- One pass: parse once, derive every family --------------------------

def suppressed_lines(source: str) -> Dict[int, Set[str]]:
    """Line -> rule ids allowed by ``# check: allow(XXnnn)`` comments."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW.search(line)
        if match:
            ids = {part.strip() for part in match.group(1).split(",")}
            allowed[lineno] = ids - {""}
    return allowed


def _parse(
    source: str, filename: str, name: str, in_stage_model: bool
) -> Union[_Module, Finding]:
    """One module, or the finding that says it does not parse."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return DT001.finding(
            f"{filename}:{exc.lineno or 0}",
            f"not parseable: {exc.msg}",
        )
    module = _Module(filename, name, source, tree, in_stage_model)
    visitor = _DeterminismVisitor(module)
    visitor.visit(tree)
    module.dt_hits = [(r, line, msg, "") for r, line, msg in visitor.hits]
    return module


def _lint(parsed: Sequence[Union[_Module, Finding]]) -> List[Finding]:
    """Every family over the parsed modules, suppressions applied."""
    findings = [item for item in parsed if isinstance(item, Finding)]
    modules = [item for item in parsed if isinstance(item, _Module)]
    locks = _lock_names(modules)
    stage_hits = _StageModel(
        m for m in modules if m.in_stage_model
    ).impurity_hits()
    for module in modules:
        hits = module.dt_hits + _cc_hits(module, locks)
        hits += stage_hits.get(module.filename, [])
        allowed = suppressed_lines(module.source)
        for rule_obj, lineno, message, hint in sorted(
            hits, key=lambda h: (h[1], h[0].rule_id, h[2])
        ):
            if rule_obj.rule_id not in allowed.get(lineno, ()):
                findings.append(rule_obj.finding(
                    f"{module.filename}:{lineno}", message, fix_hint=hint,
                ))
    return findings


def lint_source(
    source: str, filename: str = "<string>"
) -> List[Finding]:
    """Lint one module's source text as a one-file program (CK003
    then needs the module's own ``Stage(...)`` records)."""
    return _lint([_parse(source, filename, Path(filename).stem, True)])


def default_lint_root() -> Path:
    """``src/repro`` as installed: the package directory itself."""
    return Path(__file__).resolve().parent.parent


def _parse_paths(
    paths: Optional[Iterable[Path]],
) -> List[Union[_Module, Finding]]:
    """Every ``.py`` file under ``paths`` (default: the package)."""
    roots = [Path(p) for p in paths] if paths else [default_lint_root()]
    parsed: List[Union[_Module, Finding]] = []
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            relative = Path(path.name) if root.is_file() else (
                path.relative_to(root)
            )
            parts = relative.with_suffix("").parts
            if parts[-1] == "__init__" and len(parts) > 1:
                parts = parts[:-1]
            in_model = not any(
                part in _CK_EXCLUDED_PARTS for part in relative.parent.parts
            )
            parsed.append(_parse(
                path.read_text(encoding="utf-8"), str(path),
                ".".join(parts), in_model,
            ))
    return parsed


def lint_paths(
    paths: Optional[Iterable[Path]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (default: the package),
    parsing each once; CK003 sees all of them as one program."""
    return _lint(_parse_paths(paths))


def stage_reachable_functions(
    paths: Optional[Iterable[Path]] = None,
) -> List[str]:
    """Qualnames (``module:Class.method``) of all stage-reachable code."""
    modules = [
        m for m in _parse_paths(paths)
        if isinstance(m, _Module) and m.in_stage_model
    ]
    return [f.qualname for f in _StageModel(modules).reachable_functions()]
