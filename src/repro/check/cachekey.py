"""Stage-purity analysis (family ``CK``, rule ``CK003``).

The content-addressed stage cache, scheduler-level stage dedup,
serve-side request coalescing and warm drain/resume all rest on one
contract: a stage's result is a pure function of its upstream artifacts
and its options slice (:data:`repro.flow.options.STAGE_OPTIONS`) — the
inputs its cache key hashes.  The slices make an unkeyed *options* read
impossible by construction; this pass guards the other way stage code
can see state its key cannot, ambient inputs.

``CK003``
    Impure reads in stage-reachable code — ``os.environ``, wall-clock
    calls, module-level ``random``, mutable module globals written by a
    *different* function, file reads outside the stage cache — break
    the purity that makes caching and cross-process scheduling sound.
    Documented bit-identical sites carry ``# check: allow(CK003)``, the
    same inline suppression as the DT and CC families.

Scope: the pass anchors on the ``if stage == "...": return fn(...)``
branches of ``compute_stage`` and follows every resolvable call (module
functions, imported symbols, ``self.m()``, constructor-bound locals)
from those entry points.  A tree without the anchors yields no
findings, so the tests pin the reachable set of the shipped flow.
``repro.check`` and ``repro.obs`` are outside the model (the analyzer
itself, and a tracing layer that is bit-identical by design); the cache
module is exempt because its file I/O *is* the content-addressed
boundary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .findings import Finding, Severity
from .rules import rule
from .selflint import default_lint_root, suppressed_lines

CK003 = rule(
    "CK003", Severity.ERROR, "self",
    "no ambient reads (env/clock/RNG/globals/files) in stage code",
)

#: Top-level subpackages excluded from the call model: ``check`` is the
#: analyzer itself; ``obs`` is bit-identical by design (every API is a
#: no-op unless tracing is on, and traced runs equal untraced runs).
_EXCLUDED_PARTS = ("check", "obs")

#: Module stems exempt from CK003: the stage cache's file I/O *is* the
#: content-addressed boundary, not an ambient input.
_IMPURITY_EXEMPT_STEMS = ("cache",)

#: Wall-clock callables as (owner, attribute).
_CLOCK_CALLS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "strftime"), ("time", "localtime"),
    ("time", "gmtime"), ("time", "time_ns"), ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "today"), ("datetime", "utcnow"),
    ("date", "today"),
}

#: Shared-state ``random.*`` functions (the module-level global RNG).
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "getrandbits", "betavariate",
    "expovariate", "normalvariate", "seed",
}

#: Attribute calls that read files.
_FILE_READ_ATTRS = {"read_text", "read_bytes"}

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


@dataclass
class _FnInfo:
    """One analyzable function or method."""

    qualname: str              # "mod:func" or "mod:Cls.method"
    module: str
    cls: Optional[str]
    filename: str
    lineno: int
    node: ast.FunctionDef


@dataclass
class _ModuleInfo:
    """Per-module import tables and mutable module-level globals."""

    name: str
    filename: str
    source: str
    imports_mod: Dict[str, str] = field(default_factory=dict)
    imports_sym: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    mutable_globals: Dict[str, int] = field(default_factory=dict)


def _stage_eq(test: ast.expr) -> Optional[str]:
    """``stage == "name"`` comparisons in dispatch code."""
    if not isinstance(test, ast.Compare):
        return None
    if len(test.ops) != 1 or not isinstance(test.ops[0], ast.Eq):
        return None
    left, right = test.left, test.comparators[0]
    if isinstance(left, ast.Name) and left.id == "stage":
        if isinstance(right, ast.Constant) and isinstance(right.value, str):
            return right.value
    return None


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_FACTORIES
    return False


class _Model:
    """The whole-program call model the CK003 findings are computed from."""

    def __init__(self) -> None:
        self.modules: Dict[str, _ModuleInfo] = {}
        self.functions: Dict[str, _FnInfo] = {}
        self.by_bare: Dict[str, str] = {}
        #: class name -> method name -> function qualname.
        self.classes: Dict[str, Dict[str, str]] = {}
        #: stage -> (dispatching module, entry call in compute_stage).
        self.entries: Dict[str, Tuple[str, ast.Call]] = {}

    # -- declaration scan ----------------------------------------------

    def add_module(
        self, source: str, filename: str, modname: Optional[str] = None
    ) -> Optional[Finding]:
        """Parse one module and fold its declarations in."""
        name = modname if modname is not None else Path(filename).stem
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            return CK003.finding(
                f"{filename}:{exc.lineno or 0}",
                f"not parseable: {exc.msg}",
            )
        info = _ModuleInfo(name=name, filename=filename, source=source)
        self.modules[name] = info
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.imports_mod[alias.asname or alias.name] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                target = self._resolve_from(name, node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    info.imports_sym[local] = (target, alias.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if node.value is not None and _is_mutable_literal(
                    node.value
                ):
                    for target in targets:
                        if isinstance(target, ast.Name):
                            info.mutable_globals.setdefault(
                                target.id, node.lineno
                            )
            elif isinstance(node, ast.ClassDef):
                self._add_class(info, node)
            elif isinstance(node, ast.FunctionDef):
                self._add_function(info, node)
        return None

    @staticmethod
    def _resolve_from(module: str, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        parts = module.split(".")
        base = parts[:-node.level] if node.level <= len(parts) else []
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def _add_class(self, info: _ModuleInfo, node: ast.ClassDef) -> None:
        methods = self.classes.setdefault(node.name, {})
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            qualname = f"{info.name}:{node.name}.{item.name}"
            self.functions[qualname] = _FnInfo(
                qualname=qualname, module=info.name, cls=node.name,
                filename=info.filename, lineno=item.lineno, node=item,
            )
            methods.setdefault(item.name, qualname)

    def _add_function(
        self, info: _ModuleInfo, node: ast.FunctionDef
    ) -> None:
        qualname = f"{info.name}:{node.name}"
        self.functions[qualname] = _FnInfo(
            qualname=qualname, module=info.name, cls=None,
            filename=info.filename, lineno=node.lineno, node=node,
        )
        self.by_bare.setdefault(node.name, qualname)
        if node.name == "compute_stage":
            self._scan_dispatch(info, node)

    def _scan_dispatch(
        self, info: _ModuleInfo, fn: ast.FunctionDef
    ) -> None:
        """Extract per-stage entry calls from ``compute_stage``."""
        for node in ast.walk(fn):
            if not isinstance(node, ast.If):
                continue
            stage = _stage_eq(node.test)
            if stage is None:
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Return) and isinstance(
                        sub.value, ast.Call
                    ):
                        self.entries.setdefault(
                            stage, (info.name, sub.value)
                        )
                        break

    # -- call resolution -----------------------------------------------

    def _function(self, qualname: Optional[str]) -> Optional[_FnInfo]:
        if qualname is None:
            return None
        return self.functions.get(qualname)

    def _resolve_name(
        self, module: str, name: str
    ) -> Tuple[Optional[_FnInfo], Optional[str]]:
        """Resolve a bare-name call to (function, constructed class)."""
        local = self._function(f"{module}:{name}")
        if local is not None:
            return local, None
        mod = self.modules.get(module)
        if mod is not None and name in mod.imports_sym:
            tmod, sym = mod.imports_sym[name]
            target = self._function(f"{tmod}:{sym}")
            if target is not None:
                return target, None
            if sym in self.classes:
                ctor = self._function(self.classes[sym].get("__init__"))
                return ctor, sym
        if name in self.classes:
            ctor = self._function(self.classes[name].get("__init__"))
            if ctor is not None:
                return ctor, name
        return self._function(self.by_bare.get(name)), None

    def _local_class_bindings(self, info: _FnInfo) -> Dict[str, str]:
        """Locals bound to constructor calls: ``placer = Annealing...``."""
        out: Dict[str, str] = {}
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            fn = node.value.func
            if not isinstance(fn, ast.Name):
                continue
            _target, cls = self._resolve_name(info.module, fn.id)
            if cls is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.setdefault(target.id, cls)
        return out

    def _call_target(
        self,
        info: _FnInfo,
        call: ast.Call,
        bindings: Dict[str, str],
    ) -> Optional[_FnInfo]:
        """Resolve one call to the function it invokes, if known."""
        fn = call.func
        if isinstance(fn, ast.Name):
            return self._resolve_name(info.module, fn.id)[0]
        if not isinstance(fn, ast.Attribute):
            return None
        owner = fn.value
        if isinstance(owner, ast.Name):
            if owner.id == "self" and info.cls is not None:
                methods = self.classes.get(info.cls, {})
                return self._function(methods.get(fn.attr))
            if owner.id in bindings:
                methods = self.classes.get(bindings[owner.id], {})
                return self._function(methods.get(fn.attr))
            mod = self.modules.get(info.module)
            if mod is not None:
                alias = mod.imports_mod.get(owner.id)
                if alias is not None and alias in self.modules:
                    return self._function(f"{alias}:{fn.attr}")
                if owner.id in mod.imports_sym:
                    tmod, sym = mod.imports_sym[owner.id]
                    sub = f"{tmod}.{sym}" if tmod else sym
                    if sub in self.modules:
                        return self._function(f"{sub}:{fn.attr}")
        return None

    # -- reachability --------------------------------------------------

    def reachable_functions(self) -> List[_FnInfo]:
        """Functions reachable from any stage entry via resolvable
        calls (constructor calls reach ``__init__`` and any method
        invoked on a constructor-bound local)."""
        stack: List[_FnInfo] = []
        for stage in sorted(self.entries):
            module, call = self.entries[stage]
            dispatch = self.functions.get(f"{module}:compute_stage")
            if dispatch is None:
                continue
            callee = self._call_target(dispatch, call, {})
            if callee is not None:
                stack.append(callee)
        seen: Dict[str, _FnInfo] = {}
        while stack:
            info = stack.pop()
            if info.qualname in seen:
                continue
            seen[info.qualname] = info
            bindings = self._local_class_bindings(info)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = self._call_target(info, node, bindings)
                if callee is not None:
                    stack.append(callee)
        return sorted(
            seen.values(), key=lambda f: (f.filename, f.lineno)
        )

    # -- purity scan ---------------------------------------------------

    def _impure_sites(self, info: _FnInfo) -> List[Tuple[int, str]]:
        """Ambient-input reads inside one function body."""
        sites: List[Tuple[int, str]] = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr == "environ"
                ):
                    sites.append((node.lineno, "os.environ read"))
                continue
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Name):
                if fn.id == "open":
                    sites.append((node.lineno, "file I/O open()"))
                elif fn.id == "getenv":
                    sites.append((node.lineno, "os.getenv() read"))
                continue
            if not isinstance(fn, ast.Attribute):
                continue
            owner = fn.value
            owner_name = owner.id if isinstance(owner, ast.Name) else (
                owner.attr if isinstance(owner, ast.Attribute) else None
            )
            if owner_name == "os" and fn.attr == "getenv":
                sites.append((node.lineno, "os.getenv() read"))
            elif (
                owner_name is not None
                and (owner_name, fn.attr) in _CLOCK_CALLS
            ):
                sites.append((
                    node.lineno,
                    f"wall-clock {owner_name}.{fn.attr}()",
                ))
            elif owner_name == "random" and fn.attr in _GLOBAL_RANDOM_FNS:
                sites.append((
                    node.lineno, f"global RNG random.{fn.attr}()",
                ))
            elif fn.attr in _FILE_READ_ATTRS:
                sites.append((
                    node.lineno, f"file I/O .{fn.attr}()",
                ))
        return sites

    def _global_usage(
        self, info: _FnInfo
    ) -> Tuple[List[Tuple[str, int]], Set[str]]:
        """(mutable-global reads, mutable globals mutated) in ``info``."""
        mutable = self.modules[info.module].mutable_globals
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

    def _global_mutators(self) -> Dict[Tuple[str, str], Set[str]]:
        """(module, global) -> qualnames of functions that mutate it."""
        out: Dict[Tuple[str, str], Set[str]] = {}
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            if info.module not in self.modules:
                continue
            _reads, mutated = self._global_usage(info)
            for name in mutated:
                out.setdefault((info.module, name), set()).add(qualname)
        return out

    # -- findings ------------------------------------------------------

    def findings(self) -> List[Finding]:
        hits: List[Tuple[str, int, str, str]] = []
        if self.entries:
            self._find_impurity(hits)
        allowed_by_file = {
            info.filename: suppressed_lines(info.source)
            for info in self.modules.values()
        }
        findings: List[Finding] = []
        for filename, lineno, message, hint in sorted(hits):
            allowed = allowed_by_file.get(filename, {})
            if CK003.rule_id in allowed.get(lineno, ()):
                continue
            findings.append(CK003.finding(
                f"{filename}:{lineno}", message, fix_hint=hint,
            ))
        return findings

    def _find_impurity(self, hits: List[Tuple[str, int, str, str]]) -> None:
        mutators = self._global_mutators()
        for info in self.reachable_functions():
            stem = info.module.rsplit(".", 1)[-1]
            if stem in _IMPURITY_EXEMPT_STEMS:
                continue
            for lineno, detail in self._impure_sites(info):
                hits.append((
                    info.filename, lineno,
                    f"{detail} in stage-reachable {info.qualname}; "
                    f"ambient inputs are invisible to the stage cache "
                    f"key, so cached and fresh runs can diverge",
                    "thread the value through the stage's options slice "
                    "(which keys it), or justify with "
                    "# check: allow(CK003)",
                ))
            reads, own_mutations = self._global_usage(info)
            reported: Set[str] = set()
            for name, lineno in reads:
                if name in own_mutations or name in reported:
                    continue
                writers = mutators.get((info.module, name), set())
                if not writers - {info.qualname}:
                    continue
                reported.add(name)
                writer = sorted(writers - {info.qualname})[0]
                hits.append((
                    info.filename, lineno,
                    f"stage-reachable {info.qualname} reads mutable "
                    f"module global {name!r}, which {writer} mutates; "
                    f"its content is ambient state the stage key "
                    f"cannot see",
                    "capture the content in the stage key or justify "
                    "with # check: allow(CK003)",
                ))


def _module_name(path: Path, root: Path) -> str:
    try:
        relative = path.relative_to(root)
    except ValueError:
        return path.stem
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def _model_files(roots: List[Path]) -> List[Tuple[Path, str]]:
    out: List[Tuple[Path, str]] = []
    for root in roots:
        if root.is_file():
            out.append((root, root.stem))
            continue
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root)
            if any(
                part in _EXCLUDED_PARTS for part in relative.parts
            ):
                continue
            out.append((path, _module_name(path, root)))
    return out


def _build_model(paths: Optional[Iterable[Path]]) -> Tuple[
    _Model, List[Finding]
]:
    roots = [Path(p) for p in paths] if paths else [default_lint_root()]
    model = _Model()
    findings: List[Finding] = []
    for path, modname in _model_files(roots):
        source = path.read_text(encoding="utf-8")
        parse_error = model.add_module(source, str(path), modname)
        if parse_error is not None:
            findings.append(parse_error)
    return model, findings


def analyze_source(
    source: str, filename: str = "<string>"
) -> List[Finding]:
    """Run the CK003 analysis over one module's source text.

    Single-module fixtures must carry their own ``compute_stage``
    dispatch; the rule is whole-program, so a module without one yields
    no findings.
    """
    model = _Model()
    parse_error = model.add_module(source, filename)
    if parse_error is not None:
        return [parse_error]
    return model.findings()


def analyze_cache_keys(
    paths: Optional[Iterable[Path]] = None,
) -> List[Finding]:
    """Run the CK003 analysis whole-program over ``paths``.

    Defaults to the installed ``repro`` package, mirroring
    :func:`repro.check.selflint.lint_paths`; ``repro.check`` and
    ``repro.obs`` are excluded from the model by construction.
    """
    model, findings = _build_model(paths)
    findings.extend(model.findings())
    return findings


def stage_reachable_functions(
    paths: Optional[Iterable[Path]] = None,
) -> List[str]:
    """Qualnames (``module:Class.method``) of all stage-reachable code."""
    model, _findings = _build_model(paths)
    return [info.qualname for info in model.reachable_functions()]
