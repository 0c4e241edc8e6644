"""Guard: no code in ``src/repro`` that only its own tests call.

A reachability scan over the package's syntax trees.  It starts from
the program's real entry points: ``repro.cli`` (and ``python -m
repro``), the names in ``repro.__all__`` and ``repro.api.__all__``,
and every file under ``perfbench/``, ``benchmarks/`` and
``examples/``, plus the ``repro`` imports in the CI workflow's inline
scripts.  From there it follows name references: a reached function
or class reaches everything its body names, and a reached module runs
its top-level statements.  Tests are not callers.

Package ``__init__`` re-exports are bindings, not references: a name
reached through one counts only if a root asked for it.

A top-level function or class nothing reaches is either deleted or
put on :data:`ALLOWED` with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Definitions kept although no entry point reaches them.
ALLOWED = {
    "repro.profiling.temporal:temporal_locality":
        "paper-evidence analysis: reuse distance of hot blocks",
    "repro.profiling.temporal:summarize_gaps":
        "paper-evidence analysis: hot vs cold reuse gaps",
    "repro.profiling.temporal:TemporalStats":
        "paper-evidence analysis: summarize_gaps' result",
    "repro.analysis.figures:average_sdc_drop":
        "paper-evidence analysis: the Fig 9 average SDC drop",
    "repro.analysis.report:sdc_drop_percent":
        "paper-evidence analysis: one Fig 9 bar's SDC drop",
    "repro.profiling.miss_profile:object_miss_counts":
        "paper-evidence analysis: L1 misses per data object",
    "repro.obs.perfetto:render_chrome_trace":
        "test reference: sim_oracle.json pins its bytes",
    "repro.arch.config:fast_config":
        "test fixture: a small GPU that keeps simulations quick",
    "repro.obs.records:iter_records":
        "thin reader: lazy form of read_records",
    "repro.obs.summary:summarize_file":
        "thin reader: summarize_records of one telemetry file",
    "repro.obs.session:iter_session_events":
        "thin reader: lazy form of read_session_events",
    "repro.errors:UncorrectableFault":
        "error taxonomy: the uncorrectable-fault outcome's exception",
}

_ROOT_DIRS = ("perfbench", "benchmarks", "examples")
_CI = REPO / ".github" / "workflows" / "ci.yml"
_CI_IMPORT = re.compile(r"from\s+(repro[\w.]*)\s+import\s+([\w, ]+)")


class _Module:
    """One parsed module: its definitions and import bindings."""

    def __init__(self, name: str, tree: ast.Module, package: bool):
        self.name = name
        self.package = package
        self.defs: dict[str, ast.AST] = {}
        self.bindings: dict[str, tuple[str, str | None]] = {}
        self.body: list[ast.stmt] = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self.bindings.update(_bindings(node, self.base()))
            else:
                self.body.append(node)

    def base(self) -> str:
        """The package relative imports start from."""
        return self.name if self.package else self.name.rpartition(".")[0]


def _bindings(node, base: str) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module, attribute or None) of one import."""
    out = {}
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.asname:
                out[alias.asname] = (alias.name, None)
            else:
                top = alias.name.split(".")[0]
                out[top] = (top, None)
        return out
    module = node.module or ""
    if node.level:
        parts = base.split(".")
        parts = parts[:len(parts) - node.level + 1]
        module = ".".join(parts + ([module] if module else []))
    for alias in node.names:
        out[alias.asname or alias.name] = (module, alias.name)
    return out


def _load() -> dict[str, _Module]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        package = parts[-1] == "__init__"
        if package:
            parts.pop()
        name = ".".join(parts)
        modules[name] = _Module(name, ast.parse(path.read_text()), package)
    return modules


class _Scan:
    """Fixed point of the references reachable from the roots."""

    def __init__(self, modules: dict[str, _Module]):
        self.modules = modules
        self.reached: set[tuple[str, str]] = set()
        self.loaded: set[str] = set()
        self.queue: list[tuple[ast.AST, _Module | None]] = []

    def resolve(self, module: str, name: str, seen=()) -> None:
        """Reach whatever ``module.name`` denotes."""
        mod = self.modules.get(module)
        if mod is None or (module, name) in seen:
            return
        if name in mod.defs:
            self.load(module)
            if (module, name) not in self.reached:
                self.reached.add((module, name))
                self.queue.append((mod.defs[name], mod))
        elif name in mod.bindings:
            self.follow(mod.bindings[name], seen + ((module, name),))
        elif f"{module}.{name}" in self.modules:
            self.load(f"{module}.{name}")

    def follow(self, target: tuple[str, str | None], seen=()) -> None:
        module, attr = target
        if attr is None:
            self.load(module)
        else:
            self.resolve(module, attr, seen)

    def load(self, module: str) -> None:
        """Importing a module runs its top-level statements."""
        if module in self.loaded or module not in self.modules:
            return
        self.loaded.add(module)
        mod = self.modules[module]
        for stmt in mod.body:
            self.queue.append((stmt, mod))

    def lookup(self, name: str, mod: _Module | None, local: dict):
        """What a bare name denotes: (module, attr) or None."""
        if name in local:
            return local[name]
        if mod is not None:
            if name in mod.defs:
                return (mod.name, name)
            return mod.bindings.get(name)
        return None

    def walk(self, node: ast.AST, mod: _Module | None) -> None:
        """Follow every reference in ``node``; ``mod`` is None for a
        root file outside the package, whose imports are uses."""
        base = mod.base() if mod is not None else ""
        local = {}
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                local.update(_bindings(sub, base))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                target = self.lookup(sub.id, mod, local)
                if target is not None:
                    self.follow(target)
            elif isinstance(sub, ast.Attribute):
                self.attribute(sub, mod, local)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)) \
                    and mod is None:
                for target in _bindings(sub, base).values():
                    self.follow(target)

    def attribute(self, node: ast.Attribute, mod, local) -> None:
        """Reach ``pkg.sub.name`` chains rooted at an imported module."""
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return
        target = self.lookup(node.id, mod, local)
        if target is None:
            return
        module, attr = target
        if attr is not None:
            if f"{module}.{attr}" not in self.modules:
                return
            module = f"{module}.{attr}"
        for name in reversed(chain):
            if f"{module}.{name}" in self.modules:
                module = f"{module}.{name}"
                self.load(module)
            else:
                self.resolve(module, name)
                return

    def run(self) -> None:
        while self.queue:
            self.walk(*self.queue.pop())


def _all_names(mod: _Module) -> list[str]:
    for stmt in mod.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            return list(ast.literal_eval(stmt.value))
    return []


def unreached() -> list[str]:
    """``module:name`` of every top-level definition no root reaches."""
    modules = _load()
    scan = _Scan(modules)
    scan.load("repro.__main__")
    scan.resolve("repro.cli", "main")  # the console script
    for package in ("repro", "repro.api"):
        for name in _all_names(modules[package]):
            scan.resolve(package, name)
    for directory in _ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            scan.queue.append((ast.parse(path.read_text()), None))
    for module, names in _CI_IMPORT.findall(_CI.read_text()):
        for name in names.split(","):
            scan.resolve(module, name.strip())
    scan.run()
    return sorted(
        f"{mod.name}:{name}"
        for mod in modules.values() for name in mod.defs
        if (mod.name, name) not in scan.reached
    )


def test_every_definition_has_a_caller_outside_the_tests():
    found = unreached()
    extra = [name for name in found if name not in ALLOWED]
    assert not extra, (
        "reached only from tests (delete, or add to ALLOWED with a "
        f"reason): {extra}")
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"ALLOWED names now reached or gone: {stale}"
