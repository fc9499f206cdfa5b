"""Rule plumbing for the lint subsystem.

Rules are small classes with a stable ``rule_id``; the runner iterates
its ``RULES`` tuple.

Two rule kinds exist.  A :class:`ModuleRule` sees one parsed module at a
time (an AST with parent pointers) and is scoped — determinism rules only
apply to the modules that feed fingerprints, keys, and serialised output.
A :class:`ProjectRule` sees the whole tree and cross-checks code against
the contracts written down in ``docs/``.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import LintError
from repro.lint.findings import Finding

__all__ = [
    "ModuleContext",
    "ProjectContext",
    "LintRule",
    "ModuleRule",
    "ProjectRule",
    "SCOPE_PATHS",
]

# Which modules each named scope covers, as posix-path suffixes relative to
# the lint root.  ``determinism`` is the set of modules whose output feeds
# cache keys, digests, manifests, or persisted records; ``publish`` is the
# set that writes files other processes read back.
SCOPE_PATHS: dict[str, tuple[str, ...]] = {
    "determinism": (
        "repro/service/fingerprint.py",
        "repro/service/serialize.py",
        "repro/service/workload.py",
        "repro/service/cache.py",
    ),
    "publish": (
        "repro/service/cache.py",
        "repro/service/workload.py",
        "repro/service/pipeline.py",
    ),
}

# Fixture files (and out-of-tree code) opt into a scope explicitly with a
# marker comment near the top of the file, e.g. ``# repro-lint: scope=determinism``.
_SCOPE_MARKER = "# repro-lint: scope="
_SCOPE_MARKER_WINDOW = 10


@dataclass
class ModuleContext:
    """One parsed module: source, AST with parent pointers, and scopes."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: list[str] = field(init=False)
    _parents: dict[ast.AST, ast.AST] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.lines = self.source.splitlines()
        self._parents = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node

    @classmethod
    def parse(cls, path: Path, root: Path) -> "ModuleContext":
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"cannot parse {path}: {exc}") from exc
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        return cls(path=path, relpath=relpath, source=source, tree=tree)

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST):
        """Yield enclosing nodes from the immediate parent outwards."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    @property
    def scopes(self) -> frozenset[str]:
        """Scopes this module opts into via marker comments."""
        declared: set[str] = set()
        for line in self.lines[:_SCOPE_MARKER_WINDOW]:
            stripped = line.strip()
            if stripped.startswith(_SCOPE_MARKER):
                spec = stripped[len(_SCOPE_MARKER):]
                declared.update(
                    token.strip() for token in spec.split(",") if token.strip()
                )
        return frozenset(declared)


@dataclass
class ProjectContext:
    """The whole lint target: the root directory plus its parsed modules."""

    root: Path
    modules: list[ModuleContext]

    def module(self, suffix: str) -> ModuleContext | None:
        """Find the parsed module whose path ends with ``suffix``, if any."""
        for ctx in self.modules:
            if ctx.relpath.endswith(suffix):
                return ctx
        return None

    def read_doc(self, relpath: str) -> tuple[str, list[str]] | None:
        """Read a text file under the root; None when it does not exist."""
        path = self.root / relpath
        if not path.is_file():
            return None
        text = path.read_text(encoding="utf-8")
        return text, text.splitlines()


class LintRule(ABC):
    """Base class for every rule; subclasses set id, summary, and scope."""

    rule_id: str = ""
    summary: str = ""
    scope: str | None = None

    def finding(self, relpath: str, line: int, message: str) -> Finding:
        return Finding(rule=self.rule_id, path=relpath, line=line,
                       message=message)


class ModuleRule(LintRule):
    """A rule that inspects one module's AST at a time."""

    def applies_to(self, ctx: ModuleContext) -> bool:
        if self.scope is None:
            return True
        if self.scope in ctx.scopes:
            return True
        suffixes = SCOPE_PATHS.get(self.scope, ())
        return any(ctx.relpath.endswith(suffix) for suffix in suffixes)

    @abstractmethod
    def check(self, ctx: ModuleContext) -> list[Finding]:
        """Return findings for one module."""


class ProjectRule(LintRule):
    """A rule that cross-checks the whole tree (code against docs)."""

    @abstractmethod
    def check(self, project: ProjectContext) -> list[Finding]:
        """Return findings for the project."""

