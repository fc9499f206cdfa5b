"""Project-specific static analysis for the repro codebase.

An AST checker enforcing the invariants generic linters cannot know
about:

* **Determinism** — cache keys, probe digests, manifests, and serialised
  records must be bit-identical across processes and machines, so the
  modules that produce them may not consult ambient entropy, wall
  clocks, hash order, directory order, or ``id()``.
* **Lock coverage** — classes that own a ``threading`` lock must use it
  consistently, and thread-entry code may not mutate shared state
  outside it.
* **Drift** — the contracts written down in ``docs/`` and the README
  (daemon ops, event wire fields, ``config_digest`` coverage, CLI
  surface) must match the code that implements them, and every public
  name must have a user outside ``tests/``.

Run it as ``repro lint`` or ``python -m repro.lint``.  See
``docs/lint.md`` for the rule catalog, the ``# repro: allow[rule-id]``
suppression idiom, and the baseline workflow.
"""

from __future__ import annotations

from repro.lint.findings import Finding, load_baseline, write_baseline
from repro.lint.rules import (
    LintRule,
    ModuleContext,
    ModuleRule,
    ProjectContext,
    ProjectRule,
)
from repro.lint.runner import (
    RULES,
    LintReport,
    collect_files,
    lint_project,
    render,
    render_json,
    render_text,
)

__all__ = [
    "Finding",
    "LintRule",
    "LintReport",
    "ModuleContext",
    "ModuleRule",
    "ProjectContext",
    "ProjectRule",
    "RULES",
    "collect_files",
    "lint_project",
    "load_baseline",
    "render",
    "render_json",
    "render_text",
    "write_baseline",
]
