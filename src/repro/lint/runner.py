"""Collect files, run the registry, apply suppressions and the baseline.

The runner is deliberately thin: rules produce findings, the runner
subtracts ``# repro: allow[...]`` suppressions and baseline fingerprints,
and what remains is *new* — the only thing the CI gate looks at.  Exit
semantics live here too: :func:`LintReport.exit_code` is 0 exactly when
no new findings exist, so ``repro lint`` composes with CI without flag
soup.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import LintError
from repro.lint.determinism import (
    IdentityKeyRule,
    NonAtomicPublishRule,
    UnseededRandomRule,
    UnsortedIterationRule,
    UnsortedListingRule,
    WallClockRule,
)
from repro.lint.drift import (
    ConfigDigestRule,
    EventFieldsRule,
    MetricNamesRule,
    ProtocolOpsRule,
    ReadmeFlagsRule,
)
from repro.lint.findings import Finding, load_baseline, suppressed_rules
from repro.lint.locks import ThreadEntryMutationRule, UnguardedAttrRule
from repro.lint.rules import (
    LintRegistry,
    ModuleContext,
    ModuleRule,
    ProjectContext,
)

__all__ = [
    "default_registry",
    "collect_files",
    "lint_project",
    "LintReport",
    "render_text",
    "render_json",
    "REPORT_FORMAT",
]

REPORT_FORMAT = "repro-lint/v1"

_SOURCE_SUBDIR = Path("src") / "repro"


def default_registry() -> LintRegistry:
    """The stock rule set: determinism, lock coverage, and drift."""
    return LintRegistry((
        UnseededRandomRule(),
        WallClockRule(),
        UnsortedIterationRule(),
        UnsortedListingRule(),
        IdentityKeyRule(),
        NonAtomicPublishRule(),
        UnguardedAttrRule(),
        ThreadEntryMutationRule(),
        ProtocolOpsRule(),
        EventFieldsRule(),
        ConfigDigestRule(),
        ReadmeFlagsRule(),
        MetricNamesRule(),
    ))


def collect_files(root: Path) -> list[Path]:
    """Every Python module under ``<root>/src/repro``, in sorted order."""
    source_root = root / _SOURCE_SUBDIR
    if not source_root.is_dir():
        raise LintError(
            f"{root} has no {_SOURCE_SUBDIR} tree to lint; pass --root or "
            "explicit paths"
        )
    return sorted(source_root.rglob("*.py"))


@dataclass
class LintReport:
    """Everything one lint run learned, ready to render or gate on."""

    root: Path
    files: int
    rules: int
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0

    @property
    def new_findings(self) -> list[Finding]:
        return [finding for finding in self.findings if not finding.baselined]

    @property
    def baselined_findings(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.baselined]

    @property
    def exit_code(self) -> int:
        return 0 if not self.new_findings else 1


def lint_project(
    root: Path,
    registry: LintRegistry | None = None,
    baseline: frozenset[str] | None = None,
    paths: list[Path] | None = None,
) -> LintReport:
    """Lint ``paths`` (default: the ``src/repro`` tree under ``root``)."""
    root = Path(root)
    registry = registry if registry is not None else default_registry()
    files = [Path(p) for p in paths] if paths is not None else (
        collect_files(root)
    )
    modules = [ModuleContext.parse(path, root) for path in files]
    project = ProjectContext(root=root, modules=modules)

    raw: list[Finding] = []
    for module in modules:
        for rule in registry.module_rules():
            if rule.applies_to(module):
                raw.extend(rule.check(module))
    for rule in registry.project_rules():
        raw.extend(rule.check(project))

    module_lines = {module.relpath: module.lines for module in modules}
    baseline = baseline if baseline is not None else frozenset()
    kept: list[Finding] = []
    suppressed = 0
    for finding in raw:
        lines = _lines_for(root, finding.path, module_lines)
        if finding.rule in suppressed_rules(lines, finding.line):
            suppressed += 1
            continue
        if finding.fingerprint in baseline:
            finding = dataclasses.replace(finding, baselined=True)
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return LintReport(
        root=root,
        files=len(files),
        rules=len(registry),
        findings=kept,
        suppressed=suppressed,
    )


def _lines_for(root: Path, relpath: str,
               module_lines: dict[str, list[str]]) -> list[str]:
    if relpath in module_lines:
        return module_lines[relpath]
    path = root / relpath
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return []


def render_text(report: LintReport) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines = []
    for finding in report.findings:
        marker = " [baselined]" if finding.baselined else ""
        lines.append(
            f"{finding.location()}: {finding.rule}: "
            f"{finding.message}{marker}"
        )
    new = len(report.new_findings)
    lines.append(
        f"checked {report.files} files against {report.rules} rules: "
        f"{new} new finding{'s' if new != 1 else ''}, "
        f"{len(report.baselined_findings)} baselined, "
        f"{report.suppressed} suppressed"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> dict:
    """Machine-readable report (the CI artifact)."""
    return {
        "format": REPORT_FORMAT,
        "root": str(report.root),
        "files": report.files,
        "rules": report.rules,
        "new": len(report.new_findings),
        "baselined": len(report.baselined_findings),
        "suppressed": report.suppressed,
        "findings": [finding.to_dict() for finding in report.findings],
    }


def render(report: LintReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(render_json(report), indent=2)
    return render_text(report)
