"""Drift rules: the docs are contracts, so code and docs must agree.

``scripts/check_docs.py`` already proves the docs *run* (fences execute,
links resolve); these rules prove they are *true*, by parsing both sides
of each documented contract and diffing the sets:

* each framed server's ``OPS`` table keys  <->  the Operations table of its
  doc (daemon: docs/protocol.md; cache server: docs/remote-cache.md)
* event ``to_dict`` keys         <->  the catalogue table in docs/events.md
* ``MatchingConfig`` fields      <->  the config_digest section of docs/cache-keys.md
* CLI subcommands and flags      <->  README.md
* ``METRIC_CATALOG`` names       <->  the metric name catalog in docs/observability.md

Each rule locates its code module by path convention and skips silently
when that module is not part of the lint target (so fixture trees only
exercise the rules they stage); a present module with a missing doc is a
finding, not a skip.
"""

from __future__ import annotations

import ast
import re

from repro.lint.findings import Finding
from repro.lint.rules import ModuleContext, ProjectContext, ProjectRule

__all__ = [
    "ProtocolOpsRule",
    "EventFieldsRule",
    "ConfigDigestRule",
    "ReadmeFlagsRule",
    "MetricNamesRule",
]

_SNAKE_TOKEN = re.compile(r"`([a-z][a-z0-9_]*)`")
_METRIC_TOKEN = re.compile(r"`(repro_[a-z0-9_]+)`")
_EVENT_ROW = re.compile(r"^\|\s*`([A-Z][A-Za-z0-9]*)`\s*\|")
_OP_ROW = re.compile(r"^\|\s*`([a-z][a-z0-9_]*)`\s*\|")
_HEADING = re.compile(r"^#{1,6}\s")
_FLAG_TOKEN = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_INLINE_SPAN = re.compile(r"`([^`]{1,200}?)`")
_WORD = re.compile(r"^[a-z][a-z0-9-]*$")


def _section_lines(lines: list[str], heading_key: str):
    """Yield ``(lineno, line)`` for the section whose heading mentions key."""
    inside = False
    for lineno, line in enumerate(lines, start=1):
        if _HEADING.match(line):
            inside = heading_key in line
            continue
        if inside:
            yield lineno, line


def _dict_literal_keys(module: ModuleContext, name: str) -> dict[str, int]:
    """String key -> line of every ``<name> = {...}`` dict literal."""
    keys: dict[str, int] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Dict):
            continue
        if not any(isinstance(target, ast.Name) and target.id == name
                   for target in node.targets):
            continue
        for key in node.value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.setdefault(key.value, key.lineno)
    return keys


class ProtocolOpsRule(ProjectRule):
    """Each framed server's ``OPS`` table must match its doc's Operations table."""

    rule_id = "drift-protocol-ops"
    summary = ("each socket server's OPS table and the Operations table of "
               "its protocol doc must list the same operations")

    #: (server module, protocol doc) pairs, one per framed server.
    _SERVERS = (
        ("repro/service/daemon.py", "docs/protocol.md"),
        ("repro/cachenet/server.py", "docs/remote-cache.md"),
    )

    def check(self, project: ProjectContext) -> list[Finding]:
        findings: list[Finding] = []
        for server, doc in self._SERVERS:
            findings.extend(self._check_server(project, server, doc))
        return findings

    def _check_server(self, project: ProjectContext, server: str,
                      doc_path: str) -> list[Finding]:
        module = project.module(server)
        if module is None:
            return []
        code_ops = _dict_literal_keys(module, "OPS")
        if not code_ops:
            return []
        doc = project.read_doc(doc_path)
        if doc is None:
            return [self.finding(
                module.relpath, 1,
                f"{server} serves ops but {doc_path} does not exist",
            )]
        _, doc_lines = doc
        doc_ops: dict[str, int] = {}
        for lineno, line in _section_lines(doc_lines, "Operations"):
            match = _OP_ROW.match(line.strip())
            if match:
                doc_ops.setdefault(match.group(1), lineno)
        findings: list[Finding] = []
        for op in sorted(set(code_ops) - set(doc_ops)):
            findings.append(self.finding(
                module.relpath, code_ops[op],
                f"{server} serves op {op!r} but the {doc_path} Operations "
                "table does not document it",
            ))
        for op in sorted(set(doc_ops) - set(code_ops)):
            findings.append(self.finding(
                doc_path, doc_ops[op],
                f"{doc_path} documents op {op!r} but the {server} OPS "
                "table does not handle it",
            ))
        return findings


class EventFieldsRule(ProjectRule):
    """Event ``to_dict`` keys must match the docs/events.md catalogue."""

    rule_id = "drift-event-fields"
    summary = ("event dataclass wire fields and the docs/events.md "
               "catalogue table must agree, event by event")

    _EVENTS = "repro/service/events.py"
    _DOC = "docs/events.md"

    def check(self, project: ProjectContext) -> list[Finding]:
        module = project.module(self._EVENTS)
        if module is None:
            return []
        code_events = self._code_events(module)
        if not code_events:
            return []
        doc = project.read_doc(self._DOC)
        if doc is None:
            return [self.finding(
                self._EVENTS, 1,
                f"event classes exist but {self._DOC} does not exist",
            )]
        _, doc_lines = doc
        doc_events = self._doc_events(doc_lines)
        findings: list[Finding] = []
        for name in sorted(set(code_events) - set(doc_events)):
            fields, lineno = code_events[name]
            findings.append(self.finding(
                module.relpath, lineno,
                f"event {name} is not documented in the {self._DOC} "
                "catalogue table",
            ))
        for name in sorted(set(doc_events) - set(code_events)):
            _, lineno = doc_events[name]
            findings.append(self.finding(
                self._DOC, lineno,
                f"{self._DOC} documents event {name} but no event class "
                "serialises under that name",
            ))
        for name in sorted(set(code_events) & set(doc_events)):
            code_fields, _ = code_events[name]
            doc_fields, lineno = doc_events[name]
            missing = code_fields - doc_fields
            extra = doc_fields - code_fields
            if not missing and not extra:
                continue
            parts = []
            if missing:
                parts.append("missing " + ", ".join(sorted(missing)))
            if extra:
                parts.append("listing unknown " + ", ".join(sorted(extra)))
            findings.append(self.finding(
                self._DOC, lineno,
                f"catalogue row for {name} drifted from to_dict(): "
                + "; ".join(parts),
            ))
        return findings

    @staticmethod
    def _code_events(module: ModuleContext):
        """Event name -> (wire field set, line) from to_dict dict literals."""
        events: dict[str, tuple[frozenset[str], int]] = {}
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            for method in class_node.body:
                if (not isinstance(method, ast.FunctionDef)
                        or method.name != "to_dict"):
                    continue
                for node in ast.walk(method):
                    if (not isinstance(node, ast.Return)
                            or not isinstance(node.value, ast.Dict)):
                        continue
                    keys = {
                        key.value for key in node.value.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    }
                    if "event" not in keys:
                        continue
                    fields = frozenset(keys - {"event"})
                    if fields:
                        events[class_node.name] = (fields, class_node.lineno)
        return events

    @staticmethod
    def _doc_events(doc_lines: list[str]):
        """Event name -> (documented field set, line) from table rows."""
        events: dict[str, tuple[frozenset[str], int]] = {}
        for lineno, line in enumerate(doc_lines, start=1):
            match = _EVENT_ROW.match(line.strip())
            if match is None:
                continue
            rest = line.strip()[match.end():]
            fields = frozenset(_SNAKE_TOKEN.findall(rest))
            events.setdefault(match.group(1), (fields, lineno))
        return events


class ConfigDigestRule(ProjectRule):
    """MatchingConfig fields must match the documented digest coverage."""

    rule_id = "drift-config-digest"
    summary = ("MatchingConfig fields and the config_digest section of "
               "docs/cache-keys.md must list the same policy knobs")

    _ENGINE = "repro/core/engine.py"
    _DOC = "docs/cache-keys.md"

    # Backticked snake_case vocabulary in the section that is prose, not
    # field names.  Anything else lowercase-backticked must be a field.
    _NON_FIELDS = frozenset({"config_digest", "pair_key", "asdict"})

    def check(self, project: ProjectContext) -> list[Finding]:
        module = project.module(self._ENGINE)
        if module is None:
            return []
        fields = self._config_fields(module)
        if fields is None:
            return []
        field_names, class_line = fields
        doc = project.read_doc(self._DOC)
        if doc is None:
            return [self.finding(
                self._ENGINE, class_line,
                f"MatchingConfig exists but {self._DOC} does not exist",
            )]
        _, doc_lines = doc
        doc_tokens: dict[str, int] = {}
        section_line = None
        for lineno, line in _section_lines(doc_lines, "config_digest"):
            if section_line is None:
                section_line = lineno
            for token in _SNAKE_TOKEN.findall(line):
                if token not in self._NON_FIELDS:
                    doc_tokens.setdefault(token, lineno)
        if section_line is None:
            return [self.finding(
                self._ENGINE, class_line,
                f"{self._DOC} has no config_digest section documenting "
                "the digest coverage",
            )]
        findings: list[Finding] = []
        for name in sorted(field_names - set(doc_tokens)):
            findings.append(self.finding(
                self._DOC, section_line,
                f"MatchingConfig field {name!r} reaches config_digest but "
                "the coverage list does not mention it",
            ))
        for name in sorted(set(doc_tokens) - field_names):
            findings.append(self.finding(
                self._DOC, doc_tokens[name],
                f"config_digest coverage mentions {name!r} but "
                "MatchingConfig has no such field",
            ))
        return findings

    @staticmethod
    def _config_fields(module: ModuleContext):
        for class_node in ast.walk(module.tree):
            if (isinstance(class_node, ast.ClassDef)
                    and class_node.name == "MatchingConfig"):
                names = frozenset(
                    node.target.id for node in class_node.body
                    if isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                )
                return names, class_node.lineno
        return None


class MetricNamesRule(ProjectRule):
    """METRIC_CATALOG names must match the documented metric catalog."""

    rule_id = "drift-metric-names"
    summary = ("METRIC_CATALOG metric names and the metric name catalog "
               "in docs/observability.md must list the same series")

    _METRICS = "repro/obs/metrics.py"
    _DOC = "docs/observability.md"
    _SECTION = "Metric name catalog"

    def check(self, project: ProjectContext) -> list[Finding]:
        module = project.module(self._METRICS)
        if module is None:
            return []
        code_names = _dict_literal_keys(module, "METRIC_CATALOG")
        if not code_names:
            return []
        doc = project.read_doc(self._DOC)
        if doc is None:
            return [self.finding(
                module.relpath, 1,
                f"METRIC_CATALOG declares metrics but {self._DOC} does "
                "not exist",
            )]
        _, doc_lines = doc
        doc_names: dict[str, int] = {}
        section_seen = False
        for lineno, line in _section_lines(doc_lines, self._SECTION):
            section_seen = True
            for token in _METRIC_TOKEN.findall(line):
                doc_names.setdefault(token, lineno)
        if not section_seen:
            return [self.finding(
                self._DOC, 1,
                f"{self._DOC} has no '{self._SECTION}' section to diff "
                "METRIC_CATALOG against",
            )]
        findings: list[Finding] = []
        for name in sorted(set(code_names) - set(doc_names)):
            findings.append(self.finding(
                module.relpath, code_names[name],
                f"metric {name!r} is in METRIC_CATALOG but the {self._DOC} "
                "catalog table does not list it",
            ))
        for name in sorted(set(doc_names) - set(code_names)):
            findings.append(self.finding(
                self._DOC, doc_names[name],
                f"{self._DOC} lists metric {name!r} but METRIC_CATALOG "
                "does not declare it",
            ))
        return findings


class ReadmeFlagsRule(ProjectRule):
    """README commands must exist; registered subcommands must be shown."""

    rule_id = "drift-readme-flags"
    summary = ("every repro subcommand/flag the README shows must be "
               "registered, and every subcommand must appear in the README")

    _CLI = "repro/cli.py"
    _DOC = "README.md"

    def check(self, project: ProjectContext) -> list[Finding]:
        module = project.module(self._CLI)
        if module is None:
            return []
        subcommands, flags = self._registered(module)
        if not subcommands:
            return []
        doc = project.read_doc(self._DOC)
        if doc is None:
            return [self.finding(
                module.relpath, 1,
                f"the CLI registers subcommands but {self._DOC} does not "
                "exist",
            )]
        text, lines = doc
        doc_subs, doc_flags = self._mentions(text, lines)
        findings: list[Finding] = []
        for name in sorted(set(doc_subs) - set(subcommands)):
            findings.append(self.finding(
                self._DOC, doc_subs[name],
                f"README shows `repro {name}` but the CLI registers no "
                "such subcommand",
            ))
        for flag in sorted(set(doc_flags) - set(flags)):
            findings.append(self.finding(
                self._DOC, doc_flags[flag],
                f"README mentions {flag} but no CLI parser registers it",
            ))
        for name in sorted(set(subcommands) - set(doc_subs)):
            findings.append(self.finding(
                module.relpath, subcommands[name],
                f"subcommand `repro {name}` is registered but the README "
                "never shows it",
            ))
        return findings

    @staticmethod
    def _registered(module: ModuleContext):
        subcommands: dict[str, int] = {}
        flags: dict[str, int] = {}
        for node in ast.walk(module.tree):
            if (not isinstance(node, ast.Call)
                    or not isinstance(node.func, ast.Attribute)):
                continue
            if (node.func.attr == "add_parser" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                subcommands.setdefault(node.args[0].value, node.lineno)
            elif node.func.attr == "add_argument":
                for arg in node.args:
                    if (isinstance(arg, ast.Constant)
                            and isinstance(arg.value, str)
                            and arg.value.startswith("--")):
                        flags.setdefault(arg.value, node.lineno)
        return subcommands, flags

    @classmethod
    def _mentions(cls, text: str, lines: list[str]):
        """Subcommand/flag -> first README line mentioning it."""
        doc_subs: dict[str, int] = {}
        doc_flags: dict[str, int] = {}

        def note_command(command: str, lineno: int) -> None:
            tokens = command.split()
            if len(tokens) >= 2 and tokens[0] == "repro":
                if _WORD.match(tokens[1]):
                    doc_subs.setdefault(tokens[1], lineno)
            for flag in _FLAG_TOKEN.findall(command):
                doc_flags.setdefault(flag, lineno)

        # Pass one: fenced shell blocks — only `repro ...` command lines
        # (plus their backslash continuations) count; a pytest or python
        # invocation in a fence is not a repro CLI contract.
        in_fence = False
        continuing = False
        stripped_lines: list[str] = []
        for lineno, line in enumerate(lines, start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continuing = False
                stripped_lines.append("")
                continue
            if not in_fence:
                stripped_lines.append(line)
                continue
            stripped_lines.append("")
            command = line.strip()
            if command.startswith("$ "):
                command = command[2:]
            if continuing or command.startswith("repro "):
                note_command(command.rstrip("\\").strip(), lineno)
                continuing = command.endswith("\\")

        # Pass two: inline code spans in the prose (fences blanked above
        # so a span regex cannot leak across block boundaries).  Spans
        # may wrap across a newline; anchor at the span's first line.
        prose = "\n".join(stripped_lines)
        for match in _INLINE_SPAN.finditer(prose):
            lineno = prose.count("\n", 0, match.start()) + 1
            note_command(match.group(1).replace("\n", " ").strip(), lineno)
        return doc_subs, doc_flags
