"""Drift rules: the docs are contracts, so code and docs must agree.

``scripts/check_docs.py`` already proves the docs *run* (fences execute,
links resolve); these rules prove they are *true*, by parsing both sides
of each documented contract and diffing the sets:

* each framed server's ``OPS`` table keys  <->  the Operations table of its
  doc (daemon: docs/protocol.md; cache server: docs/remote-cache.md)
* event dataclass wire fields    <->  the catalogue table in docs/events.md
* ``MatchingConfig`` fields      <->  the config_digest section of docs/cache-keys.md
* CLI subcommands and flags      <->  README.md
* ``METRIC_CATALOG`` names       <->  the metric name catalog in docs/observability.md
* public ``src/repro`` names     <->  a use outside ``tests/`` (source, examples,
  benchmarks, perfbench, scripts, docs or the README)

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
    "OnlyTestedApiRule",
]

_SNAKE_TOKEN = re.compile(r"`([a-z][a-z0-9_]*)`")
_METRIC_TOKEN = re.compile(r"`(repro_[a-z0-9_]+)`")
_EVENT_ROW = re.compile(r"^\|\s*`([A-Z][A-Za-z0-9]*)`\s*\|")
_OP_ROW = re.compile(r"^\|\s*`([a-z][a-z0-9_]*)`\s*\|")
_HEADING = re.compile(r"^#{1,6}\s")
_FLAG_TOKEN = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_INLINE_SPAN = re.compile(r"`([^`]{1,200}?)`")
_WORD = re.compile(r"^[a-z][a-z0-9-]*$")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
    """Event wire fields must match the docs/events.md catalogue."""

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
                f"catalogue row for {name} drifted from its wire fields: "
                + "; ".join(parts),
            ))
        return findings

    @staticmethod
    def _code_events(module: ModuleContext):
        """Event name -> (wire field set, line) from the event dataclasses.

        An event is a ``ServiceEvent`` subclass; its wire fields are the
        annotated fields of its lineage, and a field annotated with
        another class of the module is flattened into that class's wire
        fields (``RunCompleted`` sends its ``RunTotals`` report's).
        """
        classes = {
            node.name: node for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }

        def lineage(name: str) -> list[ast.ClassDef]:
            bases = [base.id for base in classes[name].bases
                     if isinstance(base, ast.Name) and base.id in classes]
            inherited = [link for base in bases for link in lineage(base)]
            return inherited + [classes[name]]

        def wire_fields(name: str) -> frozenset[str]:
            names: set[str] = set()
            for node in lineage(name):
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        nested = getattr(stmt.annotation, "id", None)
                        names |= (wire_fields(nested) if nested in classes
                                  else {stmt.target.id})
            return frozenset(names)

        events: dict[str, tuple[frozenset[str], int]] = {}
        for name, node in classes.items():
            fields = wire_fields(name)
            if fields and any(link.name == "ServiceEvent"
                              for link in lineage(name)):
                events[name] = (fields, node.lineno)
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


class OnlyTestedApiRule(ProjectRule):
    """A public ``src/repro`` name must have a user outside ``tests/``.

    Names are matched as words, so a method counts as used wherever any
    attribute of that name is read.  In ``src/`` a use is a load of the
    name or an identifier string, outside the definition's own body;
    ``__all__`` entries and ``from ... import`` re-exports are not uses.
    """

    rule_id = "drift-test-only-api"
    summary = ("a public function, method or class under src/repro that "
               "tests/ use but no source module, example, benchmark, "
               "perfbench workload, script or doc does")

    _SOURCE = "src/repro/"
    _TESTS = ("tests",)
    _USERS = ("examples", "benchmarks", "perfbench", "scripts", "docs",
              "README.md")
    _TEXT_SUFFIXES = frozenset({".py", ".md", ".json"})

    def check(self, project: ProjectContext) -> list[Finding]:
        tested = self._words(project, self._TESTS)
        if not tested:
            return []
        used = self._words(project, self._USERS)
        sources = [module for module in project.modules
                   if module.relpath.startswith(self._SOURCE)]
        uses: dict[str, list[tuple[str, int]]] = {}
        for module in sources:
            for name, line in _source_uses(module.tree):
                uses.setdefault(name, []).append((module.relpath, line))
        findings: list[Finding] = []
        for module in sources:
            for qualname, node in _public_definitions(module.tree):
                if node.name not in tested or node.name in used:
                    continue
                if any(path != module.relpath
                       or not node.lineno <= line <= node.end_lineno
                       for path, line in uses.get(node.name, ())):
                    continue
                anchor = min([node.lineno] + [decorator.lineno for decorator
                                              in node.decorator_list])
                findings.append(self.finding(
                    module.relpath, anchor,
                    f"{qualname} is public but only tests/ use it: delete "
                    "it, move it into the tests, or allow it with a reason",
                ))
        return findings

    @classmethod
    def _words(cls, project: ProjectContext,
               tops: tuple[str, ...]) -> frozenset[str]:
        """Every identifier-shaped word in the text files under ``tops``."""
        words: set[str] = set()
        for top in tops:
            path = project.root / top
            files = sorted(path.rglob("*")) if path.is_dir() else [path]
            for file in files:
                if file.suffix in cls._TEXT_SUFFIXES and file.is_file():
                    words.update(_IDENTIFIER.findall(
                        file.read_text(encoding="utf-8", errors="replace")))
        return frozenset(words)


def _public_definitions(tree: ast.Module):
    """``(qualname, node)`` for each public top-level def, class and method."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        qualname = prefix + node.name
        yield qualname, node
        if isinstance(node, ast.ClassDef):
            stack.extend((qualname + ".", child) for child in node.body)


def _source_uses(tree: ast.Module):
    """``(name, line)`` for each use of a name inside one source module."""
    exported = {
        node for stmt in tree.body if _assigns_all(stmt)
        for node in ast.walk(stmt)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and node not in exported):
            yield node.value, node.lineno


def _assigns_all(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` assigns or extends ``__all__``."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in targets)
