"""Self-tests for the drift rule family, including deliberate desync.

The ``drift_bad`` fixture tree stages every drift direction at once;
``drift_good`` is the same tree with the contracts in agreement.  The
desync tests then take the *real* ``daemon.py`` (or cache
``server.py``) and a doctored protocol doc and prove the rules catch
live divergence — the acceptance scenario for the whole family.
"""

from __future__ import annotations

import shutil

from repro.lint import lint_project

from tests.lint.conftest import FIXTURES, REPO_ROOT


DAEMON_PATHS = {"src/repro/service/daemon.py", "docs/protocol.md"}
CACHE_PATHS = {"src/repro/cachenet/server.py", "docs/remote-cache.md"}


def _drift_findings(root, rule, paths=None):
    report = lint_project(root)
    return [f for f in report.findings
            if f.rule == rule and (paths is None or f.path in paths)]


class TestDriftBadTree:
    def test_protocol_ops_both_directions(self):
        findings = _drift_findings(FIXTURES / "drift_bad", "drift-protocol-ops")
        assert len(findings) == 4
        assert {f.path for f in findings} == DAEMON_PATHS | CACHE_PATHS
        daemon = "\n".join(f.message for f in findings if f.path in DAEMON_PATHS)
        assert "'flush'" in daemon and "does not document" in daemon
        assert "'halt'" in daemon and "does not handle" in daemon

    def test_cache_protocol_ops_both_directions(self):
        findings = _drift_findings(
            FIXTURES / "drift_bad", "drift-protocol-ops", CACHE_PATHS
        )
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 2
        assert "'evict'" in messages and "does not document" in messages
        assert "'purge'" in messages and "does not handle" in messages

    def test_event_fields_all_three_shapes(self):
        findings = _drift_findings(FIXTURES / "drift_bad", "drift-event-fields")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 3
        # a drifted row, an undocumented event, and a phantom doc row
        assert "TaskDone" in messages and "missing record" in messages
        assert "listing unknown error" in messages
        assert "TaskSkipped is not documented" in messages
        assert "TaskGone" in messages and "no event class" in messages

    def test_config_digest_both_directions(self):
        findings = _drift_findings(FIXTURES / "drift_bad", "drift-config-digest")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 2
        assert "'probe_count'" in messages and "does not mention" in messages
        assert "'max_queries'" in messages and "no such field" in messages

    def test_readme_flags_all_three_shapes(self):
        findings = _drift_findings(FIXTURES / "drift_bad", "drift-readme-flags")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 3
        assert "--turbo" in messages
        assert "`repro vanish`" in messages
        assert "`repro ghost`" in messages and "never shows" in messages


class TestDriftGoodTree:
    def test_no_drift_findings_at_all(self):
        report = lint_project(FIXTURES / "drift_good")
        assert [f for f in report.findings if f.rule.startswith("drift-")] == []


class TestDeliberateDesyncAgainstRealCode:
    """Doctor the real contracts and prove the rules notice."""

    def _stage(self, tmp_path):
        service = tmp_path / "src" / "repro" / "service"
        service.mkdir(parents=True)
        docs = tmp_path / "docs"
        docs.mkdir()
        shutil.copy(
            REPO_ROOT / "src" / "repro" / "service" / "daemon.py",
            service / "daemon.py",
        )
        return docs / "protocol.md"

    def test_real_daemon_against_doctored_protocol_doc(self, tmp_path):
        doc = self._stage(tmp_path)
        original = (REPO_ROOT / "docs" / "protocol.md").read_text(
            encoding="utf-8"
        )
        # Drop `stats` from the table and document a phantom `reboot`.
        doctored = original.replace(
            "| `stats` |", "| `reboot` |", 1
        )
        assert doctored != original
        doc.write_text(doctored, encoding="utf-8")
        findings = _drift_findings(tmp_path, "drift-protocol-ops")
        messages = "\n".join(f.message for f in findings)
        assert "'stats'" in messages and "does not document" in messages
        assert "'reboot'" in messages and "does not handle" in messages

    def test_real_daemon_against_the_real_protocol_doc_is_clean(self, tmp_path):
        doc = self._stage(tmp_path)
        shutil.copy(REPO_ROOT / "docs" / "protocol.md", doc)
        assert _drift_findings(tmp_path, "drift-protocol-ops") == []

    def test_markdown_suppression_silences_a_doc_side_finding(self, tmp_path):
        doc = self._stage(tmp_path)
        original = (REPO_ROOT / "docs" / "protocol.md").read_text(
            encoding="utf-8"
        )
        doctored = original.replace(
            "| `stats` |",
            "<!-- repro: allow[drift-protocol-ops] -->\n| `reboot` |",
            1,
        )
        doc.write_text(doctored, encoding="utf-8")
        findings = _drift_findings(tmp_path, "drift-protocol-ops")
        messages = "\n".join(f.message for f in findings)
        # The doc-side phantom is suppressed; the code-side gap remains.
        assert "'reboot'" not in messages
        assert "'stats'" in messages

    def _stage_cachenet(self, tmp_path):
        cachenet = tmp_path / "src" / "repro" / "cachenet"
        cachenet.mkdir(parents=True)
        docs = tmp_path / "docs"
        docs.mkdir()
        shutil.copy(
            REPO_ROOT / "src" / "repro" / "cachenet" / "server.py",
            cachenet / "server.py",
        )
        return docs / "remote-cache.md"

    def test_real_cache_server_against_doctored_doc(self, tmp_path):
        doc = self._stage_cachenet(tmp_path)
        original = (REPO_ROOT / "docs" / "remote-cache.md").read_text(
            encoding="utf-8"
        )
        # Drop `stats` from the table and document a phantom `reboot`.
        doctored = original.replace("| `stats` |", "| `reboot` |", 1)
        assert doctored != original
        doc.write_text(doctored, encoding="utf-8")
        findings = _drift_findings(tmp_path, "drift-protocol-ops")
        messages = "\n".join(f.message for f in findings)
        assert "'stats'" in messages and "does not document" in messages
        assert "'reboot'" in messages and "does not handle" in messages

    def test_real_cache_server_against_the_real_doc_is_clean(self, tmp_path):
        doc = self._stage_cachenet(tmp_path)
        shutil.copy(REPO_ROOT / "docs" / "remote-cache.md", doc)
        assert _drift_findings(tmp_path, "drift-protocol-ops") == []

    def test_real_events_against_doctored_catalogue(self, tmp_path):
        service = tmp_path / "src" / "repro" / "service"
        service.mkdir(parents=True)
        docs = tmp_path / "docs"
        docs.mkdir()
        shutil.copy(
            REPO_ROOT / "src" / "repro" / "service" / "events.py",
            service / "events.py",
        )
        original = (REPO_ROOT / "docs" / "events.md").read_text(
            encoding="utf-8"
        )
        (docs / "events.md").write_text(original, encoding="utf-8")
        assert _drift_findings(tmp_path, "drift-event-fields") == []
        # RunCompleted's wire fields are its RunTotals report's.
        doctored = original.replace("spend `queries` and", "spend and", 1)
        assert doctored != original
        (docs / "events.md").write_text(doctored, encoding="utf-8")
        findings = _drift_findings(tmp_path, "drift-event-fields")
        assert len(findings) == 1
        assert "RunCompleted" in findings[0].message
        assert "missing queries" in findings[0].message

    def test_rules_skip_when_their_module_is_absent(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        module = tmp_path / "src" / "repro" / "other.py"
        module.write_text("VALUE = 1\n", encoding="utf-8")
        report = lint_project(tmp_path)
        assert report.findings == []
