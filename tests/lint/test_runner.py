"""Runner, rule set, baseline, CLI — and the repo's own cleanliness.

The last test here is the PR's acceptance gate made permanent:
``repro lint`` must run clean (zero non-baselined findings) on the
checked-in tree, so tier-1 fails the moment a change reintroduces a
determinism, lock-coverage or drift violation.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exceptions import LintError
from repro.lint import (
    RULES,
    Finding,
    lint_project,
    load_baseline,
    render_json,
    write_baseline,
)
from repro.lint.findings import suppressed_rules
from repro.lint.runner import collect_files

from tests.lint.conftest import FIXTURES, REPO_ROOT


class TestRules:
    def test_stock_rules_have_all_three_families(self):
        ids = [rule.rule_id for rule in RULES]
        assert len(ids) >= 8
        assert any(i.startswith("det-") for i in ids)
        assert any(i.startswith("lock-") for i in ids)
        assert any(i.startswith("drift-") for i in ids)
        assert ids == sorted(ids)

    def test_rule_ids_are_unique(self):
        ids = [rule.rule_id for rule in RULES]
        assert len(set(ids)) == len(ids)

    def test_every_rule_has_id_and_summary(self):
        for rule in RULES:
            assert rule.rule_id and rule.summary


class TestSuppressions:
    def test_same_line_marker(self):
        lines = ["x = 1  # repro: allow[det-id-key]"]
        assert suppressed_rules(lines, 1) == {"det-id-key"}

    def test_preceding_line_marker(self):
        lines = ["# repro: allow[det-id-key, det-wallclock]", "x = 1"]
        assert suppressed_rules(lines, 2) == {"det-id-key", "det-wallclock"}

    def test_marker_does_not_leak_to_other_lines(self):
        lines = ["x = 1  # repro: allow[det-id-key]", "y = 2", "z = 3"]
        assert suppressed_rules(lines, 3) == frozenset()


class TestBaseline:
    def test_round_trip_silences_grandfathered_findings(self, tmp_path):
        report = lint_project(FIXTURES / "drift_bad")
        assert report.new_findings and report.exit_code == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, report.findings)
        baseline = load_baseline(baseline_path)
        again = lint_project(FIXTURES / "drift_bad", baseline=baseline)
        assert again.new_findings == []
        assert len(again.baselined_findings) == len(report.findings)
        assert again.exit_code == 0

    def test_fingerprints_survive_line_shifts(self):
        a = Finding(rule="r", path="p.py", line=3, message="m")
        b = Finding(rule="r", path="p.py", line=30, message="m")
        assert a.fingerprint == b.fingerprint

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(LintError, match="baseline"):
            load_baseline(path)

    def test_missing_source_tree_raises(self, tmp_path):
        with pytest.raises(LintError, match="no src"):
            collect_files(tmp_path)


class TestCli:
    def test_json_report_shape_and_exit_code(self, capsys):
        code = main(["lint", "--root", str(FIXTURES / "drift_bad"),
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["format"] == "repro-lint/v1"
        assert payload["new"] == len(payload["findings"]) > 0
        assert {"rule", "path", "line", "message", "baselined"} <= set(
            payload["findings"][0]
        )

    def test_clean_tree_exits_zero(self, capsys):
        code = main(["lint", "--root", str(FIXTURES / "drift_good")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 new findings" in out

    def test_output_file_is_the_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "lint-report.json"
        code = main(["lint", "--root", str(FIXTURES / "drift_good"),
                     "--format", "json", "--output", str(artifact)])
        assert code == 0
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["format"] == "repro-lint/v1"
        assert "0 new findings" in capsys.readouterr().out

    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        code = main(["lint", "--root", str(FIXTURES / "drift_bad"),
                     "--baseline", str(baseline), "--write-baseline"])
        assert code == 0 and baseline.exists()
        capsys.readouterr()
        code = main(["lint", "--root", str(FIXTURES / "drift_bad"),
                     "--baseline", str(baseline)])
        assert code == 0
        assert "0 new findings" in capsys.readouterr().out

    def test_no_baseline_reaudits_everything(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main(["lint", "--root", str(FIXTURES / "drift_bad"),
              "--baseline", str(baseline), "--write-baseline"])
        capsys.readouterr()
        code = main(["lint", "--root", str(FIXTURES / "drift_bad"),
                     "--baseline", str(baseline), "--no-baseline"])
        assert code == 1


class TestRepositoryIsClean:
    """The acceptance criterion, kept honest forever after."""

    def test_repo_lints_clean_against_its_baseline(self):
        baseline_path = REPO_ROOT / "lint-baseline.json"
        baseline = (
            load_baseline(baseline_path) if baseline_path.exists()
            else frozenset()
        )
        report = lint_project(REPO_ROOT, baseline=baseline)
        assert report.new_findings == [], (
            "new lint findings:\n" + "\n".join(
                f"{f.location()}: {f.rule}: {f.message}"
                for f in report.new_findings
            )
        )

    def test_the_baseline_is_small_and_current(self):
        baseline_path = REPO_ROOT / "lint-baseline.json"
        baseline = load_baseline(baseline_path)
        # Grandfathered debt should shrink, not accumulate silently.
        assert len(baseline) <= 5
        report = lint_project(REPO_ROOT, baseline=baseline)
        live = {f.fingerprint for f in report.baselined_findings}
        assert live == baseline, (
            "baseline entries no longer observed; re-run "
            "`repro lint --write-baseline` to drop stale debt"
        )

    def test_registry_is_pluggable_with_a_custom_rule(self, tmp_path):
        from repro.lint.rules import ModuleRule

        class NoTodoRule(ModuleRule):
            rule_id = "x-no-todo"
            summary = "fixture rule"

            def check(self, ctx):
                return [
                    self.finding(ctx.relpath, i, "todo found")
                    for i, line in enumerate(ctx.lines, start=1)
                    if "TODO" in line
                ]

        module = tmp_path / "mod.py"
        module.write_text("# TODO: later\nVALUE = 1\n", encoding="utf-8")
        report = lint_project(tmp_path, rules=(NoTodoRule(),), paths=[module])
        assert [f.rule for f in report.findings] == ["x-no-todo"]
        assert render_json(report)["rules"] == 1
