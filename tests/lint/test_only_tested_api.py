"""Self-tests for ``drift-test-only-api`` over a staged source tree.

Each test writes a small tree under ``tmp_path``: ``src/repro`` holds the
public names, ``tests/`` the only callers unless the test adds another,
and the rule must flag exactly the names nothing but ``tests/`` uses.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_project

RULE = "drift-test-only-api"

WIDGETS = '''\
__all__ = ["tested_only", "Widget"]


def tested_only():
    return tested_only


def used_by_core():
    return 1


class Widget:
    def spin(self):
        return 2

    def turn(self):
        return self.spin()
'''

CORE = '''\
from repro.widgets import used_by_core


def run():
    return used_by_core()
'''

CALLERS = '''\
from repro.widgets import Widget, tested_only, used_by_core


def check():
    assert tested_only() and used_by_core()
    assert Widget().spin() and Widget().turn()
'''


def _stage(root, files: dict[str, str]) -> None:
    files = {
        "src/repro/widgets.py": WIDGETS,
        "src/repro/core.py": CORE,
        "tests/callers.py": CALLERS,
        **files,
    }
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _flagged(root) -> set[str]:
    report = lint_project(root)
    return {f.message.split()[0] for f in report.findings if f.rule == RULE}


class TestOnlyTestedApi:
    def test_function_named_only_by_tests_is_flagged(self, tmp_path):
        _stage(tmp_path, {})
        # ``Widget`` is used by the tests only too; ``Widget.spin`` is
        # read inside ``turn``; ``used_by_core`` is called by ``core.py``.
        assert _flagged(tmp_path) == {"tested_only", "Widget", "Widget.turn"}

    def test_finding_anchors_at_the_definition(self, tmp_path):
        _stage(tmp_path, {})
        report = lint_project(tmp_path)
        [finding] = [f for f in report.findings
                     if f.message.startswith("tested_only ")]
        assert (finding.path, finding.line) == ("src/repro/widgets.py", 4)

    @pytest.mark.parametrize("relpath", [
        "examples/demo.py",
        "benchmarks/bench_widgets.py",
        "perfbench/workloads.py",
        "scripts/tool.py",
        "docs/widgets.md",
        "README.md",
    ])
    def test_a_use_outside_tests_keeps_a_name(self, tmp_path, relpath):
        _stage(tmp_path, {relpath: "tested_only() and Widget().turn()\n"})
        assert _flagged(tmp_path) == set()

    def test_all_entries_and_init_reexports_are_not_uses(self, tmp_path):
        _stage(tmp_path, {
            "src/repro/__init__.py": (
                "from repro.widgets import Widget, tested_only\n\n"
                '__all__ = ["Widget", "tested_only"]\n'
            ),
        })
        assert "tested_only" in _flagged(tmp_path)

    def test_a_use_inside_its_own_definition_does_not_count(self, tmp_path):
        # ``tested_only`` returns itself; that load is in its own body.
        _stage(tmp_path, {})
        assert "tested_only" in _flagged(tmp_path)

    def test_a_method_is_found_by_name(self, tmp_path):
        _stage(tmp_path, {
            "src/repro/core.py": CORE + "\n\ndef drive(thing):\n"
                                        "    return thing.turn()\n",
        })
        flagged = _flagged(tmp_path)
        assert "Widget.turn" not in flagged
        assert "Widget.spin" not in flagged

    def test_allow_marker_suppresses_the_finding(self, tmp_path):
        _stage(tmp_path, {
            "src/repro/widgets.py": WIDGETS.replace(
                "def tested_only():",
                "# repro: allow[drift-test-only-api]\ndef tested_only():",
            ),
        })
        report = lint_project(tmp_path)
        assert "tested_only" not in _flagged(tmp_path)
        assert report.suppressed >= 1

    def test_tree_without_tests_is_skipped(self, tmp_path):
        _stage(tmp_path, {})
        (tmp_path / "tests" / "callers.py").unlink()
        assert _flagged(tmp_path) == set()

    def test_private_names_are_never_flagged(self, tmp_path):
        _stage(tmp_path, {
            "src/repro/helpers.py": "def _helper():\n    return 3\n",
            "tests/test_helpers.py": (
                "from repro.helpers import _helper\n\n"
                "assert _helper() == 3\n"
            ),
        })
        assert "_helper" not in _flagged(tmp_path)

    def test_an_identifier_string_in_source_is_a_use(self, tmp_path):
        # A ``getattr`` by name reaches the function as surely as a call.
        _stage(tmp_path, {
            "src/repro/core.py": CORE + "\n\ndef lookup(module):\n"
                                        '    return getattr(module, "tested_only")\n',
        })
        assert "tested_only" not in _flagged(tmp_path)

    def test_a_name_nothing_uses_is_not_this_rules_finding(self, tmp_path):
        _stage(tmp_path, {
            "src/repro/widgets.py": WIDGETS + "\n\ndef orphan():\n    return 0\n",
        })
        assert "orphan" not in _flagged(tmp_path)

    def test_a_decorated_definition_anchors_at_its_decorator(self, tmp_path):
        _stage(tmp_path, {
            "src/repro/widgets.py": WIDGETS.replace(
                "def tested_only():",
                "@staticmethod\ndef tested_only():",
            ),
        })
        report = lint_project(tmp_path)
        [finding] = [f for f in report.findings
                     if f.message.startswith("tested_only ")]
        assert (finding.path, finding.line) == ("src/repro/widgets.py", 4)
