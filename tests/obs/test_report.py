"""Unit tests for the cross-run report scanner (`repro.obs.report`).

The contracts under test: `summarize_store` tells run stores apart from
event logs, span logs and garbage; records deduplicate per ``pair_id``
exactly like store resume; the meta sidecar contributes wall clock and
executor; `scan_results` is incremental via a summary cache trusted only
under the stat-signature "racy git" rule of `content_digest`; and
rendering covers the per-run, composition and cross-run trend tables.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.service.fingerprint as fingerprint_module
from repro.exceptions import ServiceError
from repro.obs.report import (
    CACHE_FILENAME,
    REPORT_FORMAT,
    RunSummary,
    render_report,
    report_to_json,
    scan_results,
    summarize_store,
)
from repro.service.fingerprint import RACY_WINDOW_NS


def _write_store(path, records):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                (record if isinstance(record, str) else json.dumps(record))
                + "\n"
            )


def _last_change(path) -> int:
    stat = os.stat(path)
    return max(stat.st_mtime_ns, stat.st_ctime_ns)


@pytest.fixture
def clock(monkeypatch):
    """Set the time summaries are recorded under: ``clock(ns)``."""

    def set_clock(ns: int) -> None:
        monkeypatch.setattr(fingerprint_module, "_clock", lambda: ns)

    return set_clock


def _rewrite_keeping_mtime(path, record) -> None:
    """Rewrite ``path`` as the one-record store ``record`` (same size),
    put its mtime back, and repeat until the ctime has moved on."""
    before = os.stat(path)
    for _ in range(1_000_000):
        _write_store(path, [record])
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        if os.stat(path).st_ctime_ns != before.st_ctime_ns:
            break
    else:
        pytest.fail("the store's ctime never moved")
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (
        before.st_size, before.st_mtime_ns,
    )


def _record(pair_id, status="ok", **extra):
    record = {"pair_id": pair_id, "status": status, "equivalence": "I-I"}
    if status == "ok":
        record["result"] = {"queries": 4, "quantum_queries": 1}
    record.update(extra)
    return record


class TestSummarizeStore:
    def test_counts_statuses_classes_and_queries(self, tmp_path):
        store = tmp_path / "run.jsonl"
        _write_store(store, [
            _record("a"),
            _record("b", status="failed"),
            _record("c", status="cached",
                    cache_key="pair:v2:exact:v1:x|exact:v1:y|I-I|d"),
            _record("d", status="cached", cache_key=None),
        ])
        summary = summarize_store(store)
        assert summary.total == 4
        assert summary.statuses == {"ok": 1, "failed": 1, "cached": 2}
        assert summary.classes == {"I-I": 4}
        assert summary.queries == 4 and summary.quantum_queries == 1
        assert summary.cache_hits == 2 and summary.hit_rate == 0.5
        # One hit keyed by an exact fingerprint, one with no key at all.
        assert summary.scheme_hits.get("unkeyed") == 1
        assert sum(summary.scheme_hits.values()) == 2

    def test_dedupes_by_pair_id_latest_wins(self, tmp_path):
        store = tmp_path / "run.jsonl"
        _write_store(store, [
            _record("a", status="failed"),
            _record("a", status="ok"),  # the re-run after a resume
        ])
        summary = summarize_store(store)
        assert summary.total == 1
        assert summary.statuses == {"ok": 1}

    def test_torn_lines_counted_not_fatal(self, tmp_path):
        store = tmp_path / "run.jsonl"
        _write_store(store, [
            _record("a"),
            '{"pair_id": "b", "status": "ok", "trunc',  # torn mid-append
            "",
        ])
        summary = summarize_store(store)
        assert summary.total == 1 and summary.torn_lines == 1

    def test_non_object_line_is_torn_not_fatal(self, tmp_path):
        """A JSON line that is not an object is torn, as for resume and
        merge: the store still reports, with the line counted."""
        store = tmp_path / "run.jsonl"
        _write_store(store, [_record("a"), "[1, 2]", _record("b"), _record("c")])
        summary = summarize_store(store)
        assert summary.total == 3 and summary.torn_lines == 1

    def test_rejects_event_logs_span_logs_and_garbage(self, tmp_path):
        events = tmp_path / "events.jsonl"
        _write_store(events, [{"event": "RunStarted", "total": 2}])
        spans = tmp_path / "trace.jsonl"
        _write_store(spans, [{"span_id": 1, "parent_id": None, "name": "p"}])
        lists = tmp_path / "lists.jsonl"
        _write_store(lists, ["[1, 2, 3]"])
        keyless = tmp_path / "keyless.jsonl"
        _write_store(keyless, [{"pair_id": "a"}])  # no status key
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        for path in (events, spans, lists, keyless, empty):
            assert summarize_store(path) is None
        assert summarize_store(tmp_path / "absent.jsonl") is None

    def test_meta_sidecar_contributes_elapsed_and_executor(self, tmp_path):
        store = tmp_path / "run.jsonl"
        _write_store(store, [_record("a")])
        sidecar = tmp_path / "run.jsonl.meta.json"
        sidecar.write_text(json.dumps({
            "format": "repro-run-meta/v1",
            "elapsed": 1.5,
            "executor": "overlap[serial]",
        }))
        summary = summarize_store(store)
        assert summary.elapsed == 1.5
        assert summary.executor == "overlap[serial]"
        # A corrupt sidecar degrades to "no sidecar", never to a crash.
        sidecar.write_text("{corrupt")
        summary = summarize_store(store)
        assert summary.elapsed is None and summary.executor is None

    def test_round_trips_through_as_dict(self, tmp_path):
        store = tmp_path / "run.jsonl"
        _write_store(store, [_record("a"), _record("b", status="failed")])
        summary = summarize_store(store)
        assert RunSummary.from_dict(summary.as_dict()) == summary


class TestScanResults:
    def _tree(self, tmp_path):
        _write_store(tmp_path / "runs" / "a.jsonl", [_record("a")])
        _write_store(
            tmp_path / "runs" / "b.jsonl",
            [_record("a", status="cached", cache_key=None), _record("b")],
        )
        _write_store(tmp_path / "events.jsonl",
                     [{"event": "RunStarted", "total": 1}])
        return tmp_path

    def test_finds_stores_sorted_and_skips_non_stores(self, tmp_path):
        summaries = scan_results(self._tree(tmp_path))
        assert [s.name for s in summaries] == ["runs/a.jsonl", "runs/b.jsonl"]

    def test_rejects_non_directories(self, tmp_path):
        with pytest.raises(ServiceError, match="not a results directory"):
            scan_results(tmp_path / "absent")

    def test_cache_reused_until_store_changes(self, tmp_path, clock):
        root = self._tree(tmp_path)
        # Record the summaries long after the stores were written, so the
        # racy-window rule lets unchanged stores be served from the cache.
        clock(_last_change(root / "runs" / "b.jsonl") + 5 * RACY_WINDOW_NS)
        first = scan_results(root)
        cache_path = root / CACHE_FILENAME
        cached = json.loads(cache_path.read_text())
        assert cached["format"] == REPORT_FORMAT
        assert set(cached["entries"]) == {
            "runs/a.jsonl", "runs/b.jsonl", "events.jsonl",
        }
        assert cached["entries"]["events.jsonl"]["summary"] is None

        # Poison the cached summary: an unchanged store must come back
        # from the cache (proving reuse), a touched one must be re-read.
        cached["entries"]["runs/a.jsonl"]["summary"]["total"] = 99
        cache_path.write_text(json.dumps(cached))
        reused = scan_results(root)
        assert [s.total for s in reused] == [99, 2]

        store_b = root / "runs" / "b.jsonl"
        _write_store(store_b, [_record("only")])
        rescanned = {s.name: s for s in scan_results(root)}
        assert rescanned["runs/b.jsonl"].total == 1
        assert rescanned["runs/a.jsonl"].total == 99  # still from cache
        assert scan_results(root, use_cache=False)[0].total == first[0].total

    def test_same_size_rewrite_under_the_old_mtime_is_reread(
        self, tmp_path, clock
    ):
        store = tmp_path / "run.jsonl"
        _write_store(store, [_record("a", status="failed")])
        clock(_last_change(store) + 5 * RACY_WINDOW_NS)
        assert scan_results(tmp_path)[0].statuses == {"failed": 1}
        # "cached" is as long as "failed": the store keeps its size.
        _rewrite_keeping_mtime(store, _record("a", status="cached"))
        assert scan_results(tmp_path)[0].statuses == {"cached": 1}

    def test_entry_recorded_inside_the_window_is_reread(self, tmp_path, clock):
        # Recorded within the window of the store's last change: a rewrite
        # in the same timestamp tick may keep the whole stat signature, so
        # the entry is never trusted, not even once the clock moves on.
        store = tmp_path / "run.jsonl"
        _write_store(store, [_record("a", status="failed")])
        clock(_last_change(store) + RACY_WINDOW_NS // 2)
        assert scan_results(tmp_path)[0].statuses == {"failed": 1}
        before = os.stat(store)
        _write_store(store, [_record("a", status="cached")])
        os.utime(store, ns=(before.st_atime_ns, before.st_mtime_ns))
        clock(_last_change(store) + 5 * RACY_WINDOW_NS)
        assert scan_results(tmp_path)[0].statuses == {"cached": 1}

    def test_entries_in_the_old_shape_are_reread(self, tmp_path, clock):
        store = tmp_path / "run.jsonl"
        _write_store(store, [_record("a")])
        clock(_last_change(store) + 5 * RACY_WINDOW_NS)
        stale = summarize_store(store, name="run.jsonl").as_dict()
        stale["total"] = 99
        stat = os.stat(store)
        (tmp_path / CACHE_FILENAME).write_text(json.dumps({
            "format": REPORT_FORMAT,
            "entries": {"run.jsonl": {
                "mtime_ns": stat.st_mtime_ns,
                "size": stat.st_size,
                "summary": stale,
            }},
        }))
        assert scan_results(tmp_path)[0].total == 1

    def test_no_cache_file_written_when_disabled(self, tmp_path):
        root = self._tree(tmp_path)
        scan_results(root, use_cache=False)
        assert not (root / CACHE_FILENAME).exists()


class TestRendering:
    def _summaries(self):
        return [
            RunSummary(name="cold.jsonl", total=4,
                       statuses={"ok": 4}, classes={"I-I": 4},
                       queries=40, quantum_queries=8, elapsed=2.0,
                       executor="serial"),
            RunSummary(name="warm.jsonl", total=4, cache_hits=4,
                       statuses={"cached": 4}, classes={"I-I": 4},
                       scheme_hits={"probe": 4}, elapsed=0.1,
                       executor="serial"),
        ]

    def test_empty_tree_message(self):
        assert render_report([]) == "no result stores found"

    def test_tables_and_trend(self):
        text = render_report(self._summaries())
        assert "result stores" in text
        assert "composition" in text
        assert "cross-run trend" in text
        assert "probe=4" in text
        assert "+100.0%" in text  # warm hit-rate delta over cold
        assert "-40" in text      # warm query delta over cold
        assert text.splitlines()[-1].startswith("total: 2 runs, 8 pairs")

    def test_single_run_has_no_trend_table(self):
        text = render_report(self._summaries()[:1])
        assert "cross-run trend" not in text

    def test_json_document(self):
        payload = report_to_json(self._summaries())
        assert payload["format"] == REPORT_FORMAT
        assert [run["name"] for run in payload["runs"]] == [
            "cold.jsonl", "warm.jsonl",
        ]
        totals = payload["totals"]
        assert totals == {
            "runs": 2, "pairs": 8, "cache_hits": 4, "hit_rate": 0.5,
            "queries": 40, "quantum_queries": 8, "torn_lines": 0,
        }
        json.dumps(payload)  # JSON-serialisable end to end
