"""Unit tests for the span tracer (`repro.obs.trace`).

The contracts under test: spans get sequential ids and record their
parent, the JSONL line schema is stable and sorted, `record` logs
already-measured durations verbatim, `end` is idempotent, and the null
tracer shares the API while writing nothing.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.trace import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer


def _spans(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestTracer:
    def test_span_lines_have_the_documented_schema(self, tmp_path):
        log = tmp_path / "trace.jsonl"
        tracer = Tracer(log)
        with tracer.span("pair", pair_id="p-0"):
            pass
        tracer.close()
        (line,) = _spans(log)
        assert list(line) == sorted(line)  # sort_keys on the wire
        assert set(line) == {
            "span_id", "parent_id", "name", "start_s", "duration_s", "attrs",
        }
        assert line["name"] == "pair"
        assert line["parent_id"] is None
        assert line["attrs"] == {"pair_id": "p-0"}
        assert line["start_s"] >= 0.0 and line["duration_s"] >= 0.0

    def test_sequential_ids_and_parent_linkage(self, tmp_path):
        log = tmp_path / "trace.jsonl"
        tracer = Tracer(log)
        with tracer.span("pair") as pair:
            with tracer.span("fingerprint", parent=pair):
                pass
            with tracer.span("cache_probe", parent=pair):
                pass
        tracer.close()
        by_name = {line["name"]: line for line in _spans(log)}
        assert by_name["pair"]["span_id"] == 1
        assert by_name["fingerprint"]["span_id"] == 2
        assert by_name["cache_probe"]["span_id"] == 3
        # Children close before the parent, but all link back to it.
        assert by_name["fingerprint"]["parent_id"] == 1
        assert by_name["cache_probe"]["parent_id"] == 1
        # A raw span_id works as `parent` too (cross-thread handoff).
        tracer2 = Tracer(tmp_path / "second.jsonl")
        with tracer2.span("child", parent=7):
            pass
        tracer2.close()
        (line,) = _spans(tmp_path / "second.jsonl")
        assert line["parent_id"] == 7

    def test_record_logs_a_premeasured_duration_verbatim(self, tmp_path):
        log = tmp_path / "trace.jsonl"
        tracer = Tracer(log)
        with tracer.span("pair") as pair:
            tracer.record("match", 1.25, parent=pair, matcher="i-i/trivial")
        tracer.close()
        match = [l for l in _spans(log) if l["name"] == "match"][0]
        assert match["duration_s"] == 1.25  # not re-measured
        assert match["parent_id"] == pair.span_id
        assert match["attrs"] == {"matcher": "i-i/trivial"}

    def test_end_is_idempotent(self, tmp_path):
        log = tmp_path / "trace.jsonl"
        tracer = Tracer(log)
        span = tracer.start("pair")
        span.end()
        first_duration = span.duration_s
        span.end()  # second end must not write a second line
        tracer.close()
        assert len(_spans(log)) == 1
        assert span.duration_s == first_duration

    def test_no_file_until_first_span(self, tmp_path):
        log = tmp_path / "nested" / "trace.jsonl"
        tracer = Tracer(log)
        assert not log.exists()
        with tracer.span("pair"):
            pass
        tracer.close()
        assert log.exists()  # parents were created lazily
        tracer.close()  # close is idempotent too

    def test_monotonic_start_offsets(self, tmp_path):
        log = tmp_path / "trace.jsonl"
        tracer = Tracer(log)
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        tracer.close()
        starts = {line["name"]: line["start_s"] for line in _spans(log)}
        assert 0.0 <= starts["first"] <= starts["second"]


class TestNullTracer:
    def test_same_api_writes_nothing(self, tmp_path):
        tracer = NullTracer()
        with tracer.span("pair", pair_id="p") as span:
            assert span is NULL_SPAN
        assert tracer.start("x") is NULL_SPAN
        assert tracer.record("match", 0.5) is NULL_SPAN
        tracer.close()
        NULL_SPAN.end()  # a no-op, never raises
        assert isinstance(NULL_SPAN, Span)
        assert list(tmp_path.iterdir()) == []

    def test_shared_instance_exists(self):
        assert isinstance(NULL_TRACER, NullTracer)

    def test_span_is_one_shared_context_that_nests(self):
        tracer = NullTracer()
        assert tracer.span("pair") is tracer.span("match", parent=NULL_SPAN, k=1)
        with tracer.span("pair") as outer:
            with tracer.span("match", parent=outer) as inner:
                assert inner is NULL_SPAN
            assert outer is NULL_SPAN
        with pytest.raises(KeyError):
            with tracer.span("pair"):
                raise KeyError("the null span never swallows an error")

    def test_span_serves_two_threads_at_once(self):
        barrier = threading.Barrier(2, timeout=5)
        seen = []

        def worker():
            with NULL_TRACER.span("pair") as outer:
                barrier.wait()  # both threads are inside the same span context
                with NULL_TRACER.span("match", parent=outer) as inner:
                    seen.append((outer, inner))
                barrier.wait()

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [(NULL_SPAN, NULL_SPAN)] * 2
