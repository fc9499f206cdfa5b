"""Unit tests for query statistics aggregation."""

from __future__ import annotations

from repro.oracles import QueryStatistics


class TestQueryStatistics:
    def test_empty_statistics(self):
        stats = QueryStatistics("empty")
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.minimum == 0
        assert stats.maximum == 0

    def test_record_and_aggregate(self):
        stats = QueryStatistics("runs")
        stats.record(4)
        stats.record(6)
        stats.record(8)
        assert stats.count == 3
        assert stats.total == 18
        assert stats.mean == 6.0
        assert stats.minimum == 4
        assert stats.maximum == 8

    def test_extend(self):
        stats = QueryStatistics("x")
        stats.extend([1, 2, 3])
        stats.extend([4, 5])
        assert stats.count == 5
        assert stats.maximum == 5

    def test_summary_keys(self):
        stats = QueryStatistics("x")
        stats.extend([2, 2])
        summary = stats.summary()
        assert summary == {"runs": 2, "mean": 2.0, "min": 2.0, "max": 2.0}

    def test_repr_contains_label(self):
        assert "label" in repr(QueryStatistics("label"))
