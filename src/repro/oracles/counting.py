"""Query-count bookkeeping.

The benchmark harness runs each matcher many times over random instances and
needs per-run query counts plus simple aggregates (mean, min, max).  Keeping
that bookkeeping here keeps the oracles themselves trivial.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

__all__ = ["QueryStatistics"]


@dataclass
class QueryStatistics:
    """Aggregate of per-run oracle query counts.

    Attributes:
        label: free-form label (typically "equivalence class / regime").
        samples: one entry per run — the total query count of that run.
    """

    label: str = ""
    samples: list[int] = field(default_factory=list)

    def record(self, queries: int) -> None:
        """Record the query count of one run."""
        self.samples.append(int(queries))

    def extend(self, queries: Iterable[int]) -> None:
        """Record several runs at once."""
        for value in queries:
            self.record(value)

    @property
    def count(self) -> int:
        """Number of recorded runs."""
        return len(self.samples)

    @property
    def total(self) -> int:
        """Sum of all recorded query counts."""
        return sum(self.samples)

    @property
    def mean(self) -> float:
        """Mean query count (0.0 when no runs are recorded)."""
        return self.total / len(self.samples) if self.samples else 0.0

    @property
    def minimum(self) -> int:
        """Smallest recorded query count (0 when no runs are recorded)."""
        return min(self.samples) if self.samples else 0

    @property
    def maximum(self) -> int:
        """Largest recorded query count (0 when no runs are recorded)."""
        return max(self.samples) if self.samples else 0

    def summary(self) -> dict[str, float]:
        """A plain-dict summary used by the report renderer."""
        return {
            "runs": self.count,
            "mean": self.mean,
            "min": float(self.minimum),
            "max": float(self.maximum),
        }

    def __repr__(self) -> str:
        return (
            f"<QueryStatistics {self.label!r} runs={self.count} "
            f"mean={self.mean:.2f} min={self.minimum} max={self.maximum}>"
        )
