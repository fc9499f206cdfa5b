"""Analysis helpers for the benchmark harness.

* :mod:`repro.analysis.scaling` — least-squares fits of measured query
  counts against the asymptotic models the paper claims (constant, log n,
  n, n log n, n^2, 2^{n/2}, 2^n) and model selection between them.
* :mod:`repro.analysis.report` — plain-text table rendering used by
  the benchmarks and EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.scaling import (
    MODELS,
    FitResult,
    best_fit,
    fit_model,
)

__all__ = [
    "MODELS",
    "FitResult",
    "fit_model",
    "best_fit",
    "format_table",
]
