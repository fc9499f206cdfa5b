"""Scaling fits: which asymptotic model explains the measured query counts?

The benchmark harness measures oracle-query counts at a sweep of bit widths
``n`` and wants to report whether the growth matches the bound claimed in
Table 1.  Each candidate model is a single-parameter family
``queries ~ scale * g(n)``; the best scale is the least-squares solution and
models are compared by residual error on a normalised scale.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

__all__ = ["MODELS", "FitResult", "fit_model", "best_fit"]

#: Candidate growth models, keyed by the label used in reports.
MODELS: dict[str, Callable[[float], float]] = {
    "constant": lambda n: 1.0,
    "log n": lambda n: math.log2(max(n, 2.0)),
    "n": lambda n: float(n),
    "n log n": lambda n: n * math.log2(max(n, 2.0)),
    "n^2": lambda n: float(n) ** 2,
    "2^(n/2)": lambda n: 2.0 ** (n / 2.0),
    "2^n": lambda n: 2.0**n,
}


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one growth model to a measurement series.

    Attributes:
        model: the model label (a key of :data:`MODELS`).
        scale: the fitted multiplicative constant.
        relative_error: root-mean-square of the relative residuals
            ``(measured - predicted) / measured``.
    """

    model: str
    scale: float
    relative_error: float


def fit_model(
    sizes: Sequence[float], measurements: Sequence[float], model: str
) -> FitResult:
    """Least-squares fit of ``measurements ~ scale * model(sizes)``."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(MODELS)}")
    if len(sizes) != len(measurements) or not sizes:
        raise ValueError("sizes and measurements must be equal-length and non-empty")
    g = MODELS[model]
    basis = [g(n) for n in sizes]
    denominator = sum(value * value for value in basis)
    if denominator == 0.0:
        raise ValueError("degenerate model basis")
    scale = sum(b * y for b, y in zip(basis, measurements)) / denominator
    residuals = []
    for b, y in zip(basis, measurements):
        predicted = scale * b
        reference = y if y != 0 else 1.0
        residuals.append(((y - predicted) / reference) ** 2)
    return FitResult(model, scale, math.sqrt(sum(residuals) / len(residuals)))


def best_fit(
    sizes: Sequence[float],
    measurements: Sequence[float],
    candidates: Sequence[str] | None = None,
) -> FitResult:
    """The candidate model with the smallest relative residual error."""
    if candidates is None:
        candidates = list(MODELS)
    fits = [fit_model(sizes, measurements, model) for model in candidates]
    return min(fits, key=lambda fit: fit.relative_error)
