"""Unit tests for the scaling-fit helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis.scaling import MODELS, best_fit, fit_model


class TestFitModel:
    def test_exact_linear_data(self):
        sizes = [2, 4, 8, 16]
        measurements = [6.0 * n for n in sizes]
        fit = fit_model(sizes, measurements, "n")
        assert fit.scale == pytest.approx(6.0)
        assert fit.relative_error == pytest.approx(0.0, abs=1e-12)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            fit_model([1, 2], [1, 2], "cubic")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_model([1, 2], [1], "n")

    def test_all_models_evaluate(self):
        for name, model in MODELS.items():
            assert model(4) > 0, name


class TestBestFit:
    def test_recovers_constant(self):
        sizes = [2, 4, 8, 16, 32]
        fit = best_fit(sizes, [2.0] * len(sizes))
        assert fit.model == "constant"

    def test_recovers_logarithmic(self):
        sizes = [4, 8, 16, 32, 64, 128]
        fit = best_fit(sizes, [3.0 * math.log2(n) for n in sizes])
        assert fit.model == "log n"

    def test_recovers_quadratic(self):
        sizes = [2, 4, 8, 16, 32]
        fit = best_fit(sizes, [0.5 * n * n for n in sizes])
        assert fit.model == "n^2"

    def test_recovers_exponential(self):
        sizes = [4, 6, 8, 10, 12]
        fit = best_fit(sizes, [1.5 * 2 ** (n / 2) for n in sizes])
        assert fit.model == "2^(n/2)"

    def test_candidate_restriction(self):
        sizes = [2, 4, 8]
        fit = best_fit(sizes, [n for n in sizes], candidates=["constant", "n"])
        assert fit.model == "n"

    def test_noisy_linear_data_still_linear(self, rng):
        sizes = list(range(4, 64, 4))
        measurements = [2.0 * n * (1 + 0.05 * (rng.random() - 0.5)) for n in sizes]
        assert best_fit(sizes, measurements).model in ("n", "n log n")
