"""The :class:`MatchingEngine` facade.

A configured front door to the Table 1 dispatch table
(:mod:`repro.core.registry`):

* :class:`MatchingConfig` — the policy knobs (epsilon, quantum permission,
  brute-force opt-in, inverse granting, query budget) bundled once instead
  of threaded through every call;
* :class:`MatchingEngine` — holds a config and shared randomness and
  exposes :meth:`~MatchingEngine.match` (one pair) and
  :meth:`~MatchingEngine.match_many` — the guarded per-pair dispatch the
  service executors run, one :class:`BatchEntry` per pair.

Many-pair workloads (aggregates, tables, caching, stores) go through
:meth:`repro.service.MatchingService.match_pairs`, which reaches the
engine one pair at a time through :meth:`~MatchingEngine.match_many`.

Oracle coercion happens in exactly one place (:meth:`MatchingEngine._coerce`)
and is fresh for every pair, so mutating a circuit between calls can never
leak a stale oracle.  The module-level :func:`repro.core.match` wrapper in
:mod:`repro.core.dispatcher` delegates to a shared default engine.
"""

from __future__ import annotations

import random as _random
from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.equivalence import EquivalenceType
from repro.core.problem import MatchContext, MatchingResult
from repro.core.registry import MatcherSpec, detect_capabilities, resolve
from repro.exceptions import MatchingError, ReproError
from repro.oracles.oracle import ReversibleOracle, as_oracle
from repro.quantum.oracle import QuantumCircuitOracle
from repro.quantum.swap_test import SwapTest

__all__ = [
    "MatchingConfig",
    "MatchingEngine",
    "BatchEntry",
    "get_default_engine",
]


@dataclass(frozen=True)
class MatchingConfig:
    """Policy knobs shared by every request an engine serves.

    Attributes:
        epsilon: default admissible failure probability for randomised and
            quantum matchers.
        allow_quantum: permit the simulated quantum matchers.
        allow_brute_force: permit the exponential brute-force fallback tier.
        with_inverse: grant inverse access when coercing *raw* circuits or
            permutations into oracles (pre-built oracles keep their own
            setting, exactly like :func:`repro.oracles.oracle.as_oracle`).
        max_queries: optional query budget applied to each oracle the
            engine builds; exceeding it raises
            :class:`~repro.exceptions.QueryBudgetExceededError`.  Every
            pair gets freshly coerced oracles, so the budget is per
            matched pair and one pair's spending cannot starve another.
        fingerprint_scheme: which oracle-identity scheme the service
            layer's caches key on — ``"auto"`` (exact truth tables up to
            the width limit, sampled probes beyond), ``"exact"`` or
            ``"probe"``.  The engine itself never fingerprints; the knob
            lives here because it is cache *policy* and must be part of
            the cache key (see :func:`repro.service.fingerprint.config_digest`).
        probe_count: probes per sampled-probe fingerprint (the probe
            budget); ``0`` disables the probe tier in ``auto`` mode.
    """

    epsilon: float = 1e-3
    allow_quantum: bool = True
    allow_brute_force: bool = False
    with_inverse: bool = False
    max_queries: int | None = None
    fingerprint_scheme: str = "auto"
    probe_count: int = 64


@dataclass(frozen=True)
class BatchEntry:
    """One pair's outcome from :meth:`MatchingEngine.match_many`.

    Attributes:
        index: position of the pair in the submitted sequence.
        equivalence: the promised class for this pair.
        result: the witnesses, or ``None`` when the matcher failed.
        error: ``"ExceptionName: message"`` when the matcher failed.
        matcher: name of the dispatch-table row that ran (when resolution
            succeeded).
    """

    index: int
    equivalence: EquivalenceType
    result: MatchingResult | None
    error: str | None = None
    matcher: str | None = None

    @property
    def matched(self) -> bool:
        """Whether the matcher produced witnesses for this pair."""
        return self.result is not None


class MatchingEngine:
    """Facade over the dispatch table: configured per-pair matching.

    Args:
        config: the :class:`MatchingConfig` policy; defaults are the
            historical :func:`repro.core.match` defaults.
        rng: engine-wide randomness (seed or ``random.Random``) used when a
            call does not pass its own.
        swap_test: optionally a shared pre-configured
            :class:`~repro.quantum.swap_test.SwapTest`.
    """

    def __init__(
        self,
        config: MatchingConfig | None = None,
        *,
        rng: _random.Random | int | None = None,
        swap_test: SwapTest | None = None,
    ) -> None:
        self._config = config if config is not None else MatchingConfig()
        self._rng = rng
        self._swap_test = swap_test

    # -- introspection ---------------------------------------------------------
    @property
    def config(self) -> MatchingConfig:
        """The engine's policy configuration."""
        return self._config

    # -- coercion (the single place dispatch builds oracles) -------------------
    def _coerce(self, target):
        """Coerce one matcher argument — the only coercion site on dispatch.

        Pre-built classical or quantum oracles pass through untouched (their
        own inverse/budget settings win).  Circuits and permutations are
        wrapped fresh, carrying the configured inverse grant and query
        budget.
        """
        if isinstance(target, (ReversibleOracle, QuantumCircuitOracle)):
            return target
        return as_oracle(
            target,
            with_inverse=self._config.with_inverse,
            max_queries=self._config.max_queries,
        )

    def _context(
        self,
        *,
        epsilon: float | None,
        rng,
        swap_test: SwapTest | None,
        allow_quantum: bool | None,
        allow_brute_force: bool | None,
    ) -> MatchContext:
        config = self._config
        return MatchContext(
            epsilon=config.epsilon if epsilon is None else epsilon,
            rng=self._rng if rng is None else rng,
            swap_test=self._swap_test if swap_test is None else swap_test,
            max_queries=config.max_queries,
            allow_quantum=(
                config.allow_quantum if allow_quantum is None else allow_quantum
            ),
            allow_brute_force=(
                config.allow_brute_force
                if allow_brute_force is None
                else allow_brute_force
            ),
        )

    # -- resolution ------------------------------------------------------------
    def _prepare(
        self,
        circuit1,
        circuit2,
        equivalence: EquivalenceType | str,
        *,
        epsilon: float | None = None,
        rng: _random.Random | int | None = None,
        allow_quantum: bool | None = None,
        allow_brute_force: bool | None = None,
        swap_test: SwapTest | None = None,
    ) -> tuple[MatcherSpec, object, object, MatchContext]:
        """Coerce, check widths, detect capabilities and resolve.

        The single dispatch path behind :meth:`match` and
        :meth:`match_many`, so resolution happens exactly once per request.

        Raises:
            MatchingError: when the two circuits differ in width.
        """
        if isinstance(equivalence, str):
            equivalence = EquivalenceType.from_label(equivalence)
        oracle1 = self._coerce(circuit1)
        oracle2 = self._coerce(circuit2)
        if _num_lines(oracle1) != _num_lines(oracle2):
            raise MatchingError("circuits must have the same number of lines")
        ctx = self._context(
            epsilon=epsilon,
            rng=rng,
            swap_test=swap_test,
            allow_quantum=allow_quantum,
            allow_brute_force=allow_brute_force,
        )
        spec = resolve(equivalence, detect_capabilities(oracle1, oracle2, ctx))
        return spec, oracle1, oracle2, ctx

    # -- matching --------------------------------------------------------------
    def match(
        self,
        circuit1,
        circuit2,
        equivalence: EquivalenceType | str,
        *,
        epsilon: float | None = None,
        rng: _random.Random | int | None = None,
        allow_quantum: bool | None = None,
        allow_brute_force: bool | None = None,
        swap_test: SwapTest | None = None,
    ) -> MatchingResult:
        """Match one pair under a promised equivalence class.

        Keyword overrides fall back to the engine's config; semantics are
        those of :func:`repro.core.match`.

        Raises:
            MatchingError: when the two circuits differ in width.
            UnsupportedEquivalenceError: when no dispatch-table row is
                eligible (message generated from the class's rows).
        """
        spec, oracle1, oracle2, ctx = self._prepare(
            circuit1,
            circuit2,
            equivalence,
            epsilon=epsilon,
            rng=rng,
            allow_quantum=allow_quantum,
            allow_brute_force=allow_brute_force,
            swap_test=swap_test,
        )
        return spec(oracle1, oracle2, ctx)

    def match_many(
        self,
        pairs: Iterable[tuple],
        *,
        rng: _random.Random | int | None = None,
    ) -> list[BatchEntry]:
        """Match ``(circuit1, circuit2, equivalence)`` triples, one entry each.

        The guarded per-pair dispatch the service executors run: a
        :class:`~repro.exceptions.ReproError` (circuits of different widths,
        no eligible matcher, budget exhausted, promise violation) becomes a
        failed :class:`BatchEntry` instead of propagating.  ``rng`` is
        shared by all the pairs.
        """
        entries: list[BatchEntry] = []
        for index, (circuit1, circuit2, equivalence) in enumerate(pairs):
            if isinstance(equivalence, str):
                equivalence = EquivalenceType.from_label(equivalence)
            matcher_name: str | None = None
            try:
                spec, oracle1, oracle2, ctx = self._prepare(
                    circuit1, circuit2, equivalence, rng=rng
                )
                matcher_name = spec.name
                result = spec(oracle1, oracle2, ctx)
            except ReproError as error:
                entry = BatchEntry(
                    index=index,
                    equivalence=equivalence,
                    result=None,
                    error=f"{type(error).__name__}: {error}",
                    matcher=matcher_name,
                )
            else:
                entry = BatchEntry(
                    index=index,
                    equivalence=equivalence,
                    result=result,
                    matcher=matcher_name,
                )
            entries.append(entry)
        return entries


def _num_lines(oracle) -> int:
    if isinstance(oracle, QuantumCircuitOracle):
        return oracle.num_qubits
    return oracle.num_lines


#: Lazily built engine behind the module-level :func:`repro.core.match`.
_DEFAULT_ENGINE: MatchingEngine | None = None


def get_default_engine() -> MatchingEngine:
    """The shared default engine the ``repro.core.match`` wrapper uses."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = MatchingEngine()
    return _DEFAULT_ENGINE
