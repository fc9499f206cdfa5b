"""The :class:`MatchingEngine` facade.

A configured front door to the capability-based matcher registry:

* :class:`MatchingConfig` — the policy knobs (epsilon, quantum permission,
  brute-force opt-in, inverse granting, query budget) bundled once instead
  of threaded through every call;
* :class:`MatchingEngine` — holds a config, a registry and shared randomness
  and exposes :meth:`~MatchingEngine.match` (one pair),
  :meth:`~MatchingEngine.solve` (a declarative
  :class:`~repro.core.problem.MatchingProblem`), and
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
from dataclasses import dataclass, replace

from repro.core.equivalence import EquivalenceType
from repro.core.problem import MatchContext, MatchingProblem, MatchingResult
from repro.core.registry import (
    Capability,
    MatcherRegistry,
    MatcherSpec,
    default_registry,
    detect_capabilities,
)
from repro.exceptions import ReproError
from repro.oracles.oracle import ReversibleOracle, as_oracle
from repro.quantum.oracle import QuantumCircuitOracle
from repro.quantum.swap_test import SwapTest

# Importing the matcher package populates the default registry.
import repro.core.matchers  # noqa: F401  (imported for registration side effect)

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
        matcher: name of the registry entry that ran (when resolution
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
    """Facade over the matcher registry: configured per-pair matching.

    Args:
        config: the :class:`MatchingConfig` policy; defaults are the
            historical :func:`repro.core.match` defaults.
        registry: the matcher registry to resolve against; defaults to the
            process-wide one the stock matchers register into.
        rng: engine-wide randomness (seed or ``random.Random``) used when a
            call does not pass its own.
        swap_test: optionally a shared pre-configured
            :class:`~repro.quantum.swap_test.SwapTest`.
    """

    def __init__(
        self,
        config: MatchingConfig | None = None,
        *,
        registry: MatcherRegistry | None = None,
        rng: _random.Random | int | None = None,
        swap_test: SwapTest | None = None,
    ) -> None:
        self._config = config if config is not None else MatchingConfig()
        self._registry = registry if registry is not None else default_registry()
        self._rng = rng
        self._swap_test = swap_test

    # -- introspection ---------------------------------------------------------
    @property
    def config(self) -> MatchingConfig:
        """The engine's policy configuration."""
        return self._config

    @property
    def registry(self) -> MatcherRegistry:
        """The registry the engine resolves matchers from."""
        return self._registry

    # -- coercion (the single place dispatch builds oracles) -------------------
    def _coerce(self, target, with_inverse: bool):
        """Coerce one matcher argument — the only coercion site on dispatch.

        Pre-built classical or quantum oracles pass through untouched (their
        own inverse/budget settings win).  Circuits and permutations are
        wrapped fresh, carrying the configured query budget.
        """
        if isinstance(target, (ReversibleOracle, QuantumCircuitOracle)):
            return target
        return as_oracle(
            target,
            with_inverse=with_inverse,
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
        with_inverse: bool | None = None,
    ) -> tuple[MatcherSpec, object, object, MatchingProblem, MatchContext]:
        """Coerce, detect capabilities and resolve — everything but running.

        The single dispatch path behind :meth:`plan`, :meth:`match` and
        :meth:`match_many`, so resolution happens exactly once per request.
        """
        if isinstance(equivalence, str):
            equivalence = EquivalenceType.from_label(equivalence)
        grant = self._config.with_inverse if with_inverse is None else with_inverse
        oracle1 = self._coerce(circuit1, grant)
        oracle2 = self._coerce(circuit2, grant)
        ctx = self._context(
            epsilon=epsilon,
            rng=rng,
            swap_test=swap_test,
            allow_quantum=allow_quantum,
            allow_brute_force=allow_brute_force,
        )
        capabilities = detect_capabilities(oracle1, oracle2, ctx)
        spec = self._registry.resolve(equivalence, capabilities)
        problem = MatchingProblem(
            equivalence=equivalence,
            num_lines=_num_lines(oracle1),
            with_inverse=Capability.INVERSE in capabilities,
            epsilon=ctx.epsilon,
        )
        return spec, oracle1, oracle2, problem, ctx

    def plan(
        self,
        circuit1,
        circuit2,
        equivalence: EquivalenceType | str,
        *,
        with_inverse: bool | None = None,
        allow_quantum: bool | None = None,
        allow_brute_force: bool | None = None,
    ) -> MatcherSpec:
        """Resolve which registered matcher *would* run, without running it."""
        spec, _, _, _, _ = self._prepare(
            circuit1,
            circuit2,
            equivalence,
            with_inverse=with_inverse,
            allow_quantum=allow_quantum,
            allow_brute_force=allow_brute_force,
        )
        return spec

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
        with_inverse: bool | None = None,
    ) -> MatchingResult:
        """Match one pair under a promised equivalence class.

        Keyword overrides fall back to the engine's config; semantics are
        those of :func:`repro.core.match`.

        Raises:
            UnsupportedEquivalenceError: when no registered matcher is
                eligible (message generated from the registry).
        """
        spec, oracle1, oracle2, problem, ctx = self._prepare(
            circuit1,
            circuit2,
            equivalence,
            epsilon=epsilon,
            rng=rng,
            allow_quantum=allow_quantum,
            allow_brute_force=allow_brute_force,
            swap_test=swap_test,
            with_inverse=with_inverse,
        )
        return spec(oracle1, oracle2, problem, ctx)

    def solve(
        self,
        problem: MatchingProblem,
        circuit1,
        circuit2,
        *,
        rng: _random.Random | int | None = None,
    ) -> MatchingResult:
        """Solve a declaratively specified :class:`MatchingProblem`.

        The problem's ``equivalence``, ``epsilon`` and ``with_inverse``
        drive dispatch; the circuits supply the oracles.
        """
        return self.match(
            circuit1,
            circuit2,
            problem.equivalence,
            epsilon=problem.epsilon,
            rng=rng,
            with_inverse=problem.with_inverse,
        )

    def match_many(
        self,
        pairs: Iterable[tuple],
        *,
        rng: _random.Random | int | None = None,
    ) -> list[BatchEntry]:
        """Match ``(circuit1, circuit2, equivalence)`` triples, one entry each.

        The guarded per-pair dispatch the service executors run: a
        :class:`~repro.exceptions.ReproError` (no eligible matcher, budget
        exhausted, promise violation) becomes a failed :class:`BatchEntry`
        instead of propagating.  ``rng`` is shared by all the pairs.
        """
        entries: list[BatchEntry] = []
        for index, (circuit1, circuit2, equivalence) in enumerate(pairs):
            if isinstance(equivalence, str):
                equivalence = EquivalenceType.from_label(equivalence)
            matcher_name: str | None = None
            try:
                spec, oracle1, oracle2, problem, ctx = self._prepare(
                    circuit1, circuit2, equivalence, rng=rng
                )
                matcher_name = spec.name
                result = spec(oracle1, oracle2, problem, ctx)
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

    # -- reconfiguration -------------------------------------------------------
    def with_config(self, **changes) -> "MatchingEngine":
        """A new engine sharing registry/rng but with config fields replaced."""
        return MatchingEngine(
            replace(self._config, **changes),
            registry=self._registry,
            rng=self._rng,
            swap_test=self._swap_test,
        )


def _num_lines(target) -> int:
    if isinstance(target, ReversibleOracle):
        return target.num_lines
    if isinstance(target, QuantumCircuitOracle):
        return target.num_qubits
    return getattr(target, "num_lines", 0)


#: Lazily built engine behind the module-level :func:`repro.core.match`.
_DEFAULT_ENGINE: MatchingEngine | None = None


def get_default_engine() -> MatchingEngine:
    """The shared default engine the ``repro.core.match`` wrapper uses."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = MatchingEngine()
    return _DEFAULT_ENGINE
