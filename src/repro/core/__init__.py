"""The paper's core contribution: Boolean matching of reversible circuits.

Architecture: Table 1 of the paper is a *capability matrix* — which X-Y
equivalence classes are tractable given which resources — and the package
mirrors it with one dispatch table:

* :mod:`repro.core.registry` — the table.  For every class it lists the
  algorithms of :mod:`repro.core.matchers` (uniform
  ``matcher(oracle1, oracle2, ctx)`` signature) in resolution order, each
  with its required :class:`~repro.core.registry.Capability` set (inverse
  oracles, quantum access, brute-force opt-in) and its cost; resolution
  picks the first eligible row along the fallback chain
  exact -> randomised -> quantum -> (opt-in) brute force.
* :mod:`repro.core.engine` — the :class:`MatchingEngine` facade holding a
  :class:`MatchingConfig`, with ``engine.match`` (one pair) and
  ``engine.match_many`` (the guarded per-pair dispatch: failures become
  entries, not exceptions).  Many-pair runs go through
  :meth:`repro.service.MatchingService.match_pairs`.
* :func:`match` — the historical entry point, kept as a thin wrapper over a
  shared default engine.

Public surface:

* :class:`EquivalenceType`, :class:`Hardness`, :func:`classify`,
  :func:`dominates`, :func:`domination_edges` — the 16 X-Y equivalence
  classes and the Fig. 1 lattice/classification.
* :func:`match` — dispatch to the Section 4 algorithm for a promised class.
* :class:`MatchingEngine`, :class:`MatchingConfig`, :class:`BatchEntry` —
  the configured facade and its per-pair outcome.
* :class:`Capability`, :class:`MatcherKind`, :class:`MatcherSpec`,
  :func:`detect_capabilities` — the dispatch table's vocabulary.
* :class:`MatchingResult`, :class:`MatchContext` — result/context types.
* :func:`verify_match`, :func:`make_instance` — witness verification and
  promised-instance construction.
* :mod:`repro.core.matchers` — the individual algorithms (one per class).
* :mod:`repro.core.hardness` — the Section 5 UNIQUE-SAT reductions.
"""

from __future__ import annotations

from repro.core import hardness, matchers
from repro.core.decision import DecisionOutcome, decide
from repro.core.dispatcher import match
from repro.core.engine import (
    BatchEntry,
    MatchingConfig,
    MatchingEngine,
    get_default_engine,
)
from repro.core.equivalence import (
    TABLE1_ROWS,
    EquivalenceType,
    Hardness,
    SideCondition,
    Table1Row,
    classify,
    dominates,
    domination_edges,
)
from repro.core.problem import MatchContext, MatchingResult
from repro.core.registry import (
    Capability,
    MatcherKind,
    MatcherSpec,
    detect_capabilities,
)
from repro.core.verify import (
    GroundTruth,
    make_instance,
    reconstructed_circuit,
    verify_match,
)

__all__ = [
    "EquivalenceType",
    "SideCondition",
    "Hardness",
    "classify",
    "dominates",
    "domination_edges",
    "Table1Row",
    "TABLE1_ROWS",
    "MatchContext",
    "MatchingResult",
    "GroundTruth",
    "match",
    "decide",
    "DecisionOutcome",
    "MatchingEngine",
    "MatchingConfig",
    "BatchEntry",
    "get_default_engine",
    "Capability",
    "MatcherKind",
    "MatcherSpec",
    "detect_capabilities",
    "make_instance",
    "reconstructed_circuit",
    "verify_match",
    "matchers",
    "hardness",
]
