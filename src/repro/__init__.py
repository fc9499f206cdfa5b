"""repro — reproduction of "Boolean Matching Reversible Circuits" (DAC 2024).

The package is organised around the paper's structure:

* :mod:`repro.circuits` — the reversible-circuit substrate (MCT gates,
  circuits, permutations, negation/permutation transform circuits, random
  generators, a benchmark-function library and RevLib/OpenQASM I/O).
* :mod:`repro.quantum` — a dense state-vector simulator with the swap test
  of Fig. 3, used by the quantum matching algorithms.
* :mod:`repro.oracles` — the black-box oracle/query-count model in which all
  complexities of Table 1 are stated.
* :mod:`repro.sat` — CNF data structures, a DPLL solver and UNIQUE-SAT
  instance generation, used by the hardness reductions of Section 5.
* :mod:`repro.synthesis` — transformation-based reversible synthesis, used to
  build circuits from permutations and for the template-matching application.
* :mod:`repro.core` — the paper's contribution: Boolean matchers for every
  tractable equivalence class (Section 4), the equivalence lattice of Fig. 1,
  and the UNIQUE-SAT hardness reductions of Section 5.
* :mod:`repro.baselines` — brute-force and classical collision-search
  baselines against which the paper's algorithms are compared.
* :mod:`repro.service` — the throughput layer: result caching keyed by
  oracle fingerprints, serial/parallel execution backends, corpus
  generation and the resumable :class:`~repro.service.MatchingService`
  pipeline.
* :mod:`repro.analysis` — scaling fits and report rendering for the
  benchmark harness.

Quick start::

    from repro import circuits, core

    c2 = circuits.library.hidden_weighted_bit(4)
    nu = [True, False, True, False]
    c1 = circuits.transforms.apply_input_negation(c2, nu)

    result = core.match(c1, c2, core.EquivalenceType.N_I)
    assert list(result.nu_x) == nu
"""

from __future__ import annotations

from repro import (
    analysis,
    baselines,
    circuits,
    core,
    oracles,
    quantum,
    sat,
    service,
    synthesis,
)
from repro.core import (
    EquivalenceType,
    MatchingConfig,
    MatchingEngine,
    MatchingResult,
    match,
)
from repro.version import __version__

__all__ = [
    "analysis",
    "baselines",
    "circuits",
    "core",
    "oracles",
    "quantum",
    "sat",
    "service",
    "synthesis",
    "EquivalenceType",
    "MatchingResult",
    "MatchingEngine",
    "MatchingConfig",
    "match",
    "__version__",
]
