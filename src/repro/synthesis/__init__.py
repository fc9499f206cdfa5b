"""Reversible-circuit synthesis substrate.

The paper motivates Boolean matching with template-based reversible logic
synthesis (Miller, Maslov & Dueck, DAC 2003).  This package provides the
pieces of that flow the reproduction needs:

* :mod:`repro.synthesis.transformation_based` — the transformation-based
  synthesis algorithm (basic and bidirectional) turning an arbitrary
  permutation into an MCT cascade.
* :mod:`repro.synthesis.templates` — a template library keyed by function,
  looked up through Boolean matching (the application of Section 1/6).
"""

from __future__ import annotations

from repro.synthesis.templates import TemplateLibrary, TemplateMatch
from repro.synthesis.transformation_based import (
    synthesize,
    synthesize_basic,
    synthesize_bidirectional,
)

__all__ = [
    "synthesize",
    "synthesize_basic",
    "synthesize_bidirectional",
    "TemplateLibrary",
    "TemplateMatch",
]
