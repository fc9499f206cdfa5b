"""Template library lookup through Boolean matching.

Section 1 of the paper motivates Boolean matching with template-based
reversible synthesis: instead of re-synthesising a function from scratch, a
synthesiser can recognise that the function matches an already-optimised
*template* up to input/output negations and permutations and reuse that
implementation after wiring in the witnesses.

:class:`TemplateLibrary` is the smallest useful realisation of that flow: a
named collection of template circuits plus a :meth:`TemplateLibrary.lookup`
that runs a Boolean matcher (from :mod:`repro.core`) of the requested
equivalence class against every template and returns the first verified hit
together with the witnesses needed to instantiate it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.transforms import transformed_circuit
from repro.exceptions import MatchingError, SynthesisError

__all__ = ["TemplateLibrary", "TemplateMatch"]


@dataclass(frozen=True)
class TemplateMatch:
    """The outcome of a successful library lookup.

    Attributes:
        template_name: name of the matching template.
        template: the template circuit stored in the library.
        result: the matching witnesses (``nu``/``pi`` functions) returned by
            the matcher; applying them to the template reproduces the target
            function.
        queries: number of oracle queries the matcher spent.
    """

    template_name: str
    template: ReversibleCircuit
    result: "object"
    queries: int

    def instantiate(self) -> ReversibleCircuit:
        """Build the target-equivalent circuit from the template + witnesses."""
        return transformed_circuit(
            self.template,
            nu_x=self.result.nu_x,
            pi_x=self.result.pi_x,
            nu_y=self.result.nu_y,
            pi_y=self.result.pi_y,
        )


class TemplateLibrary:
    """A named collection of template circuits searchable by Boolean matching."""

    def __init__(self) -> None:
        self._templates: dict[str, ReversibleCircuit] = {}

    def add(self, name: str, circuit: ReversibleCircuit) -> None:
        """Register a template under ``name`` (names must be unique)."""
        if name in self._templates:
            raise SynthesisError(f"template {name!r} already registered")
        self._templates[name] = circuit

    def __len__(self) -> int:
        return len(self._templates)

    def __contains__(self, name: str) -> bool:
        return name in self._templates

    def __iter__(self) -> Iterator[tuple[str, ReversibleCircuit]]:
        return iter(self._templates.items())

    def get(self, name: str) -> ReversibleCircuit:
        """Return the template registered under ``name``."""
        return self._templates[name]

    def lookup(
        self,
        target: ReversibleCircuit,
        equivalence=None,
        verify: bool = True,
    ) -> TemplateMatch:
        """Find a template matching ``target`` under ``equivalence``.

        Args:
            target: the circuit to be recognised.
            equivalence: an :class:`repro.core.EquivalenceType`; defaults to
                NP-I (input negation + permutation), the class template-based
                synthesis cares about most.
            verify: exhaustively verify the witnesses before accepting a hit
                (recommended — matchers assume the promise holds, and a
                library scan tests templates for which it does not).

        Returns:
            A :class:`TemplateMatch` for the first verified hit.

        Raises:
            MatchingError: if no template matches.
        """
        # Imported lazily: repro.core depends on repro.circuits, and this
        # module lives in the synthesis layer that sits beside core.
        from repro.core import EquivalenceType, match
        from repro.core.verify import verify_match
        from repro.oracles import CircuitOracle

        if equivalence is None:
            equivalence = EquivalenceType.NP_I

        for name, template in self._templates.items():
            if template.num_lines != target.num_lines:
                continue
            oracle_target = CircuitOracle(target, with_inverse=True)
            oracle_template = CircuitOracle(template, with_inverse=True)
            try:
                result = match(oracle_target, oracle_template, equivalence)
            except MatchingError:
                continue
            if verify and not verify_match(target, template, equivalence, result):
                continue
            queries = oracle_target.query_count + oracle_template.query_count
            return TemplateMatch(name, template, result, queries)
        raise MatchingError(
            f"no template matches the target under {equivalence!r}"
        )
