"""Unit tests for the template library (the paper's motivating application)."""

from __future__ import annotations

import pytest

from repro.circuits import library
from repro.circuits.random import random_line_permutation, random_negation
from repro.circuits.transforms import transformed_circuit
from repro.core import EquivalenceType
from repro.exceptions import MatchingError, SynthesisError
from repro.synthesis.templates import TemplateLibrary


@pytest.fixture
def small_library() -> TemplateLibrary:
    templates = TemplateLibrary()
    templates.add("increment", library.increment(4))
    templates.add("gray", library.gray_code(4))
    templates.add("toffoli_chain", library.toffoli_chain(4))
    return templates


class TestRegistry:
    def test_add_and_lookup_by_name(self, small_library):
        assert len(small_library) == 3
        assert "gray" in small_library
        assert small_library.get("gray").num_lines == 4

    def test_duplicate_names_rejected(self, small_library):
        with pytest.raises(SynthesisError):
            small_library.add("gray", library.gray_code(4))

    def test_iteration(self, small_library):
        names = {name for name, _ in small_library}
        assert names == {"increment", "gray", "toffoli_chain"}


class TestLookup:
    def test_recognises_np_i_transformed_template(self, small_library, rng):
        template = library.increment(4)
        nu = random_negation(4, rng)
        pi = random_line_permutation(4, rng)
        target = transformed_circuit(template, nu_x=nu, pi_x=pi)
        hit = small_library.lookup(target, EquivalenceType.NP_I)
        assert hit.template_name == "increment"
        assert hit.instantiate().functionally_equal(target)
        assert hit.queries > 0

    def test_recognises_output_side_transform(self, small_library, rng):
        template = library.gray_code(4)
        nu = random_negation(4, rng)
        target = transformed_circuit(template, nu_y=nu)
        hit = small_library.lookup(target, EquivalenceType.I_N)
        assert hit.template_name == "gray"
        assert hit.instantiate().functionally_equal(target)

    def test_no_match_raises(self, small_library, rng):
        from repro.circuits.random import random_circuit

        # A random 4-line cascade is (with overwhelming probability) not a
        # negation/permutation variant of any library entry.
        target = random_circuit(4, 30, rng)
        with pytest.raises(MatchingError):
            small_library.lookup(target, EquivalenceType.NP_I)

    def test_width_mismatch_is_skipped(self, small_library):
        target = library.increment(5)
        with pytest.raises(MatchingError):
            small_library.lookup(target, EquivalenceType.NP_I)
