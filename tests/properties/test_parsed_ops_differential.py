"""Differential harness: circuits parsed into ops vs. circuits built from gates.

``repro.circuits.io.real.parse_real`` lowers each gate line straight into
the op table the evaluation kernels read, and a parsed circuit builds its
gate objects only when code asks for them.  Neither may change what the
circuit is, so every case here parses one text twice — with the library,
and with the gate-by-gate reference parser in ``tests/real_reference.py``
— and holds the two together:

* ``compiled()`` equals ``compile_gates`` of the reference's gates, and
  the gates built on demand equal the reference's;
* the structure-fingerprint digest and ``hash()`` are the reference's;
* ``inverse()`` equals the reference's inverse, in ``.gates`` and in
  ``.compiled()``;
* ``append`` after a parse, ``copy()`` and a ``pickle`` round trip behave
  as they do on the reference;
* ``CircuitOracle.query``/``query_inverse``/``query_many`` answer what the
  reference's ``simulate`` does.

Each property starts from a freshly parsed circuit, so it sees the
ops-only state, never gates an earlier check built.  Inputs: seeded
``circuit_to_real`` output at every width from 1 to 24, every
``generate_corpus`` family, and the parse differential's hand-varied
texts (``f2``/``f3`` lines, negative controls, upper-case and zero-padded
mnemonics).  Every case derives its rng from a fixed seed, and every
assertion message names the seed and the case, so a failure replays.
"""

from __future__ import annotations

import pickle
import random
import re
from pathlib import Path
from unittest import mock

import pytest

import repro.service.fingerprint as fingerprint_module
from repro.circuits import bitslice
from repro.circuits.bitslice import compile_gates
from repro.circuits.gates import Gate, MCTGate, SwapGate, not_gate
from repro.circuits.io.real import circuit_to_real, parse_real
from repro.circuits.random import random_mct_gate
from repro.oracles import CircuitOracle
from repro.service.fingerprint import build_registry
from repro.service.workload import KNOWN_FAMILIES, generate_corpus
from tests import real_reference
from tests.properties.test_bitslice_differential import SEED, _random_mixed_circuit
from tests.properties.test_parse_differential import _variant_text

WIDTHS = range(1, 25)
#: Serialised random circuits per width: 24 x 5 = 120.
CASES_PER_WIDTH = 5
#: Hand-varied texts, each with some mnemonics respelled.
VARIANT_CASES = 150
#: Inputs each oracle check queries, beside 0 and the all-ones input.
QUERIES_PER_CASE = 6


def _rng(kind: str, *case) -> random.Random:
    return random.Random(":".join(map(str, (SEED, "parsed-ops", kind, *case))))


def _respelled(rng: random.Random, text: str) -> str:
    """``text`` with some ``t<k>`` mnemonics upper-cased or zero-padded.

    Both spellings parse like ``t<k>`` but are not lowered directly, so
    they mix the parser's two paths within one file.
    """

    def respell(match: re.Match) -> str:
        draw = rng.random()
        if draw < 0.15:
            return "T" + match.group(1)
        if draw < 0.3:
            return "t0" + match.group(1)
        return match.group(0)

    return re.sub(r"(?m)^t(\d+)", respell, text)


def _structure_digest(circuit) -> str:
    # With the width limit at 0 the ``exact`` ladder answers every width
    # with the gate structure.
    with mock.patch.object(fingerprint_module, "FUNCTIONAL_WIDTH_LIMIT", 0):
        return build_registry("exact").fingerprint(circuit).digest


def assert_ops_built_like_reference(text: str, case: str, rng: random.Random) -> None:
    """A circuit parsed into ops behaves as the gate-built reference does."""
    context = f"{case}\n{text}"
    reference = real_reference.parse_real(text, name="c")
    gates = reference.gates
    num_lines = reference.num_lines

    def parsed():
        return parse_real(text, name="c")

    # The op table, and the gates built from it on demand.
    circuit = parsed()
    assert circuit.compiled() == compile_gates(gates), context
    assert len(circuit) == circuit.num_gates == len(gates), context
    assert circuit.gates == gates, context
    assert [repr(gate) for gate in circuit] == [repr(gate) for gate in gates], context
    assert circuit.compiled() == compile_gates(circuit.gates), context

    # Identity: the structure fingerprint, hash() and ==.
    assert _structure_digest(parsed()) == _structure_digest(reference), context
    assert hash(parsed()) == hash(reference), context
    assert parsed() == reference and reference == parsed(), context

    # The inverse, read through its ops first and through its gates first.
    expected_inverse = reference.inverse()
    assert parsed().inverse().compiled() == compile_gates(expected_inverse.gates), context
    assert parsed().inverse().gates == expected_inverse.gates, context
    assert parsed().inverse().name == expected_inverse.name, context

    # append after a parse.
    gate = random_mct_gate(num_lines, rng)
    circuit = parsed().append(gate)
    expected = reference.copy().append(gate)
    assert circuit.gates == expected.gates, context
    assert circuit.compiled() == compile_gates(expected.gates), context

    # copy() shares the ops; appending to the copy leaves the original be.
    original = parsed()
    duplicate = original.copy(name="d")
    assert duplicate.name == "d" and duplicate == reference, context
    assert duplicate.compiled() is original.compiled(), context
    duplicate.append(gate)
    assert len(original) == len(gates), context
    assert original.compiled() == compile_gates(gates), context
    assert duplicate.compiled() == compile_gates(expected.gates), context

    # A pickle round trip, before and after the gates are built.
    with_gates = parsed()
    assert with_gates.gates == gates, context
    for circuit in (parsed(), with_gates):
        restored = pickle.loads(pickle.dumps(circuit))
        assert restored.name == "c" and restored.num_lines == num_lines, context
        assert restored.compiled() == compile_gates(gates), context
        assert restored == reference, context

    # Oracle queries against the reference's scalar simulate.
    values = {0, (1 << num_lines) - 1}
    values.update(rng.randrange(1 << num_lines) for _ in range(QUERIES_PER_CASE))
    values = sorted(values)
    oracle = CircuitOracle(parsed(), with_inverse=True)
    for value in values:
        message = f"{context}\ninput {value}"
        assert oracle.query(value) == reference.simulate(value), message
        assert oracle.query_inverse(value) == expected_inverse.simulate(value), message
    assert oracle.query_many(values) == [reference.simulate(v) for v in values], context
    assert oracle.query_inverse_many(values) == [
        expected_inverse.simulate(v) for v in values
    ], context


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("num_lines", WIDTHS)
def test_serialised_random_circuits(num_lines):
    for case in range(CASES_PER_WIDTH):
        rng = _rng("serialised", num_lines, case)
        text = circuit_to_real(_random_mixed_circuit(rng, num_lines))
        seed = f"seed {SEED}, width {num_lines}, case {case}"
        assert_ops_built_like_reference(text, seed, rng)


@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_generated_corpus_families(family, tmp_path):
    generate_corpus(
        tmp_path, num_lines=5, families=(family,), pairs_per_class=1, seed=SEED
    )
    paths = sorted(Path(tmp_path).glob("*.real"))
    assert paths, f"seed {SEED}, family {family}: no files generated"
    for path in paths:
        case = f"seed {SEED}, family {family}, file {path.name}"
        rng = _rng("family", family, path.name)
        assert_ops_built_like_reference(path.read_text(encoding="utf-8"), case, rng)


@pytest.mark.parametrize("block", range(5))
def test_varied_texts(block):
    for case in range(block, VARIANT_CASES, 5):
        rng = _rng("variant", case)
        text = _respelled(rng, _variant_text(rng))
        seed = f"seed {SEED}, variant case {case}"
        assert_ops_built_like_reference(text, seed, rng)


def test_varied_texts_cover_both_parser_paths():
    """The sweep above holds f2/f3 lines and respelled mnemonics."""
    texts = [
        _respelled(_rng("variant", case), _variant_text(_rng("variant", case)))
        for case in range(VARIANT_CASES)
    ]
    lines = [line.split()[0] for text in texts for line in text.splitlines() if line]
    seed = f"seed {SEED}, {VARIANT_CASES} variant cases"
    for mnemonic in ("f2", "f3", "t1", "T2", "t02"):
        assert mnemonic in lines, f"{seed}: no {mnemonic} line"


# ---------------------------------------------------------------------------
# Laziness and the scalar fallback
# ---------------------------------------------------------------------------
def test_parsing_and_querying_builds_no_gates(monkeypatch):
    """A parsed 16-line circuit answers queries without one gate object."""
    rng = _rng("count", 16)
    text = circuit_to_real(_random_mixed_circuit(rng, 16))
    case = f"seed {SEED}, 16-line count case"
    assert "f2 " in text and "t3 " in text, case
    built = []
    for kind in (MCTGate, SwapGate):
        original = kind.__post_init__

        def counting(self, original=original):
            built.append(self)
            original(self)

        monkeypatch.setattr(kind, "__post_init__", counting)

    circuit = parse_real(text)
    oracle = CircuitOracle(circuit, with_inverse=True)
    oracle.query(0)
    oracle.query_inverse(0)
    oracle.query_many(range(100))
    oracle.query_inverse_many(range(100))
    assert built == [], f"{case}: built {len(built)} gate objects"

    assert len(circuit.gates) == len(built) == len(circuit), case  # built once


class PhantomGate(Gate):
    """A user-defined gate kind: flips line 0, with no lowering."""

    @property
    def lines(self):
        return frozenset({0})

    @property
    def max_line(self):
        return 0

    def apply(self, value):
        return value ^ 1

    def inverse(self):
        return self

    def remapped(self, line_map):
        return self


def test_user_defined_gate_takes_the_scalar_fallback(monkeypatch):
    rng = _rng("fallback", 6)
    text = circuit_to_real(_random_mixed_circuit(rng, 6))
    case = f"seed {SEED}, fallback case"
    reference = real_reference.parse_real(text).append(PhantomGate()).append(not_gate(5))
    circuit = parse_real(text).append(PhantomGate()).append(not_gate(5))
    assert circuit.compiled() is None, case

    def no_kernel(*args):
        raise AssertionError(f"{case}: the batch kernel ran on a PhantomGate")

    monkeypatch.setattr(bitslice, "evaluate_compiled", no_kernel)
    oracle = CircuitOracle(circuit, with_inverse=True)
    inverse = reference.inverse()
    for value in range(1 << 6):
        message = f"{case}, input {value}"
        assert oracle.query(value) == reference.simulate(value), message
        assert oracle.query_inverse(value) == inverse.simulate(value), message
    assert oracle.query_many(range(64)) == [
        reference.simulate(v) for v in range(64)
    ], case
