"""Differential harness: the table-driven ``.real`` parser vs. the reference.

``repro.circuits.io.real.parse_real`` resolves operands through one
per-file token table; the plain per-operand parser it replaced lives in
``tests/real_reference.py``.
Every case here is parsed by both:

* where the reference parses, the library must parse to the same circuit
  — name, ``num_lines``, gates (compared by value and by ``repr``) and each
  gate's ``max_line`` against the set-based definition ``max(gate.lines)``
  — with controls in the dataclass order the reference sorted them into;
* where the reference raises anything, the library must raise
  ``ParseError``.  The one input the reference accepts and the library
  rejects is a ``.variables`` header naming a variable twice.

Inputs: seeded ``circuit_to_real`` output at every width from 1 to 24,
every ``generate_corpus`` family, hand-varied texts (comments, upper-case
mnemonics, negative controls, ``f2``/``f3`` lines, repeated lines and
variables whose names start with ``-``) and seeded mutations of them into
malformed input.  Every case derives its rng from a fixed seed, and every
assertion message names the seed and the case, so a failure replays.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.circuits.gates import Control, MCTGate
from repro.circuits.io.real import circuit_to_real, parse_real
from repro.exceptions import ParseError
from repro.service.workload import KNOWN_FAMILIES, generate_corpus
from tests import real_reference
from tests.properties.test_bitslice_differential import SEED, _random_mixed_circuit

WIDTHS = range(1, 25)
#: Serialised random circuits per width: 24 x 10 = 240.
CASES_PER_WIDTH = 10
#: Hand-varied texts, and malformed mutations of further varied texts.
VARIANT_CASES = 300
MALFORMED_CASES = 600


def _rng(kind: str, *case) -> random.Random:
    return random.Random(":".join(map(str, (SEED, "parse", kind, *case))))


def _declares_a_variable_twice(text: str) -> bool:
    """Whether the last ``.variables`` header of ``text`` repeats a name."""
    names: list[str] = []
    for raw_line in text.splitlines():
        directive, _, rest = raw_line.split("#", 1)[0].strip().partition(" ")
        if directive.lower() == ".variables":
            names = rest.split()
    return len(set(names)) != len(names)


def assert_parses_alike(text: str, case: str, name: str | None = None) -> str:
    """Both parsers agree on ``text``: same circuit, or both reject it.

    Returns ``"parsed"``, ``"rejected"`` (by both) or ``"declared twice"``
    (accepted by the reference only).
    """
    try:
        expected = real_reference.parse_real(text, name=name)
    except Exception:  # the reference leaks several error types
        with pytest.raises(ParseError):
            parse_real(text, name=name)
        return "rejected"
    if _declares_a_variable_twice(text):
        with pytest.raises(ParseError, match="declared twice"):
            parse_real(text, name=name)
        return "declared twice"
    actual = parse_real(text, name=name)
    context = f"{case}\n{text}"
    assert actual.name == expected.name, context
    assert actual.num_lines == expected.num_lines, context
    assert actual.gates == expected.gates, context
    assert [repr(gate) for gate in actual.gates] == [
        repr(gate) for gate in expected.gates
    ], context
    assert [gate.max_line for gate in actual.gates] == [
        max(gate.lines) for gate in expected.gates
    ], context
    for gate in actual.gates:
        if isinstance(gate, MCTGate):
            assert gate.controls == tuple(sorted(gate.controls)), context
    return "parsed"


# ---------------------------------------------------------------------------
# Well-formed input
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("num_lines", WIDTHS)
def test_serialised_random_circuits(num_lines):
    for case in range(CASES_PER_WIDTH):
        rng = _rng("serialised", num_lines, case)
        circuit = _random_mixed_circuit(rng, num_lines)
        text = circuit_to_real(circuit)
        seed = f"seed {SEED}, width {num_lines}, case {case}"
        assert assert_parses_alike(text, seed, name=f"c{case}") == "parsed", seed


@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_generated_corpus_families(family, tmp_path):
    manifest = generate_corpus(
        tmp_path, num_lines=5, families=(family,), pairs_per_class=1, seed=SEED
    )
    paths = sorted(Path(tmp_path).glob("*.real"))
    assert len(paths) == 2 * len(manifest.entries)
    for path in paths:
        text = path.read_text(encoding="utf-8")
        case = f"seed {SEED}, family {family}, file {path.name}"
        assert assert_parses_alike(text, case, name=path.stem) == "parsed", case


def _uses_positively(gate, line: int) -> bool:
    if isinstance(gate, MCTGate):
        return line == gate.target or Control(line, True) in gate.controls
    return line in gate.lines


def _variant_text(rng: random.Random) -> str:
    """A hand-varied ``.real`` text over a random circuit's gates."""
    num_lines = rng.randint(1, 10)
    circuit = _random_mixed_circuit(rng, num_lines)
    names = [rng.choice("abcdpqxyz") + str(line) for line in range(num_lines)]
    gates = list(circuit)
    if num_lines >= 2 and rng.random() < 0.5:
        # One leading "-" always negates, so a variable named "-..." can
        # only be a negative control: keep the gates that use it so.
        line = rng.randrange(num_lines)
        gates = [gate for gate in gates if not _uses_positively(gate, line)]
        other = rng.choice([name for name in names if name != names[line]])
        # "-a" beside "a" makes "--a" the "-a" line and "-a" the "a" line.
        names[line] = rng.choice([f"-v{line}", "-" + other])
    lines = ["# variant", ".version 2.0"]
    if rng.random() < 0.8:
        directive = ".NUMVARS" if rng.random() < 0.2 else ".numvars"
        lines.append(f"{directive} {num_lines}")
    lines.append(".variables " + " ".join(names))
    lines.append(".inputs " + " ".join(names) + "  # ignored")
    lines.append(".begin")
    body: list[str] = []
    for gate in gates:
        if isinstance(gate, MCTGate):
            operands = [
                ("" if control.positive else "-") + names[control.line]
                for control in rng.sample(gate.controls, len(gate.controls))
            ]
            operands.append(names[gate.target])
            body.append(f"t{len(operands)} " + " ".join(operands))
        else:
            pair = [gate.line_a, gate.line_b]
            rng.shuffle(pair)
            operands = [names[line] for line in pair]
            controls = [
                line
                for line in range(num_lines)
                if line not in pair and not names[line].startswith("-")
            ]
            if controls and rng.random() < 0.5:
                operands.insert(0, names[rng.choice(controls)])
            body.append(f"f{len(operands)} " + " ".join(operands))
        if body and rng.random() < 0.15:
            body.append(rng.choice(body))  # a repeated gate line
    for gate_line in body:
        if rng.random() < 0.2:
            gate_line = gate_line[0].upper() + gate_line[1:]
        if rng.random() < 0.2:
            gate_line = "  " + gate_line.replace(" ", "\t ", 1) + "   # note"
        if rng.random() < 0.1:
            lines.append("# a comment line")
        lines.append(gate_line)
    lines.append(".end")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block", range(10))
def test_varied_texts(block):
    for case in range(block, VARIANT_CASES, 10):
        rng = _rng("variant", case)
        text = _variant_text(rng)
        seed = f"seed {SEED}, variant case {case}"
        assert assert_parses_alike(text, seed) == "parsed", seed


# ---------------------------------------------------------------------------
# Malformed input
# ---------------------------------------------------------------------------
def _mutate(rng: random.Random, text: str) -> str:
    """One seeded defect: a bad operand, mnemonic, header or placement."""
    lines = text.splitlines()
    begin = next(i for i, line in enumerate(lines) if line.lower() == ".begin")
    end = next(i for i, line in enumerate(lines) if line.lower() == ".end")
    header = next(
        i for i, line in enumerate(lines) if line.startswith(".variables")
    )
    gate_indices = list(range(begin + 1, end))
    kind = rng.randrange(12)
    if kind == 0:
        bad_mnemonics = ["t0", "T0", "f0", "f1 a0", "t", "tx a0"]
        lines.insert(begin + 1, rng.choice(bad_mnemonics))
    elif kind == 1:
        names = lines[header].split()[1:]
        lines[header] += " " + rng.choice(names)
        lines.insert(header, f".numvars {len(names) + 1}")
    elif kind == 2:
        lines.insert(begin, rng.choice([".numvars 0", ".numvars -2", ".numvars x"]))
        if rng.random() < 0.5:
            del lines[header]
    elif kind == 3:
        names = lines[header].split()[1:]
        name = rng.choice(names)
        lines.insert(end, rng.choice([f"t2 {name} {name}", f"f2 {name} {name}"]))
    elif kind == 4:
        names = lines[header].split()[1:]
        if len(names) >= 2:
            a, b = rng.sample(names, 2)
            repeats = [f"t3 {a} {a} {b}", f"f3 {a} {b} {b}", f"f3 {a} {a} {b}"]
            lines.insert(end, rng.choice(repeats))
    elif kind == 5:
        unknown = ["t1 nowhere", "t2 -nowhere a0", "t1 -", "f2 - --"]
        lines.insert(end, rng.choice(unknown))
    elif kind == 6 and gate_indices:
        index = rng.choice(gate_indices)
        tokens = lines[index].split()
        if len(tokens) > 1:
            del tokens[rng.randrange(1, len(tokens))]
        lines[index] = " ".join(tokens)
    elif kind == 7 and gate_indices:
        index = rng.choice(gate_indices)
        tokens = lines[index].split()
        tokens.append(rng.choice(tokens[1:] or ["a0"]))
        lines[index] = " ".join(tokens)
    elif kind == 8 and gate_indices:
        index = rng.choice(gate_indices)
        tokens = lines[index].split()
        tokens[-1] = "-" + tokens[-1]
        lines[index] = " ".join(tokens)
    elif kind == 9 and gate_indices:
        lines.insert(begin, lines[rng.choice(gate_indices)])
    elif kind == 10:
        lines = [
            line
            for line in lines
            if not line.lower().startswith((".numvars", ".variables"))
        ]
    else:
        unsupported = ["q2 a0 a1", "f4 a b c d", "f3 -a b c", "f2 -a b", "t2 a -a"]
        lines.insert(end, rng.choice(unsupported))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block", range(10))
def test_malformed_texts(block):
    rejected = 0
    for case in range(block, MALFORMED_CASES, 10):
        rng = _rng("malformed", case)
        text = _mutate(rng, _variant_text(rng))
        seed = f"seed {SEED}, malformed case {case}"
        rejected += assert_parses_alike(text, seed) != "parsed"
    assert rejected >= MALFORMED_CASES // 20
