"""Unit tests for corpus generation and the manifest format."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import ReversibleCircuit
from repro.core.equivalence import EquivalenceType, Hardness, classify
from repro.exceptions import ServiceError
from repro.service.fingerprint import build_registry
from repro.service.workload import (
    DEFAULT_FAMILIES,
    KNOWN_FAMILIES,
    WIDE_MAX_LINES,
    WIDE_MIN_LINES,
    CorpusManifest,
    generate_corpus,
    load_entry_circuits,
    tractable_classes,
    wide_classes,
)


class TestTractableClasses:
    def test_excludes_hard_and_conditional_classes(self):
        classes = tractable_classes()
        assert EquivalenceType.NP_I in classes
        assert EquivalenceType.I_I in classes
        for equivalence in classes:
            assert classify(equivalence) not in (
                Hardness.UNIQUE_SAT_HARD,
                Hardness.CONDITIONALLY_EASY,
            )
        assert len(classes) == 8


class TestGenerateCorpus:
    def test_layout_and_manifest(self, tmp_path):
        manifest = generate_corpus(
            tmp_path, num_lines=4, pairs_per_class=2, seed=99
        )
        expected = len(DEFAULT_FAMILIES) * len(tractable_classes()) * 2
        assert len(manifest.entries) == expected
        assert (tmp_path / "manifest.json").exists()
        for entry in manifest.entries:
            assert (tmp_path / entry.circuit1).exists()
            assert (tmp_path / entry.circuit2).exists()
            assert entry.num_lines == 4

    def test_deterministic_given_seed(self, tmp_path):
        dir1, dir2 = tmp_path / "one", tmp_path / "two"
        m1 = generate_corpus(dir1, num_lines=4, seed=7)
        m2 = generate_corpus(dir2, num_lines=4, seed=7)
        assert m1.to_dict() == m2.to_dict()
        for entry in m1.entries:
            assert (dir1 / entry.circuit1).read_bytes() == (
                dir2 / entry.circuit1
            ).read_bytes()

    def test_all_sixteen_classes_supported(self, tmp_path):
        manifest = generate_corpus(
            tmp_path,
            classes=tuple(EquivalenceType),
            families=("random",),
            seed=3,
        )
        assert len(manifest.entries) == 16
        assert set(manifest.classes) == {eq.label for eq in EquivalenceType}

    def test_equivalent_families_are_equivalent(self, tmp_path):
        manifest = generate_corpus(
            tmp_path,
            classes=(EquivalenceType.I_I,),
            families=("random", "library"),
            seed=21,
        )
        for entry in manifest.entries:
            c1, c2 = load_entry_circuits(entry, tmp_path)
            assert entry.expected_equivalent
            assert c1.truth_table() == c2.truth_table()  # I-I: literally equal

    def test_adversarial_pairs_are_near_misses(self, tmp_path):
        manifest = generate_corpus(
            tmp_path,
            classes=(EquivalenceType.I_I,),
            families=("adversarial",),
            pairs_per_class=3,
            seed=5,
        )
        for entry in manifest.entries:
            assert not entry.expected_equivalent
            c1, c2 = load_entry_circuits(entry, tmp_path)
            differing = sum(
                1
                for a, b in zip(c1.truth_table(), c2.truth_table())
                if a != b
            )
            # One appended transposition: exactly two entries swapped.
            assert differing == 2

    def test_rejects_unknown_family_and_bad_count(self, tmp_path):
        with pytest.raises(ServiceError):
            generate_corpus(tmp_path, families=("bogus",))
        with pytest.raises(ServiceError):
            generate_corpus(tmp_path, pairs_per_class=0)

    def test_adversarial_family_needs_two_lines(self, tmp_path):
        # On one line the transposition degenerates to a NOT gate — a
        # genuine negation witness — so the family refuses the width.
        with pytest.raises(ServiceError, match="num_lines >= 2"):
            generate_corpus(tmp_path, num_lines=1, families=("adversarial",))
        generate_corpus(
            tmp_path, num_lines=1, families=("random",), seed=1
        )  # other families are fine on one line


class TestWideFamily:
    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("wide")
        manifest = generate_corpus(
            root, families=("wide",), pairs_per_class=2, seed=13
        )
        return root, manifest

    def test_wide_is_a_known_optin_family(self):
        assert "wide" in KNOWN_FAMILIES
        assert "wide" not in DEFAULT_FAMILIES

    def test_entries_are_wide_and_classically_easy(self, wide):
        _, manifest = wide
        assert manifest.entries
        for entry in manifest.entries:
            assert entry.family == "wide"
            assert WIDE_MIN_LINES <= entry.num_lines <= WIDE_MAX_LINES
            assert classify(EquivalenceType.from_label(entry.equivalence)) in (
                Hardness.TRIVIAL,
                Hardness.CLASSICAL_EASY,
            )
        # Default (tractable) classes are silently narrowed to the wide set.
        labels = {entry.equivalence for entry in manifest.entries}
        assert labels == {eq.label for eq in wide_classes()}

    def test_circuit_files_match_the_recorded_widths(self, wide):
        root, manifest = wide
        for entry in manifest.entries[:4]:
            circuit1, circuit2 = load_entry_circuits(entry, root)
            assert circuit1.num_lines == circuit2.num_lines == entry.num_lines

    def test_odd_indices_are_near_miss_variants(self, wide):
        _, manifest = wide
        for entry in manifest.entries:
            index = int(entry.pair_id.rsplit("-", 1)[1])
            assert entry.expected_equivalent is (index % 2 == 0)

    def test_near_misses_are_probe_distinct_from_their_twin(self, wide):
        """The whole point of the family: the appended transposition sits
        on the probe set, so probe digests distinguish the near-miss from
        the unperturbed circuit at any probe count."""
        root, manifest = wide
        registry = build_registry("probe", probe_count=1)
        near_misses = [
            entry for entry in manifest.entries if not entry.expected_equivalent
        ]
        assert near_misses
        for entry in near_misses[:3]:
            circuit1, _ = load_entry_circuits(entry, root)
            twin = ReversibleCircuit(
                circuit1.num_lines, circuit1.gates[:-1]
            )  # strip the appended transposition
            assert (
                registry.fingerprint(circuit1).digest
                != registry.fingerprint(twin).digest
            )

    def test_deterministic_given_seed(self, tmp_path):
        m1 = generate_corpus(
            tmp_path / "a", families=("wide",), pairs_per_class=1, seed=3
        )
        m2 = generate_corpus(
            tmp_path / "b", families=("wide",), pairs_per_class=1, seed=3
        )
        assert m1.to_dict() == m2.to_dict()


class TestManifestFormat:
    def test_save_load_roundtrip(self, tmp_path):
        manifest = generate_corpus(tmp_path, families=("random",), seed=1)
        loaded = CorpusManifest.load(tmp_path / "manifest.json")
        assert loaded == manifest

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.raises(ServiceError, match="not valid JSON"):
            CorpusManifest.load(path)

    def test_load_rejects_wrong_format_marker(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ServiceError, match="not a corpus manifest"):
            CorpusManifest.load(path)

    @pytest.mark.parametrize(
        "field", ["num_lines", "seed", "families", "classes", "entries"]
    )
    def test_header_missing_field_is_reported(self, tmp_path, field):
        manifest = generate_corpus(tmp_path, families=("random",), seed=1)
        data = manifest.to_dict()
        del data[field]
        with pytest.raises(
            ServiceError, match=f"corpus manifest is missing field '{field}'"
        ):
            CorpusManifest.from_dict(data)

    @pytest.mark.parametrize("label", ["Q-Q", "", 7, None])
    def test_entry_with_an_unknown_label_is_reported(self, tmp_path, label):
        manifest = generate_corpus(tmp_path, families=("random",), seed=1)
        data = manifest.to_dict()
        data["entries"][0]["equivalence"] = label
        pair_id = data["entries"][0]["pair_id"]
        with pytest.raises(ServiceError) as raised:
            CorpusManifest.from_dict(data)
        assert str(raised.value) == (
            f"corpus entry {pair_id!r} has unknown equivalence label {label!r}"
        )

    def test_entries_carry_their_parsed_class(self, tmp_path):
        manifest = generate_corpus(tmp_path, families=("random",), seed=1)
        data = manifest.to_dict()
        data["entries"][0]["equivalence"] = "np_i"  # a spelling from_label accepts
        entries = CorpusManifest.from_dict(data).entries
        assert entries[0].equivalence == "np_i"
        assert entries[0].equivalence_type is EquivalenceType.NP_I
        assert all(
            entry.equivalence_type is EquivalenceType.from_label(entry.equivalence)
            for entry in entries
        )

    def test_entry_missing_field_is_reported(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            '{"format": "repro-corpus/v1", "num_lines": 4, "seed": 1, '
            '"families": [], "classes": [], "entries": [{"pair_id": "x"}]}',
            encoding="utf-8",
        )
        with pytest.raises(ServiceError, match="missing field"):
            CorpusManifest.load(path)
