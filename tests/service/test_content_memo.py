"""Seeded soundness tests of the process-wide content fingerprint memo.

A manifest pair's cache key is built from fingerprints looked up by the
SHA-256 of each circuit file's bytes.  The memo is sound only if a
memo-path key always equals the key of a freshly parsed, freshly
fingerprinted circuit, and if every promise built on keys — byte-identical
serial, parallel and sharded stores — holds whether the memo starts cold
or warm.  Every failure message names its seed, so a failing case replays.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro.service.fingerprint as fingerprint_module
from repro.circuits.io import real
from repro.circuits.library import increment
from repro.core.engine import MatchingConfig
from repro.core.equivalence import EquivalenceType
from repro.service.cache import build_cache
from repro.service.executor import ParallelExecutor
from repro.service.fingerprint import (
    FingerprintRegistry,
    build_registry,
    content_digest,
    content_memo_clear,
    content_memo_size,
    pair_key,
)
from repro.service.pipeline import MatchingService, merge_stores
from repro.service.workload import CorpusManifest, generate_corpus

SEEDS = (3, 11, 29)
SCHEMES = ("auto", "exact", "probe")
INVERSE = (False, True)


@pytest.fixture(autouse=True)
def cold_memo():
    content_memo_clear()
    yield
    content_memo_clear()


def _policy(config):
    return build_registry(config.fingerprint_scheme, probe_count=config.probe_count)


def _corpus(root, seed):
    return generate_corpus(
        root, num_lines=4, families=("random", "library"), pairs_per_class=1, seed=seed
    )


def _fresh_keys(root, manifest, config) -> dict[str, str]:
    """Each pair's key from freshly parsed circuits, bypassing the memo."""
    registry = _policy(config)
    keys = {}
    for entry in manifest.entries:
        fingerprints = [
            registry.fingerprint(
                real.read_real(root / path), with_inverse=config.with_inverse
            )
            for path in (entry.circuit1, entry.circuit2)
        ]
        keys[entry.pair_id] = pair_key(
            *fingerprints, EquivalenceType.from_label(entry.equivalence), config
        )
    return keys


def _run_keys(root, config) -> dict[str, str]:
    report = MatchingService(config, cache=build_cache()).run_manifest(root, seed=1)
    return {record["pair_id"]: record["cache_key"] for record in report.records}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("with_inverse", INVERSE)
def test_memo_keys_equal_freshly_fingerprinted_keys(
    tmp_path, seed, scheme, with_inverse
):
    manifest = _corpus(tmp_path, seed)
    config = MatchingConfig(fingerprint_scheme=scheme, with_inverse=with_inverse)
    expected = _fresh_keys(tmp_path, manifest, config)
    cold = _run_keys(tmp_path, config)
    assert content_memo_size() > 0, f"seed={seed}"
    warm = _run_keys(tmp_path, config)
    assert cold == expected, f"seed={seed}: cold-memo keys differ"
    assert warm == expected, f"seed={seed}: warm-memo keys differ"


@pytest.mark.parametrize("seed", SEEDS)
def test_configs_sharing_one_memo_keep_their_own_keys(tmp_path, seed):
    # One process-wide memo serves every scheme and access policy: the
    # scheme, probe count and with_inverse in the memo key keep them apart.
    manifest = _corpus(tmp_path, seed)
    for scheme in SCHEMES:
        for with_inverse in INVERSE:
            config = MatchingConfig(fingerprint_scheme=scheme, with_inverse=with_inverse)
            assert _run_keys(tmp_path, config) == _fresh_keys(
                tmp_path, manifest, config
            ), f"seed={seed} scheme={scheme} with_inverse={with_inverse}"


def test_a_warm_pass_parses_no_file(tmp_path, monkeypatch):
    _corpus(tmp_path, SEEDS[0])
    cache = build_cache()
    MatchingService(cache=cache).run_manifest(tmp_path, seed=1)
    parsed = []
    original = real.read_real
    monkeypatch.setattr(real, "read_real", lambda path: parsed.append(path) or original(path))
    warm = MatchingService(cache=cache).run_manifest(tmp_path, seed=1)
    assert warm.cache_hits == warm.total > 0
    assert parsed == []


def test_equal_bytes_under_two_names_share_one_entry(tmp_path):
    first = tmp_path / "first.real"
    second = tmp_path / "second.real"
    real.write_real(increment(4), first)
    shutil.copyfile(first, second)
    registry = _policy(MatchingConfig())
    loads = []

    def loader(path):
        return lambda: loads.append(path) or real.read_real(path)

    fps = [registry.fingerprint_file(path, loader(path)) for path in (first, second)]
    assert fps[0] == fps[1]
    assert loads == [first]
    assert content_memo_size() == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_a_file_rewritten_between_runs_misses(tmp_path, seed):
    manifest = _corpus(tmp_path, seed)
    config = MatchingConfig()
    _run_keys(tmp_path, config)
    # Overwrite one circuit with another entry's different circuit.
    entries = manifest.entries
    target = tmp_path / entries[0].circuit1
    donor = next(
        tmp_path / entry.circuit2
        for entry in entries
        if content_digest(tmp_path / entry.circuit2) != content_digest(target)
    )
    shutil.copyfile(donor, target)
    assert _run_keys(tmp_path, config) == _fresh_keys(
        tmp_path, CorpusManifest.load(tmp_path / "manifest.json"), config
    ), f"seed={seed}"


def test_equal_policies_share_one_entry(tmp_path):
    path = tmp_path / "inc.real"
    real.write_real(increment(4), path)
    loads = []
    for registry in (build_registry("auto"), FingerprintRegistry()):
        registry.fingerprint_file(path, lambda: loads.append(path) or real.read_real(path))
    assert loads == [path]
    assert content_memo_size() == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_a_file_rewritten_during_its_parse_is_not_remembered(
    tmp_path, monkeypatch, seed
):
    # The memo outlives the run.  Had the parse of the rewritten file
    # been filed under the bytes hashed before it, a later run over
    # those original bytes would get the other circuit's key, and the
    # result cache would replay the other circuit's verdict.
    manifest = _corpus(tmp_path, seed)
    config = MatchingConfig()
    target = tmp_path / manifest.entries[0].circuit1
    original_bytes = target.read_bytes()
    donor = next(
        tmp_path / entry.circuit2
        for entry in manifest.entries
        if content_digest(tmp_path / entry.circuit2) != content_digest(target)
    )
    original = real.read_real

    def rewriting_read(path):
        if Path(path) == target:
            shutil.copyfile(donor, target)
        return original(path)

    monkeypatch.setattr(real, "read_real", rewriting_read)
    _run_keys(tmp_path, config)
    monkeypatch.setattr(real, "read_real", original)
    target.write_bytes(original_bytes)
    assert _run_keys(tmp_path, config) == _fresh_keys(
        tmp_path, manifest, config
    ), f"seed={seed}"


@pytest.mark.parametrize("seed", SEEDS)
def test_the_memo_never_exceeds_its_bound(tmp_path, monkeypatch, seed):
    monkeypatch.setattr(fingerprint_module, "CONTENT_MEMO_SIZE", 5)
    manifest = _corpus(tmp_path, seed)
    registry = _policy(MatchingConfig())
    sizes = []
    for entry in manifest.entries:
        for path in (tmp_path / entry.circuit1, tmp_path / entry.circuit2):
            registry.fingerprint_file(path, lambda path=path: real.read_real(path))
            sizes.append(content_memo_size())
    assert max(sizes) == 5, f"seed={seed}"
    # The most recently used entry survives eviction.
    last = tmp_path / manifest.entries[-1].circuit2
    registry.fingerprint_file(last, pytest.fail)


def _stores(root, work, config, *, cold_memo: bool) -> list[bytes]:
    """Serial, 2-worker and 3-shard-merged stores, each in manifest order."""

    def run(name, **options):
        if cold_memo:
            content_memo_clear()
        store = work / f"{name}.jsonl"
        executor = options.pop("executor", None)
        MatchingService(config, executor=executor, cache=build_cache()).run_manifest(
            root, store_path=store, seed=5, **options
        )
        return store

    work.mkdir()
    run("serial")
    parallel = run("parallel", executor=ParallelExecutor(workers=2))
    shards = [run(f"shard{index}", shard=(index, 3)) for index in range(3)]
    merge_stores(work / "parallel-sorted.jsonl", [parallel])
    merge_stores(work / "merged.jsonl", shards)
    return [
        (work / name).read_bytes()
        for name in ("serial.jsonl", "parallel-sorted.jsonl", "merged.jsonl")
    ]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("with_inverse", INVERSE)
def test_stores_are_byte_identical_with_a_cold_or_warm_memo(
    tmp_path, scheme, with_inverse
):
    seed = SEEDS[0]
    corpus = tmp_path / "corpus"
    _corpus(corpus, seed)
    config = MatchingConfig(fingerprint_scheme=scheme, with_inverse=with_inverse)
    cold = _stores(corpus, tmp_path / "cold", config, cold_memo=True)
    _run_keys(corpus, config)  # every file of the corpus is now memoised
    warm = _stores(corpus, tmp_path / "warm", config, cold_memo=False)
    assert len(set(cold + warm)) == 1, f"seed={seed}"
