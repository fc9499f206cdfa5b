"""Tests of the stat-vouched manifest memo behind ``CorpusManifest.load``.

A parsed manifest is reused only while its file's stat signature is the
one recorded with the parse and that parse began more than
``RACY_WINDOW_NS`` after the file last changed (the racy-git rule of
``stat_vouches``).  Every other case must read, decode and validate the
file again, and a load that fails must fail the same way every time.
Time moves forward by replacing the fingerprint module's clock, never by
sleeping.
"""

from __future__ import annotations

import builtins
import json
import os

import pytest

import repro.service.fingerprint as fingerprint_module
import repro.service.workload as workload
from repro.core.equivalence import EquivalenceType
from repro.exceptions import ServiceError
from repro.service.daemon import DaemonClient, MatchingDaemon
from repro.service.fingerprint import RACY_WINDOW_NS
from repro.service.workload import (
    MANIFEST_NAME,
    CorpusManifest,
    generate_corpus,
    manifest_memo_clear,
)


@pytest.fixture(autouse=True)
def cold_memo():
    manifest_memo_clear()
    yield
    manifest_memo_clear()


@pytest.fixture
def clock(monkeypatch):
    """Set the memo's clock: ``clock(ns)`` fixes the time it records."""

    def set_clock(ns: int) -> None:
        monkeypatch.setattr(fingerprint_module, "_clock", lambda: ns)

    return set_clock


@pytest.fixture
def opened(monkeypatch):
    """Every path ``open`` is called with, in order."""
    paths = []
    original = builtins.open

    def counting_open(file, *args, **kwargs):
        paths.append(os.fspath(file))
        return original(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return paths


def last_change(path) -> int:
    stat = os.stat(path)
    return max(stat.st_mtime_ns, stat.st_ctime_ns)


def write_manifest(path, labels) -> None:
    """A one-entry-per-label manifest; equal-length labels keep its size."""
    entries = [
        {
            "pair_id": f"pair-{index}",
            "circuit1": f"pair-{index}-c1.real",
            "circuit2": f"pair-{index}-c2.real",
            "equivalence": label,
            "family": "random",
            "num_lines": 3,
            "expected_equivalent": True,
            "seed": index,
        }
        for index, label in enumerate(labels)
    ]
    path.write_text(
        json.dumps({
            "format": "repro-corpus/v1",
            "num_lines": 3,
            "seed": 0,
            "families": ["random"],
            "classes": sorted(set(labels)),
            "entries": entries,
        }),
        encoding="utf-8",
    )


def rewrite_keeping_mtime(path, labels) -> None:
    """Rewrite ``path`` in place (same size, same inode), put its mtime
    back, and repeat until the ctime has moved on."""
    before = os.stat(path)
    for _ in range(1_000_000):
        write_manifest(path, labels)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        if os.stat(path).st_ctime_ns != before.st_ctime_ns:
            break
    else:
        pytest.fail("the manifest's ctime never moved")
    after = os.stat(path)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns,
    )


def labels_of(path) -> list[str]:
    return [entry.equivalence for entry in CorpusManifest.load(path).entries]


def test_an_unchanged_manifest_is_parsed_once(tmp_path, clock, opened):
    path = tmp_path / MANIFEST_NAME
    write_manifest(path, ["I-N", "N-I"])
    clock(last_change(path) + 5 * RACY_WINDOW_NS)
    first = CorpusManifest.load(path)
    assert opened == [str(path)]
    assert CorpusManifest.load(path) is first
    assert CorpusManifest.load(str(path)) is first
    assert opened == [str(path)]


def test_same_size_rewrite_under_the_old_mtime_is_reread(tmp_path, clock):
    path = tmp_path / MANIFEST_NAME
    write_manifest(path, ["I-N"])
    clock(last_change(path) + 5 * RACY_WINDOW_NS)
    assert labels_of(path) == ["I-N"]
    rewrite_keeping_mtime(path, ["N-I"])
    assert labels_of(path) == ["N-I"]


def test_a_parse_inside_the_racy_window_is_reread(tmp_path, clock, opened):
    # Recorded within the window of the file's last change: a rewrite in
    # the same timestamp tick may keep the whole stat signature, so the
    # parse is never trusted, not even once the clock moves on.
    path = tmp_path / MANIFEST_NAME
    write_manifest(path, ["I-N"])
    clock(last_change(path) + RACY_WINDOW_NS // 2)
    assert labels_of(path) == ["I-N"]
    before = os.stat(path)
    write_manifest(path, ["N-I"])
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    clock(last_change(path) + 5 * RACY_WINDOW_NS)
    assert labels_of(path) == ["N-I"]
    assert opened == [str(path), str(path)]


def test_a_manifest_replaced_by_a_new_inode_is_reread(tmp_path, clock):
    path = tmp_path / MANIFEST_NAME
    write_manifest(path, ["I-N"])
    before = os.stat(path)
    clock(last_change(path) + 5 * RACY_WINDOW_NS)
    assert labels_of(path) == ["I-N"]
    # Write the replacement beside the original first, so the old inode
    # is still in use when the new one is allocated.
    replacement = tmp_path / "manifest.json.new"
    write_manifest(replacement, ["N-I"])
    os.utime(replacement, ns=(before.st_atime_ns, before.st_mtime_ns))
    os.replace(replacement, path)
    after = os.stat(path)
    assert after.st_ino != before.st_ino
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert labels_of(path) == ["N-I"]


def test_a_malformed_manifest_fails_alike_on_every_load(tmp_path, clock):
    path = tmp_path / MANIFEST_NAME
    path.write_text("{not json", encoding="utf-8")
    clock(last_change(path) + 5 * RACY_WINDOW_NS)
    messages = []
    for _ in range(3):
        with pytest.raises(ServiceError, match="not valid JSON") as caught:
            CorpusManifest.load(path)
        messages.append(str(caught.value))
    assert len(set(messages)) == 1
    assert workload._manifest_memo == {}
    write_manifest(path, ["I-N"])
    assert labels_of(path) == ["I-N"]


def test_an_invalid_entry_fails_alike_on_every_load(tmp_path, clock):
    path = tmp_path / MANIFEST_NAME
    write_manifest(path, ["X-Y"])
    clock(last_change(path) + 5 * RACY_WINDOW_NS)
    messages = []
    for _ in range(3):
        with pytest.raises(ServiceError, match="unknown equivalence") as caught:
            CorpusManifest.load(path)
        messages.append(str(caught.value))
    assert len(set(messages)) == 1
    assert workload._manifest_memo == {}


def test_a_deleted_manifest_fails_alike_on_every_load(tmp_path, clock):
    path = tmp_path / MANIFEST_NAME
    write_manifest(path, ["I-N"])
    clock(last_change(path) + 5 * RACY_WINDOW_NS)
    assert labels_of(path) == ["I-N"]
    path.unlink()
    messages = []
    for _ in range(3):
        with pytest.raises(ServiceError, match="cannot read manifest") as caught:
            CorpusManifest.load(path)
        messages.append(str(caught.value))
    assert messages == [f"{path}: cannot read manifest (No such file or directory)"] * 3


def test_the_memo_never_exceeds_its_bound(tmp_path, clock, monkeypatch):
    monkeypatch.setattr(workload, "MANIFEST_MEMO_SIZE", 2)
    paths = []
    for index in range(4):
        path = tmp_path / f"m{index}.json"
        write_manifest(path, ["I-N"])
        paths.append(path)
    clock(max(map(last_change, paths)) + 5 * RACY_WINDOW_NS)
    for path in paths:
        CorpusManifest.load(path)
        assert len(workload._manifest_memo) <= 2
    assert list(workload._manifest_memo) == [str(path) for path in paths[-2:]]


def test_entry_specs_follow_the_root(tmp_path):
    manifest = generate_corpus(
        tmp_path, num_lines=3, families=("random",), pairs_per_class=1, seed=3
    )
    first = manifest.entry_specs("a")
    assert manifest.entry_specs("a") is first
    for spec, entry in zip(manifest.entry_specs("b"), manifest.entries):
        assert spec.paths == (
            os.path.join("b", entry.circuit1), os.path.join("b", entry.circuit2),
        )
        assert (spec.pair_id, spec.label) == (entry.pair_id, entry.equivalence)
        assert spec.equivalence_type is entry.equivalence_type


def test_a_daemon_resubmit_after_an_edit_runs_the_new_entries(tmp_path, clock):
    corpus = tmp_path / "corpus"
    generate_corpus(
        corpus,
        num_lines=3,
        classes=(EquivalenceType.I_N, EquivalenceType.N_I),
        families=("random",),
        pairs_per_class=1,
        seed=7,
    )
    path = corpus / MANIFEST_NAME
    clock(last_change(path) + 5 * RACY_WINDOW_NS)
    daemon = MatchingDaemon(store_dir=tmp_path / "runs", host="127.0.0.1", port=0)
    daemon.start()
    try:
        with DaemonClient.from_address(daemon.address, timeout=30.0) as client:

            def run() -> dict[str, str]:
                run_id = client.submit(corpus)["run_id"]
                assert client.watch(run_id, []) == "completed"
                records = client.fetch_store(run_id)["records"]
                return {record["pair_id"]: record["equivalence"] for record in records}

            before = run()
            assert before == {
                entry.pair_id: entry.equivalence
                for entry in CorpusManifest.load(path).entries
            }
            # Swap the two labels: same size, same inode, same mtime.
            data = json.loads(path.read_text(encoding="utf-8"))
            first, second = data["entries"]
            first["equivalence"], second["equivalence"] = (
                second["equivalence"], first["equivalence"],
            )
            stat = os.stat(path)
            for _ in range(1_000_000):
                path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
                os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
                if os.stat(path).st_ctime_ns != stat.st_ctime_ns:
                    break
            assert os.stat(path).st_size == stat.st_size
            after = run()
    finally:
        daemon.stop()
    assert after == {
        first["pair_id"]: first["equivalence"],
        second["pair_id"]: second["equivalence"],
    }
    assert after != before
