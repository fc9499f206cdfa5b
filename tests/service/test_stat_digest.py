"""Tests of the stat-validated file digest behind the content memo.

``content_digest`` answers from one ``os.stat`` only when the file's
stat tuple is the one recorded with its digest and that digest was taken
more than ``RACY_WINDOW_NS`` after the file last changed (git's "racy
git" rule).  Every other case must read and hash the file again.  Time
moves forward by replacing the module's clock, never by sleeping.
"""

from __future__ import annotations

import builtins
import hashlib
import os

import pytest

import repro.service.fingerprint as fingerprint_module
from repro.service.fingerprint import (
    RACY_WINDOW_NS,
    content_digest,
    content_memo_clear,
)

ORIGINAL = b".version 2.0\n.numvars 2\n# original\n"
REWRITE = b".version 2.0\n.numvars 2\n# rewrite!\n"  # same size, other bytes


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(autouse=True)
def cold_memo():
    content_memo_clear()
    yield
    content_memo_clear()


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


def past_the_window(path) -> int:
    """A recording time the racy rule trusts for ``path`` as it is now."""
    return last_change(path) + 5 * RACY_WINDOW_NS


def rewrite_in_a_later_tick(path, data: bytes, *, keep_mtime: bool = False) -> None:
    """Write ``data`` over ``path`` so that its ctime moves.

    The advanced clock claims the digest was taken long after the file
    changed; a rewrite in that same timestamp tick could keep the whole
    stat tuple, which in real time only the window guards.  So rewrite
    until the filesystem's ctime has moved on, as it would have by then.
    """
    before = os.stat(path)
    for _ in range(1_000_000):
        with open(path, "wb") as handle:
            handle.write(data)
        if keep_mtime:
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        if os.stat(path).st_ctime_ns != before.st_ctime_ns:
            return
    pytest.fail("the file's ctime never moved")


@pytest.fixture
def circuit(tmp_path):
    path = tmp_path / "c.real"
    path.write_bytes(ORIGINAL)
    return path


def test_a_trusted_hit_opens_no_file(circuit, clock, opened):
    clock(past_the_window(circuit))
    assert content_digest(circuit) == sha256(ORIGINAL)
    assert opened == [str(circuit)]
    opened.clear()
    for _ in range(3):
        assert content_digest(circuit) == sha256(ORIGINAL)
    assert opened == []


def test_a_same_size_rewrite_under_the_old_mtime_rehashes(circuit, clock, opened):
    clock(past_the_window(circuit))
    assert content_digest(circuit) == sha256(ORIGINAL)
    before = os.stat(circuit)
    rewrite_in_a_later_tick(circuit, REWRITE, keep_mtime=True)
    after = os.stat(circuit)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns,
    )
    opened.clear()
    assert content_digest(circuit) == sha256(REWRITE)
    assert opened == [str(circuit)]


def test_a_rewrite_inside_the_recording_window_rehashes(circuit, clock, opened):
    # Recorded within the window of the file's last change: the tuple
    # may still look the same after a same-tick rewrite, so the entry is
    # never trusted, not even once the clock is long past the window.
    clock(last_change(circuit) + RACY_WINDOW_NS // 2)
    assert content_digest(circuit) == sha256(ORIGINAL)
    before = os.stat(circuit)
    with open(circuit, "wb") as handle:
        handle.write(REWRITE)
    os.utime(circuit, ns=(before.st_atime_ns, before.st_mtime_ns))
    clock(past_the_window(circuit))
    opened.clear()
    assert content_digest(circuit) == sha256(REWRITE)
    assert opened == [str(circuit)]


def test_a_file_renamed_over_the_path_rehashes(circuit, tmp_path, clock, opened):
    clock(past_the_window(circuit))
    assert content_digest(circuit) == sha256(ORIGINAL)
    donor = tmp_path / "donor.real"
    donor.write_bytes(REWRITE)
    os.replace(donor, circuit)
    opened.clear()
    assert content_digest(circuit) == sha256(REWRITE)
    assert opened == [str(circuit)]


def test_an_entry_recorded_before_the_window_passed_rehashes(circuit, clock, opened):
    # Exactly at the window's edge is not past it.
    clock(last_change(circuit) + RACY_WINDOW_NS)
    content_digest(circuit)
    clock(past_the_window(circuit))
    assert content_digest(circuit) == sha256(ORIGINAL)
    assert opened == [str(circuit)] * 2
    # That rehash was recorded past the window, so it is trusted.
    assert content_digest(circuit) == sha256(ORIGINAL)
    assert opened == [str(circuit)] * 2


def test_an_old_mtime_with_a_recent_ctime_is_not_trusted(circuit, clock, opened):
    # ``os.utime`` can set the mtime back but moves the ctime to now, so
    # the window is measured from the later of the two.
    old = last_change(circuit) - 100 * RACY_WINDOW_NS
    os.utime(circuit, ns=(old, old))
    clock(os.stat(circuit).st_ctime_ns + RACY_WINDOW_NS // 2)
    for _ in range(2):
        assert content_digest(circuit) == sha256(ORIGINAL)
    assert opened == [str(circuit)] * 2


def test_a_file_stamped_in_the_future_is_never_trusted(circuit, clock, opened):
    now = last_change(circuit)
    future = now + 100 * RACY_WINDOW_NS
    os.utime(circuit, ns=(future, future))
    clock(now + 5 * RACY_WINDOW_NS)
    for _ in range(3):
        assert content_digest(circuit) == sha256(ORIGINAL)
    assert opened == [str(circuit)] * 3


def test_a_deleted_file_raises(circuit, clock):
    clock(past_the_window(circuit))
    content_digest(circuit)
    circuit.unlink()
    with pytest.raises(FileNotFoundError):
        content_digest(circuit)


def test_clearing_the_memo_forgets_every_digest(circuit, clock, opened):
    clock(past_the_window(circuit))
    content_digest(circuit)
    content_memo_clear()
    content_digest(circuit)
    assert opened == [str(circuit)] * 2


def test_the_stat_memo_never_exceeds_its_bound(tmp_path, clock, opened, monkeypatch):
    monkeypatch.setattr(fingerprint_module, "CONTENT_MEMO_SIZE", 2)
    paths = []
    for index in range(3):
        path = tmp_path / f"c{index}.real"
        path.write_bytes(ORIGINAL)
        paths.append(path)
    clock(max(past_the_window(path) for path in paths))
    for path in paths:
        content_digest(path)
    assert len(fingerprint_module._stat_memo) == 2
    opened.clear()
    # The two most recently used entries survive; the oldest was evicted.
    for path in (paths[2], paths[1], paths[0]):
        content_digest(path)
    assert opened == [str(paths[0])]
