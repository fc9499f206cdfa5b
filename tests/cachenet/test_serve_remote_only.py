"""``repro serve --no-cache --remote-cache``: a daemon whose only tier is remote.

This is how the daemon-remote benchmark launches its daemon.  Under
``--no-cache`` the daemon keeps no local tier, so every lookup goes to
the cache server.  The first run of a corpus must write each fresh result
through to the server, and a resubmit with the same seed must be answered
from the server, executing nothing.
"""

from __future__ import annotations

import threading
import time

from repro.cachenet import CacheServer
from repro.cli import main
from repro.core.equivalence import EquivalenceType
from repro.service import DaemonClient, LRUCache, generate_corpus

TIMEOUT = 60.0
SEED = 7


def run_summary(client: DaemonClient, corpus) -> dict:
    """Submit the corpus with the one seed and wait for the run's summary."""
    run_id = client.submit(str(corpus), seed=SEED)["run_id"]
    assert client.watch(run_id) == "completed"
    return client.status(run_id)["run"]["summary"]


def test_a_resubmit_is_answered_by_the_cache_server(tmp_path):
    corpus = tmp_path / "corpus"
    pairs = len(generate_corpus(
        corpus,
        num_lines=3,
        classes=(EquivalenceType.I_I, EquivalenceType.N_I),
        families=("random",),
        pairs_per_class=2,
        seed=SEED,
    ).entries)
    server = CacheServer(LRUCache(), socket_path=tmp_path / "cache.sock")
    server.start()
    address_file = tmp_path / "daemon.addr"
    codes: list[int] = []
    serve = threading.Thread(
        target=lambda: codes.append(main([
            "serve", "--no-cache", "--remote-cache", server.address,
            "--store-dir", str(tmp_path / "runs"),
            "--socket", str(tmp_path / "daemon.sock"),
            "--address-file", str(address_file),
        ])),
        daemon=True,
    )
    serve.start()
    try:
        deadline = time.monotonic() + TIMEOUT
        # The address is whole once its newline is written.
        while not (address_file.exists() and address_file.read_text().endswith("\n")):
            assert time.monotonic() < deadline, "serve never wrote its address"
            time.sleep(0.02)
        address = address_file.read_text().strip()
        with DaemonClient.from_address(address, timeout=TIMEOUT) as client:
            cold = run_summary(client, corpus)
            assert server.cache.stats.stores == pairs  # written through
            warm = run_summary(client, corpus)
            client.shutdown()
        serve.join(timeout=TIMEOUT)
    finally:
        server.stop()
    assert cold["executed"] == pairs
    assert warm["executed"] == 0
    assert warm["failed"] == 0
    assert server.cache.stats.stores == pairs
    assert not serve.is_alive() and codes == [0]
