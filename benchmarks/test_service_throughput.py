"""Service throughput: pairs/sec serial vs. parallel vs. cached vs. streamed.

Unlike the other benchmark modules, which reproduce per-pair *query
counts* from the paper, this one measures the quantity the service layer
exists for: batch throughput over a generated corpus.  Backends run the
same manifest —

* serial execution (the baseline the per-pair numbers imply),
* a 2-worker process pool (must produce identical records; wall-clock
  gain depends on corpus size vs. pool startup cost),
* a warm result cache (the repeated-workload regime: zero oracle queries),

and the streaming execution API (``Executor.stream``, the as-completed
contract) runs a fixed task batch with loading excluded from the timing.

Two tests are CI gates:

* ``test_wide_probe_cached_vs_cold`` — a warm rerun of a **wide**
  (16–24-line) corpus, keyed by sampled-probe fingerprints, must perform
  **zero oracle queries**; it also writes the per-scheme cache hit-rate
  JSON (``SCHEME_HIT_RATES``, default ``scheme-hit-rates.json``) and the
  ``repro-metrics/v1`` snapshot (``METRICS_SNAPSHOT``, default
  ``metrics-snapshot.json``) that CI uploads as artifacts, and leaves its
  cold/warm JSONL stores under ``BENCH_STORES`` (default: a tmp dir) so
  CI can gate ``repro report`` over real benchmark output.
* ``test_wide_probe_digest_batched_speedup`` — bitsliced probe digests
  must be at least 8x the scalar reference path on the wide corpus.

The per-backend pairs/sec figures are printed (``pytest -s``) and the
wall-clock numbers land in the pytest-benchmark JSON, which CI uploads
as an artifact so the trajectory tracks throughput over time.
"""

from __future__ import annotations

import builtins
import json
import os
import sys
import time
from pathlib import Path

import pytest

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.circuits.io import real
from repro.core.engine import MatchingConfig
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import build_cache
from repro.service.executor import (
    PairTask,
    ParallelExecutor,
    SerialExecutor,
    derive_seed,
)
from repro.service.fingerprint import (
    FingerprintRegistry,
    build_registry,
    content_memo_clear,
)
from repro.service.pipeline import MatchingService
from repro.service.workload import (
    CorpusManifest,
    generate_corpus,
    load_entry_circuits,
)

# ``repro.service.fingerprint`` the attribute is the function, so the
# module is taken from ``sys.modules``.
fingerprint_module = sys.modules["repro.service.fingerprint"]

#: Corpus shape: 8 tractable classes x 2 families x 2 pairs = 32 pairs.
CORPUS_SEED = 20240601
PAIRS_PER_CLASS = 2
RUN_SEED = 7


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("throughput_corpus")
    generate_corpus(
        root,
        num_lines=4,
        families=("random", "library"),
        pairs_per_class=PAIRS_PER_CLASS,
        seed=CORPUS_SEED,
    )
    return root


def _report_throughput(title: str, reports) -> None:
    rows = [
        (
            label,
            report.total,
            report.matched,
            report.cache_hits,
            f"{report.pairs_per_second:.1f}",
        )
        for label, report in reports
    ]
    emit(
        title,
        format_table(
            ["backend", "pairs", "matched", "cached", "pairs/s"], rows
        ),
    )


def test_serial_throughput(benchmark, corpus):
    service = MatchingService(executor=SerialExecutor())
    report = benchmark.pedantic(
        lambda: service.run_manifest(corpus, seed=RUN_SEED), rounds=3, iterations=1
    )
    assert report.matched == report.total
    _report_throughput("service throughput: serial", [("serial", report)])


def test_parallel_throughput_matches_serial(benchmark, corpus):
    serial = MatchingService(executor=SerialExecutor()).run_manifest(
        corpus, seed=RUN_SEED
    )
    service = MatchingService(executor=ParallelExecutor(workers=2))
    report = benchmark.pedantic(
        lambda: service.run_manifest(corpus, seed=RUN_SEED), rounds=3, iterations=1
    )
    # Throughput must never come at the cost of reproducibility.
    assert json.dumps(report.records, sort_keys=True) == json.dumps(
        serial.records, sort_keys=True
    )
    _report_throughput(
        "service throughput: parallel (2 workers)",
        [("serial", serial), ("parallel", report)],
    )


def _fixed_tasks(corpus) -> list[PairTask]:
    """The corpus as a ready-made task batch (loading excluded from timing)."""
    manifest = CorpusManifest.load(corpus / "manifest.json")
    tasks = []
    for position, entry in enumerate(manifest.entries):
        circuit1, circuit2 = load_entry_circuits(entry, corpus)
        tasks.append(
            PairTask(
                index=position,
                circuit1=circuit1,
                circuit2=circuit2,
                equivalence=entry.equivalence,
                seed=derive_seed(RUN_SEED, position),
                pair_id=entry.pair_id,
            )
        )
    return tasks


def _best_of(runs: int, call) -> float:
    """Best wall-clock of ``runs`` calls — the least-noise point estimate."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def test_streaming_throughput(benchmark, corpus):
    """The streaming API on one fixed task batch."""
    config = MatchingConfig()
    tasks = _fixed_tasks(corpus)
    executor = SerialExecutor()

    def streaming():
        return list(executor.stream(tasks, config))

    # A point estimate for the table; the benchmark fixture additionally
    # records the streaming path in the JSON artifact.
    streaming_time = _best_of(3, streaming)
    outcomes = benchmark.pedantic(streaming, rounds=3, iterations=1)
    assert len(outcomes) == len(tasks)

    pairs = len(tasks)
    emit(
        "execution API throughput: streaming",
        format_table(
            ["api", "pairs", "seconds", "pairs/s"],
            [
                (
                    "streaming",
                    pairs,
                    f"{streaming_time:.4f}",
                    f"{pairs / streaming_time:.1f}",
                )
            ],
        ),
    )


def test_cached_throughput(benchmark, corpus):
    service = MatchingService(cache=build_cache())
    cold = service.run_manifest(corpus, seed=RUN_SEED)
    report = benchmark.pedantic(
        lambda: service.run_manifest(corpus, seed=RUN_SEED), rounds=3, iterations=1
    )
    assert report.cache_hits == report.total and report.executed == 0
    assert report.queries == 0 and report.quantum_queries == 0
    _report_throughput(
        "service throughput: warm cache",
        [("cold", cold), ("cached", report)],
    )


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    """A 16–24-line corpus: past the exact-fingerprint limit, so only
    sampled-probe identities can key the cache."""
    root = tmp_path_factory.mktemp("wide_corpus")
    generate_corpus(root, families=("wide",), pairs_per_class=2, seed=CORPUS_SEED)
    return root


def _counter_value(snapshot: dict, name: str, **labels) -> int:
    """One counter from a ``repro-metrics/v1`` snapshot, summed over every
    sample whose labels include ``labels``."""
    return sum(
        sample["value"]
        for sample in snapshot["metrics"].get(name, {}).get("samples", ())
        if labels.items() <= sample["labels"].items()
    )


def test_wide_probe_cached_vs_cold(
    benchmark, wide_corpus, tmp_path_factory, monkeypatch
):
    """CI gate: a warm wide-corpus rerun performs zero oracle queries.

    The warm run uses a *fresh* service over the shared cache, and the
    process-wide content memo is cleared before every benchmarked round,
    so every circuit is freshly parsed into a different Python object than
    the cold run loaded — the hits are earned by probe fingerprints, not
    object identity or file bytes.  One more warm run with the memo left
    warm must then parse and fingerprint nothing, and, once the memo's
    clock is past the racy window, open no file: no circuit and no
    manifest.  Also writes the
    per-scheme cache hit-rate JSON and the metrics snapshot CI uploads,
    plus the cold/warm stores `repro report` gates over.
    """
    manifest = CorpusManifest.load(wide_corpus / "manifest.json")
    assert all(entry.num_lines >= 16 for entry in manifest.entries)

    bench_stores = os.environ.get("BENCH_STORES")
    store_dir = (
        Path(bench_stores) if bench_stores
        else tmp_path_factory.mktemp("wide_stores")
    )
    store_dir.mkdir(parents=True, exist_ok=True)

    metrics = MetricsRegistry()
    cache = build_cache()
    cache.bind_metrics(metrics)
    cold = MatchingService(cache=cache, metrics=metrics).run_manifest(
        wide_corpus, seed=RUN_SEED,
        store_path=store_dir / "wide-cold.jsonl",
    )
    assert cold.executed == cold.total > 0

    service = MatchingService(cache=cache, metrics=metrics)
    report = benchmark.pedantic(
        lambda: service.run_manifest(
            wide_corpus, seed=RUN_SEED,
            store_path=store_dir / "wide-warm.jsonl",
        ),
        setup=content_memo_clear,
        rounds=3,
        iterations=1,
    )
    assert report.cache_hits == report.total and report.executed == 0
    assert report.queries == 0 and report.quantum_queries == 0
    # Every warm hit was keyed by a sampled-probe fingerprint.
    assert set(cache.stats.scheme_hits) == {"probe"}

    # CacheStats is read out of the registry the snapshot serialises,
    # so the two views must reconcile exactly.
    snapshot = metrics.snapshot()
    tier = cache.metrics_tier
    assert _counter_value(
        snapshot, "repro_cache_hits_total", tier=tier
    ) == cache.stats.hits
    assert _counter_value(
        snapshot, "repro_cache_misses_total", tier=tier
    ) == cache.stats.misses
    assert _counter_value(
        snapshot, "repro_cache_stores_total", tier=tier
    ) == cache.stats.stores
    metrics.write_json(
        os.environ.get("METRICS_SNAPSHOT", "metrics-snapshot.json")
    )

    stats = cache.stats
    payload = {
        "corpus": "wide",
        "pairs": report.total,
        "lookups": stats.lookups,
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": stats.hit_rate,
        "scheme_hits": dict(stats.scheme_hits),
        "scheme_hit_rate": {
            scheme: hits / stats.lookups
            for scheme, hits in stats.scheme_hits.items()
        },
    }
    out_path = os.environ.get("SCHEME_HIT_RATES", "scheme-hit-rates.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit(
        "per-scheme cache hit rates (wide corpus)",
        json.dumps(payload["scheme_hit_rate"], sort_keys=True),
    )
    _report_throughput(
        "service throughput: wide corpus, probe-keyed cache",
        [("cold", cold), ("cached", report)],
    )

    # With the memo left warm, a rerun is answered by file bytes alone.
    calls = []
    monkeypatch.setattr(real, "read_real", lambda *args: calls.append("parse"))
    monkeypatch.setattr(
        FingerprintRegistry, "fingerprint",
        lambda *args, **kwargs: calls.append("fingerprint"),
    )
    memo_warm = MatchingService(cache=cache).run_manifest(
        wide_corpus, seed=RUN_SEED
    )
    assert memo_warm.cache_hits == memo_warm.total and calls == []

    # Past the racy window, one stat per file answers it: a rerun (which
    # re-records any digest or manifest parse taken inside the window)
    # and then a counted rerun that must open no file at all, neither a
    # circuit nor the manifest.
    monkeypatch.setattr(
        fingerprint_module, "_clock",
        lambda: time.time_ns() + 10 * fingerprint_module.RACY_WINDOW_NS,
    )
    MatchingService(cache=cache).run_manifest(wide_corpus, seed=RUN_SEED)
    opened = []
    original_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return original_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    stat_warm = MatchingService(cache=cache).run_manifest(
        wide_corpus, seed=RUN_SEED
    )
    monkeypatch.setattr(builtins, "open", original_open)
    assert stat_warm.cache_hits == stat_warm.total and calls == []
    assert opened == []


#: CI gate: bitsliced probe digests must be at least this much faster
#: than the scalar reference path on the wide corpus.
PROBE_BATCH_MIN_SPEEDUP = 8.0


def test_wide_probe_digest_batched_speedup(benchmark, wide_corpus):
    """CI gate: bit-parallel probe digests are >= 8x the scalar path.

    Fingerprints every wide-corpus circuit twice — once with the scalar
    reference loop of ``tests/scalar_reference.py``, once through the
    bitsliced ``evaluate_many`` hot path — asserts the digests are
    byte-identical (batching is an evaluation strategy, never an identity
    change), and gates on the wall-clock ratio.  The measured figures land in the
    pytest-benchmark JSON (``extra_info``) that CI uploads, so the
    speedup trajectory is tracked over time alongside pairs/sec.
    """
    from tests.scalar_reference import scalar_evaluation

    manifest = CorpusManifest.load(wide_corpus / "manifest.json")
    targets = []
    for entry in manifest.entries:
        targets.extend(load_entry_circuits(entry, wide_corpus))
    assert all(target.num_lines >= 16 for target in targets)

    probe = build_registry("probe")

    # Identity first: the digests must agree on every circuit before any
    # throughput claim about the batched path means anything.
    with scalar_evaluation():
        scalar_digests = [probe.fingerprint(t).digest for t in targets]
    batched_digests = [probe.fingerprint(t).digest for t in targets]
    assert scalar_digests == batched_digests

    def run_scalar():
        with scalar_evaluation():
            for target in targets:
                probe.fingerprint(target)

    def run_batched():
        for target in targets:
            probe.fingerprint(target)

    # Interleaved best-of sampling: a transient machine slowdown (CPU
    # scaling, a background task) then degrades scalar and batched
    # samples alike instead of one side of the ratio.
    scalar_time = batched_time = float("inf")
    for _ in range(5):
        scalar_time = min(scalar_time, _best_of(1, run_scalar))
        batched_time = min(batched_time, _best_of(1, run_batched))
    benchmark.pedantic(run_batched, rounds=3, iterations=1)
    speedup = scalar_time / batched_time
    benchmark.extra_info["circuits"] = len(targets)
    benchmark.extra_info["scalar_seconds"] = round(scalar_time, 6)
    benchmark.extra_info["batched_seconds"] = round(batched_time, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["min_speedup"] = PROBE_BATCH_MIN_SPEEDUP

    count = len(targets)
    emit(
        "probe digest throughput: scalar vs bitsliced (wide corpus)",
        format_table(
            ["path", "circuits", "seconds", "digests/s"],
            [
                (label, count, f"{seconds:.4f}", f"{count / seconds:.1f}")
                for label, seconds in (
                    ("scalar", scalar_time),
                    ("bitsliced", batched_time),
                )
            ],
        )
        + f"\nspeedup: {speedup:.1f}x (gate: >= {PROBE_BATCH_MIN_SPEEDUP}x)",
    )
    assert speedup >= PROBE_BATCH_MIN_SPEEDUP, (
        f"bitsliced probe digests are only {speedup:.1f}x the scalar path "
        f"on the wide corpus (gate: {PROBE_BATCH_MIN_SPEEDUP}x); "
        f"scalar {scalar_time:.4f}s vs batched {batched_time:.4f}s"
    )
