"""The ``repro report`` scanner: cross-run trends over JSONL result stores.

Walks a results tree for ``*.jsonl`` run stores, summarises each into a
:class:`RunSummary` (class mix, per-scheme cache hits, query totals, torn
lines, and — via the ``<store>.jsonl.meta.json`` sidecar the pipeline
publishes — wall clock and executor), and renders the collection as text
tables or ``repro-report/v1`` JSON.

Scanning is incremental: summaries are cached per store in
``.repro-report-cache.json`` at the results root under the store's stat
signature, trusted by the same "racy git" rule as the circuit-file digest
(:func:`repro.service.fingerprint.stat_vouches`), so re-reporting over a
large tree only re-reads the stores that changed.  Files that merely look
like stores (event logs, span logs) are recognised by their records and
skipped.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.analysis.report import format_table
from repro.exceptions import ServiceError
from repro.service.events import RunTotals
from repro.service.fingerprint import (
    scheme_label,
    stat_clock,
    stat_signature,
    stat_vouches,
)
from repro.service.pipeline import ResultStore

__all__ = [
    "REPORT_FORMAT",
    "RunSummary",
    "summarize_store",
    "scan_results",
    "render_report",
    "report_to_json",
]

REPORT_FORMAT = "repro-report/v1"

#: Incremental per-store summary cache at the results root.
CACHE_FILENAME = ".repro-report-cache.json"


@dataclass(frozen=True, kw_only=True)
class RunSummary(RunTotals):
    """What one run store contributed: mix, hit rates, spend, wall clock.

    The counters are the :class:`~repro.service.events.RunTotals` of the
    store's records, one per pair by
    :meth:`repro.service.pipeline.ResultStore.newest` — a store appended
    to by a resumed or repeated run still counts each pair once.  Store
    records keep their original status (resume relabels a pair
    ``resumed`` only in its run's report).  ``elapsed`` and ``executor``
    come from the meta sidecar (``None`` without one).

    Attributes:
        name: store path relative to the scanned root.
        scheme_hits: cached pairs per fingerprint scheme of their key.
        torn_lines: lines of the file that are not JSON objects.
    """

    name: str
    scheme_hits: dict[str, int] = field(default_factory=dict)
    torn_lines: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of pairs served from cache (0.0 for an empty store)."""
        return self.cache_hits / self.total if self.total else 0.0

    def as_dict(self) -> dict:
        """Every field, JSON-ready (the incremental scan cache's form)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunSummary":
        """Rebuild a summary from :meth:`as_dict` output (cache reload)."""
        return cls(**data)


def _run_entry(summary: RunSummary) -> dict:
    """One run of the ``repro-report/v1`` document."""
    return {
        "name": summary.name,
        "pairs": summary.total,
        "statuses": summary.statuses,
        "classes": summary.classes,
        "scheme_hits": summary.scheme_hits,
        "hit_rate": summary.hit_rate,
        "queries": summary.queries,
        "quantum_queries": summary.quantum_queries,
        "torn_lines": summary.torn_lines,
        "elapsed": summary.elapsed,
        "executor": summary.executor,
    }


def _is_store(records: list[dict]) -> bool:
    """Whether a file's records make it a run store.

    A store has at least one record, every record carries ``pair_id``
    and ``status``, and none is a service event (an ``event`` key) or a
    trace span (a ``span_id`` key) — the other JSONL files a results
    tree holds.
    """
    return bool(records) and all(
        "pair_id" in record
        and "status" in record
        and "event" not in record
        and "span_id" not in record
        for record in records
    )


def summarize_store(path: str | os.PathLike, name: str | None = None):
    """Summarise one JSONL run store; ``None`` when the file is not one.

    The file is read by :meth:`~repro.service.pipeline.ResultStore.read_records`,
    so a line that is not a JSON object is a torn line, exactly as for
    resume and merge; :func:`_is_store` then decides over the records.
    """
    path = Path(path)
    store = ResultStore(path)
    try:
        with warnings.catch_warnings():
            # Torn lines are reported as a count; the resume warning
            # read_records gives for each one does not apply here.
            warnings.simplefilter("ignore")
            records = store.read_records()
    except OSError:
        return None
    if not _is_store(records):
        return None
    pairs = ResultStore.newest(records).values()
    scheme_hits: dict[str, int] = {}
    for record in pairs:
        if record.get("status") == "cached":
            key = record.get("cache_key")
            scheme = scheme_label(key) if isinstance(key, str) else "unkeyed"
            scheme_hits[scheme] = scheme_hits.get(scheme, 0) + 1
    meta = _read_meta(path) or {}
    elapsed = meta.get("elapsed")
    executor = meta.get("executor")
    return RunSummary.from_records(
        pairs,
        elapsed=float(elapsed) if isinstance(elapsed, (int, float)) else None,
        executor=executor if isinstance(executor, str) else None,
        name=name if name is not None else path.name,
        scheme_hits=scheme_hits,
        torn_lines=store.torn_lines,
    )


def _read_meta(store_path: Path) -> dict | None:
    """The pipeline's ``repro-run-meta/v1`` sidecar for a store, if sound."""
    path = store_path.with_name(store_path.name + ".meta.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return meta if isinstance(meta, dict) else None


def scan_results(
    root: str | os.PathLike, *, use_cache: bool = True
) -> list[RunSummary]:
    """Summarise every run store under ``root`` (sorted by relative path).

    With ``use_cache`` (the default) per-store summaries are reused from
    ``.repro-report-cache.json`` when :func:`stat_vouches` trusts the
    entry: the store's device, inode, size, mtime and ctime are unchanged
    and the summary was recorded more than ``RACY_WINDOW_NS`` after the
    store last changed.  Entries of any other shape are re-read, and the
    refreshed cache is written back atomically.

    Raises:
        ServiceError: ``root`` is not a directory.
    """
    root = Path(root)
    if not root.is_dir():
        raise ServiceError(f"{root}: not a results directory")
    cache_path = root / CACHE_FILENAME
    cached_entries: dict[str, dict] = {}
    if use_cache:
        try:
            with open(cache_path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if (
                isinstance(loaded, dict)
                and loaded.get("format") == REPORT_FORMAT
                and isinstance(loaded.get("entries"), dict)
            ):
                cached_entries = loaded["entries"]
        except (OSError, json.JSONDecodeError):
            cached_entries = {}
    summaries: list[RunSummary] = []
    fresh_entries: dict[str, dict] = {}
    for path in sorted(root.rglob("*.jsonl")):
        relpath = path.relative_to(root).as_posix()
        try:
            stat = path.stat()
        except OSError:
            continue
        signature = stat_signature(stat)
        entry = cached_entries.get(relpath)
        reread = True
        if (
            isinstance(entry, dict)
            and isinstance(entry.get("stat"), list)
            and isinstance(entry.get("recorded_ns"), int)
            and stat_vouches(signature, tuple(entry["stat"]), entry["recorded_ns"])
        ):
            summary_data = entry.get("summary")
            try:
                summary = (
                    RunSummary.from_dict(summary_data)
                    if summary_data is not None
                    else None
                )
                recorded = entry["recorded_ns"]
                reread = False
            except TypeError:
                pass  # not this version's summary fields: read the store
        if reread:
            recorded = stat_clock()
            summary = summarize_store(path, name=relpath)
        fresh_entries[relpath] = {
            "stat": list(signature),
            "recorded_ns": recorded,
            "summary": summary.as_dict() if summary is not None else None,
        }
        if summary is not None:
            summaries.append(summary)
    if use_cache:
        _write_cache(cache_path, fresh_entries)
    return summaries


def _write_cache(path: Path, entries: dict[str, dict]) -> None:
    payload = {"format": REPORT_FORMAT, "entries": entries}
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except OSError:
        # The cache is an optimisation; a read-only tree still reports.
        tmp.unlink(missing_ok=True)


def _totals(summaries: list[RunSummary]) -> dict:
    pairs = sum(s.total for s in summaries)
    hits = sum(s.cache_hits for s in summaries)
    return {
        "runs": len(summaries),
        "pairs": pairs,
        "cache_hits": hits,
        "hit_rate": hits / pairs if pairs else 0.0,
        "queries": sum(s.queries for s in summaries),
        "quantum_queries": sum(s.quantum_queries for s in summaries),
        "torn_lines": sum(s.torn_lines for s in summaries),
    }


def _percent(rate: float) -> str:
    return f"{100.0 * rate:.1f}%"


def _mix(counts: dict[str, int]) -> str:
    if not counts:
        return "-"
    return ", ".join(f"{key}={counts[key]}" for key in sorted(counts))


def render_report(summaries: list[RunSummary]) -> str:
    """Per-run tables plus (for two or more runs) the cross-run trend."""
    if not summaries:
        return "no result stores found"
    rows = []
    for s in summaries:
        rows.append(
            (
                s.name,
                s.total,
                s.statuses.get("ok", 0),
                s.cache_hits,
                s.statuses.get("failed", 0),
                _percent(s.hit_rate),
                s.queries,
                s.quantum_queries,
                s.torn_lines,
                f"{s.elapsed:.2f}s" if s.elapsed is not None else "-",
                s.executor or "-",
            )
        )
    blocks = [
        format_table(
            [
                "run", "pairs", "ok", "cached", "failed", "hit rate",
                "queries", "quantum", "torn", "elapsed", "executor",
            ],
            rows,
            title="result stores",
        )
    ]
    mix_rows = [
        (s.name, _mix(s.classes), _mix(s.scheme_hits)) for s in summaries
    ]
    blocks.append(
        format_table(
            ["run", "class mix", "scheme hits"],
            mix_rows,
            title="composition",
        )
    )
    if len(summaries) >= 2:
        trend_rows = []
        previous = None
        for s in summaries:
            if previous is None:
                delta_rate = "-"
                delta_queries = "-"
            else:
                delta_rate = f"{100.0 * (s.hit_rate - previous.hit_rate):+.1f}%"
                delta_queries = f"{s.queries - previous.queries:+d}"
            trend_rows.append(
                (
                    s.name,
                    s.total,
                    _percent(s.hit_rate),
                    delta_rate,
                    s.queries,
                    delta_queries,
                )
            )
            previous = s
        blocks.append(
            format_table(
                ["run", "pairs", "hit rate", "Δ hit rate", "queries", "Δ queries"],
                trend_rows,
                title="cross-run trend",
            )
        )
    totals = _totals(summaries)
    blocks.append(
        f"total: {totals['runs']} runs, {totals['pairs']} pairs, "
        f"{totals['cache_hits']} cached ({_percent(totals['hit_rate'])}), "
        f"{totals['queries']} classical + {totals['quantum_queries']} "
        f"quantum queries, {totals['torn_lines']} torn lines"
    )
    return "\n\n".join(blocks)


def report_to_json(summaries: list[RunSummary]) -> dict:
    """The machine-readable report: per-run summaries plus totals."""
    return {
        "format": REPORT_FORMAT,
        "runs": [_run_entry(s) for s in summaries],
        "totals": _totals(summaries),
    }
