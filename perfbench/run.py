"""The repository benchmark: one named workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``: the
median set-up time, and the cold and warm pairs per second of the
lower-quartile pass (see ``quartile_rate``).  All three are in reference
seconds, wall time divided by the host factor measured around each sample
(see ``workloads.host_factor``).  Wall-clock submission latencies and the
median host factor are printed beside them but not gated.
``--trace 1`` alternates untraced and traced cycles of the same workload,
folds the traced cycles' spans into a per-layer table (figures per cycle,
shares of the untraced cycle's wall clock) and reports the per-layer
metrics, ``trace_overhead`` and ``trace.coverage``.  Both modes check every
pair outcome against ground truth outside the timed region; ``failed``
counts the wrong ones.

The last line of standard output is the result object; the lines before it
are the human-readable tables and the run metadata.  Everything the run
writes stays under ``.perfbench-run/`` in the checkout.  The harness's own
tests: ``python3 -m pytest -q perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUTPUT_DIR = ".perfbench-run"

#: Least number of cycles a run makes, however short ``--seconds`` is.
MIN_CYCLES = 1

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: list[float], share: float) -> float | None:
    """The nearest-rank ``share`` percentile, or ``None`` when too few lie beyond it."""
    rank = math.ceil(round(share * len(values), 9))
    if len(values) - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def load_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_layers() -> dict:
    with open(HERE / "layers.json", encoding="utf-8") as handle:
        return json.load(handle)


def metadata(root: Path, args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
    }


def quartile_rate(passes) -> float:
    """Pairs per reference second of the lower-quartile pass.

    Each pass's wall time is divided by the host factor measured around it
    (``workloads.host_factor``).  Neighbouring load also slows stretches of
    a run shorter than a pass: the median pass moves with the share of
    slowed passes, the lower quartile only once most of the run is slowed.
    """
    if not passes:
        return 0.0
    per_pair = sorted(seconds / factor / pairs for pairs, seconds, factor in passes)
    return 1.0 / per_pair[(len(per_pair) - 1) // 4]


def end_to_end(samples, setup: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and the lines of a table that adds ungated figures."""
    by_kind = samples.by_kind
    gated = {
        "setup_s": (median(setup), "s", len(setup)),
        "cold_pairs_per_s": (quartile_rate(by_kind.get("cold")), "1/s", len(by_kind.get("cold", ()))),
        "warm_pairs_per_s": (quartile_rate(by_kind.get("warm")), "1/s", len(by_kind.get("warm", ()))),
    }
    warm_ms, cold_ms = samples.millis("warm"), samples.millis("cold")
    shown = dict(gated)
    shown["submit_ms_p50"] = (median(warm_ms), "ms", len(warm_ms))
    p90 = percentile(warm_ms, 0.9)
    if p90 is not None:
        shown["submit_ms_p90"] = (p90, "ms", len(warm_ms))
    shown["cold_submit_ms_p50"] = (median(cold_ms), "ms", len(cold_ms))
    if "pooled" in by_kind:
        shown["pooled_pairs_per_s"] = (quartile_rate(by_kind["pooled"]), "1/s", len(by_kind["pooled"]))
    factors = [factor for kind in by_kind.values() for _, _, factor in kind]
    shown["host_factor"] = (median(factors), "x", len(factors))
    lines = [f"{'metric':<24} {'value':>12} {'unit':<5} samples"]
    for name, (value, unit, count) in shown.items():
        note = "" if name in gated else " (not gated)"
        lines.append(f"{name:<24} {value:>12.4f} {unit:<5} {count}{note}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in gated.items()}
    return metrics, lines


def per_layer(spec, layers, folded, cycles, untraced_wall, traced_wall, root_s, samples, workload):
    """The per-layer metrics (per cycle) and the lines of the fold table.

    ``untraced_wall`` and ``traced_wall`` are mean cycle walls, so that
    per-cycle span totals divide by a wall of the same kind.
    """
    def total(*names):
        return sum(folded[n].total_s for n in names if n in folded) / cycles

    def calls(*names):
        return sum(folded[n].calls for n in names if n in folded) / cycles

    def units(name):
        return folded[name].units / cycles if name in folded else 0.0

    get = folded.get("cache.get")
    extra = samples.extra
    server = sum(extra.get("cachenet.server_lookups", ()))
    values = {
        "circuits.parse_s": total("circuits.parse"),
        "circuits.parse_files": calls("circuits.parse"),
        "circuits.tabulate_s": total("circuits.tabulate"),
        "circuits.tabulate_calls": calls("circuits.tabulate"),
        "bitslice.s": total("bitslice"),
        "bitslice.inputs": units("bitslice"),
        "fingerprint.exact_s": total("fingerprint.exact"),
        "fingerprint.probe_s": total("fingerprint.probe"),
        "fingerprint.calls": calls("fingerprint.exact", "fingerprint.probe", "fingerprint.structure"),
        "fingerprint.pair_key_s": total("fingerprint.pair_key"),
        "cache.get_s": total("cache.get"),
        "cache.put_s": total("cache.put"),
        "cache.hit_ratio": get.hits / get.calls if get and get.calls else 0.0,
        "engine.match_s": total("engine.match"),
        "matchers.quantum_s": total("matchers.quantum"),
        "matchers.classical_s": total("matchers.classical"),
        "oracles.quantum_build_s": total("oracles.quantum_build"),
        "oracles.classical_queries": workload.queries[0],
        "oracles.quantum_queries": workload.queries[1],
        "quantum.statevector_s": total("quantum.statevector"),
        "quantum.swap_tests": calls("quantum.swap_test"),
        "store.append_s": total("store.append"),
        "store.appends": calls("store.append"),
        "executor.pool_wait_s": total("executor.pool_wait"),
        "executor.tasks": units("executor.pool_wait"),
        "executor.pooled_pairs_per_s": quartile_rate(samples.by_kind.get("pooled")),
        "daemon.submit_ms_p50": median(extra.get("daemon.warm_ms", ())),
        "daemon.cold_submit_ms_p50": median(extra.get("daemon.cold_ms", ())),
        "daemon.ack_ms": median(extra.get("daemon.ack_ms", ())),
        "daemon.first_event_ms": median(extra.get("daemon.first_event_ms", ())),
        "daemon.events": sum(extra.get("daemon.events", ())) / cycles,
        "cachenet.get_many_ms": median(extra.get("cachenet.get_many_ms", ())),
        "cachenet.requests": sum(extra.get("cachenet.requests", ())) / cycles,
        "cachenet.hit_ratio": sum(extra.get("cachenet.server_hits", ())) / server if server else 0.0,
        "cachenet.errors": sum(extra.get("cachenet.errors", ())) / cycles,
        "trace_overhead": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
        "trace.coverage": root_s / cycles / traced_wall if traced_wall else 0.0,
    }
    units_of = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    metrics = {name: {"value": values[name], "unit": units_of[name]} for name in units_of}

    lines = [
        f"per-layer fold over {cycles} traced cycle(s); figures per cycle; "
        f"untraced cycle wall {untraced_wall * 1000:.1f} ms",
        f"{'span':<24} {'layer':<22} {'calls':>9} {'total ms':>10} {'self ms':>10} {'self share':>10}",
    ]
    owner = {span: name for name, layer_spec in layers["layers"].items() for span in layer_spec["spans"]}
    for span in sorted(folded, key=lambda n: -folded[n].self_s):
        entry = folded[span]
        share = entry.self_s / cycles / untraced_wall if untraced_wall else 0.0
        lines.append(
            f"{span:<24} {owner.get(span, '-'):<22} {entry.calls / cycles:>9.1f} "
            f"{entry.total_s / cycles * 1000:>10.3f} {entry.self_s / cycles * 1000:>10.3f} {share:>10.1%}"
        )
    lines.append(
        f"coverage {values['trace.coverage']:.1%} of the traced wall; "
        f"trace_overhead {values['trace_overhead']:+.1%}"
    )
    submits = extra.get("daemon.warm_ms", [])
    if submits:
        p90 = percentile(submits, 0.9)
        lines.append(
            f"daemon submit_ms_p90 {p90:.3f} ms over {len(submits)} submissions" if p90 is not None
            else f"daemon submit_ms_p90 omitted: {len(submits)} submissions leave fewer than "
            f"{MIN_TAIL_SAMPLES} beyond it"
        )
    return metrics, lines


def run(args, root: Path) -> tuple[dict, list[str], list]:
    """Run one workload; returns (result object, report lines, first traced cycle's spans)."""
    import spans as spanlib
    import truth as truthlib
    import workloads

    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload](bool(args.trace))
    truth = truthlib.GroundTruth()
    tracer = spanlib.Tracer()
    samples = workloads.Samples()
    work = root / OUTPUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)
    try:
        setup = [workload.measure_setup(root, work) for _ in range(1 + workloads.SETUP_SAMPLES)][1:]
        workload.prepare(root, work, args.seed)
        untraced_walls: list[float] = []
        traced_walls: list[float] = []
        folded: dict = {}
        root_s = 0.0
        first_spans: list = []
        deadline = time.perf_counter() + args.seconds
        with spanlib.Instrumentation(tracer) if args.trace else contextlib.nullcontext():
            while len(untraced_walls) < MIN_CYCLES or time.perf_counter() < deadline:
                for traced in ((False, True) if args.trace else (False,)):
                    cycle_samples = workloads.Samples()
                    workload.cycle(cycle_samples, tracer, traced, truth)
                    wall = sum(s for kind in cycle_samples.by_kind.values() for _, s, _ in kind)
                    (traced_walls if traced else untraced_walls).append(wall)
                    merge(samples, cycle_samples)
                    if traced:
                        _, covered = spanlib.fold(tracer, folded)
                        root_s += covered
                        if not first_spans:
                            first_spans = list(tracer.spans)
                        tracer.clear()
    finally:
        workload.close()
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, lines = per_layer(
            spec, load_layers(), folded, len(traced_walls), statistics.fmean(untraced_walls),
            statistics.fmean(traced_walls), root_s, samples, workload,
        )
    else:
        metrics, lines = end_to_end(samples, setup)
    lines.append(
        f"{len(untraced_walls)} cycle(s); {truth.attempted} outcomes checked, "
        f"{truth.failed} wrong (error_share {truth.error_share:.4f})"
    )
    for context, pair_id, reason in truth.wrong[:10]:
        lines.append(f"wrong: {context} {pair_id}: {reason}")
    result = {
        "correct": truth.failed == 0,
        "attempted": truth.attempted,
        "failed": truth.failed,
        "metrics": metrics,
    }
    return result, lines, first_spans


def merge(samples, cycle_samples) -> None:
    for kind, values in cycle_samples.by_kind.items():
        samples.by_kind.setdefault(kind, []).extend(values)
    for name, values in cycle_samples.extra.items():
        samples.extra.setdefault(name, []).extend(values)


def write_results(root: Path, args, meta: dict, result: dict, spans: list) -> None:
    """Write the result with its metadata, and the first traced cycle's spans."""
    out = root / OUTPUT_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, **result}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if spans:
        with open(out / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for name, start, end, parent in spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(root / "src")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # A terminated run still stops the servers it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, lines, first_spans = run(args, root)
    meta = metadata(root, args)
    write_results(root, args, meta, result, first_spans)
    for line in lines:
        print(line)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
