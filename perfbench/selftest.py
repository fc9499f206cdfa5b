"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The file is deliberately not named ``test_*.py``: the repository's own
test suite does not collect it, because the end-to-end checks below spawn
benchmark runs and servers.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402
from repro.service.cache import build_cache  # noqa: E402
from repro.service.pipeline import MatchingService  # noqa: E402
from repro.service.workload import generate_corpus  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))


def declared(section: str) -> list[str]:
    return [entry["name"] for entry in SPEC[section]]


def test_every_name_matches_the_pattern_once():
    names = declared("end_to_end") + declared("per_layer") + declared("workloads")
    assert [name for name in names if not NAME.fullmatch(name)] == []
    assert len(names) == len(set(names))


def test_layer_map_uses_declared_names():
    metrics = set(declared("end_to_end")) | set(declared("per_layer"))
    mapped = set()
    for layer in LAYERS["layers"].values():
        assert set(layer["metrics"]) <= metrics
        assert set(layer["moves"]) <= metrics
        assert set(layer["workloads"]) <= set(declared("workloads"))
        mapped |= set(layer["metrics"])
    assert mapped == set(declared("per_layer"))


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile([float(x) for x in range(99)], 0.9) is None
    assert run.percentile([float(x) for x in range(100)], 0.9) == 89.0
    assert run.percentile([float(x) for x in range(20)], 0.5) == 9.0
    assert run.percentile([float(x) for x in range(19)], 0.5) is None


def test_quartile_rate_divides_each_pass_by_its_host_factor():
    passes = [(100, 2.0, 2.0), (100, 1.5, 1.0), (100, 3.0, 1.0), (100, 1.2, 1.0), (100, 4.0, 1.0)]
    # Seconds per pair in reference seconds: 0.01, 0.015, 0.03, 0.012, 0.04.
    assert run.quartile_rate(passes) == pytest.approx(1 / 0.012)
    assert run.quartile_rate([]) == 0.0
    assert workloads.host_factor() > 0.0


def test_fold_splits_self_from_total_and_merges_same_name_nesting():
    tracer = spans.Tracer()
    tracer.spans = [
        ["engine.match", 0.0, 10.0, -1],
        ["bitslice", 1.0, 5.0, 0],
        ["bitslice", 2.0, 4.0, 1],
        ["store.append", 10.0, 11.0, -1],
    ]
    tracer.units = {1: 64, 2: 64}
    layers, root_s = spans.fold(tracer)
    assert root_s == 11.0
    assert (layers["engine.match"].total_s, layers["engine.match"].self_s) == (10.0, 6.0)
    assert (layers["bitslice"].calls, layers["bitslice"].total_s) == (1, 4.0)
    assert (layers["bitslice"].self_s, layers["bitslice"].units) == (4.0, 64)


def test_instrumentation_restores_the_program():
    from repro.circuits import bitslice
    from repro.circuits.permutation import Permutation

    before = (bitslice.simulate_many, Permutation.__dict__["from_circuit"])
    with spans.Instrumentation(spans.Tracer()):
        assert bitslice.simulate_many is not before[0]
    assert (bitslice.simulate_many, Permutation.__dict__["from_circuit"]) == before


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = generate_corpus(
        root, num_lines=4, families=("random", "adversarial"), pairs_per_class=1, seed=5
    )
    report = MatchingService(cache=build_cache()).run_manifest(root, seed=5)
    return manifest, root, report.records


def test_true_outcomes_have_no_error_share(small_run):
    manifest, root, records = small_run
    checker = truth.GroundTruth()
    checker.check_verdicts("cold", manifest, root, records)
    checker.check_same("warm", records, copy.deepcopy(records))
    assert checker.attempted == 2 * len(records)
    assert checker.error_share == 0.0


def test_a_wrong_witness_raises_error_share(small_run):
    manifest, root, records = small_run
    doctored = copy.deepcopy(records)
    target = next(
        r for r in doctored
        if r["equivalence"] == "N-I" and r["family"] == "random" and r["result"]
    )
    target["result"]["nu_x"][0] = 1 - target["result"]["nu_x"][0]
    checker = truth.GroundTruth()
    checker.check_verdicts("cold", manifest, root, doctored)
    assert checker.error_share > 0.0
    assert [pair for _, pair, _ in checker.wrong] == [target["pair_id"]]


def test_a_warm_result_that_differs_from_cold_raises_error_share(small_run):
    _, _, records = small_run
    warm = copy.deepcopy(records)
    warm[0]["matcher"] = "some/other-matcher"
    checker = truth.GroundTruth()
    checker.check_same("warm", records, warm)
    assert checker.error_share == 1 / len(records)


def test_an_incomplete_daemon_run_counts_every_pair_wrong():
    checker = truth.GroundTruth()
    checker.check_completed("daemon", 120, completed=False)
    assert (checker.attempted, checker.failed) == (120, 120)


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", declared("workloads"))
def test_every_declared_metric_is_produced(workload, trace):
    completed = run_benchmark(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = "per_layer" if trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark(tmp_path, "small-mixed", 0)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
