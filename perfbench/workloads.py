"""The four benchmark workloads.

Every workload is a closed loop driven from one process: the next pass or
submission starts only after the previous one has finished.  A workload
runs in *cycles*, a fixed sequence of timed passes; ``run.py`` repeats
cycles until the run's time is up, so per-cycle figures repeat from run
to run while the number of cycles follows the machine's speed.

A *submission* is one run of a whole corpus: ``MatchingService.run_manifest``
in-process, and submit -> terminator frame over the daemon socket.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.core.engine import MatchingConfig
from repro.service.cache import build_cache
from repro.service.daemon import DaemonClient
from repro.service.executor import ParallelExecutor
from repro.service.pipeline import MatchingService
from repro.service.workload import CorpusManifest, generate_corpus

#: Set-up samples taken per run, after one untimed warm-up (which pays for
#: compiling the checkout's bytecode once); ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: What an in-process set-up sample does after the interpreter starts.
READY_SCRIPT = (
    "import repro.cli\n"
    "from repro.service.cache import build_cache\n"
    "from repro.service.pipeline import MatchingService\n"
    "MatchingService(cache=build_cache())\n"
    "print('ready', flush=True)\n"
)

#: Seconds to wait for a server to bind, answer or stop.
SERVER_TIMEOUT_S = 30.0

POOL_WORKERS = 2

#: Swap-test error bound of every run.  At the default 1e-3 a quantum
#: N-I/NP-I match failed on about one 12-line corpus in four, and at 1e-6
#: one NP-I pair in ten 720-pair corpora still failed.  1e-12 doubles the
#: swap-test repetitions of 1e-6, which slowed mid-tabulate's cold pass by
#: about a fifth; a failing verdict would fail the run instead.
EPSILON = 1e-12
CONFIG = MatchingConfig(epsilon=EPSILON)


#: The host-speed reference loop's iterations, and its time on the
#: uncontended 2-vCPU host the benchmark was sized on.
REFERENCE_LOOP = 20000
REFERENCE_LOOP_S = 1.3e-3


def host_factor() -> float:
    """How many times slower than uncontended the host runs right now.

    The benchmark runs on a shared host whose neighbours slow all work by
    up to 1.8x for minutes at a time.  A fixed pure-Python loop slows with
    the program (in a 40 s probe under such load it cut the spread of
    RevLib parsing times from 11.6% to 4.6%), so timings divided by this
    factor are in reference seconds: wall seconds on an uncontended host.
    """
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(REFERENCE_LOOP):
            total += value * value % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times) / REFERENCE_LOOP_S


def measure(call):
    """Run ``call``; returns its result, wall seconds and the host factor around it."""
    before = host_factor()
    started = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - started
    return result, seconds, (before + host_factor()) / 2


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def stop_process(process: subprocess.Popen) -> None:
    """Wait for a process to end, killing it if it does not stop in time."""
    try:
        process.wait(timeout=SERVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


class Samples:
    """Timed submissions by kind: ``(pairs, wall seconds, host factor)`` each."""

    def __init__(self) -> None:
        self.by_kind: dict[str, list[tuple[int, float, float]]] = {}
        self.extra: dict[str, list[float]] = {}

    def add(self, kind: str, pairs: int, seconds: float, factor: float = 1.0) -> None:
        self.by_kind.setdefault(kind, []).append((pairs, seconds, factor))

    def note(self, name: str, value: float) -> None:
        self.extra.setdefault(name, []).append(value)

    def millis(self, kind: str) -> list[float]:
        """Wall-clock milliseconds of each submission of ``kind``."""
        return [seconds * 1000.0 for _, seconds, _ in self.by_kind.get(kind, ())]


class ServiceWorkload:
    """An in-process corpus run: a cold pass, optional pooled pass, warm passes.

    The cold pass runs on a fresh ``build_cache()`` with a result store
    attached (cache puts and store appends).  The pooled pass does the same
    on ``ParallelExecutor(workers=2)``; it feeds only per-layer metrics, so
    it runs in traced runs only, leaving untraced runs more cold and warm
    samples.  Warm passes run a fresh ``MatchingService`` over the cold
    pass's cache, without a store.
    """

    def __init__(self, name, *, num_lines, families, pairs_per_class, warm_passes, pooled):
        self.name = name
        self.num_lines = num_lines
        self.families = families
        self.pairs_per_class = pairs_per_class
        self.warm_passes = warm_passes
        self.pooled = pooled
        self.reference: list[dict] | None = None
        self.queries = (0, 0)

    def measure_setup(self, root: Path, work: Path) -> float:
        """One set-up sample, in reference seconds."""
        process = None

        def spawn():
            nonlocal process
            process = subprocess.Popen(
                [sys.executable, "-c", READY_SCRIPT],
                stdout=subprocess.PIPE, env=program_env(root), cwd=work, text=True,
            )
            return process.stdout.readline()

        try:
            line, seconds, factor = measure(spawn)
        finally:
            if process is not None:
                process.stdout.close()
                stop_process(process)
        if line.strip() != "ready" or process.returncode != 0:
            raise RuntimeError(f"set-up sample failed (exit {process.returncode})")
        return seconds / factor

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        self.seed = seed
        self.corpus = work / "corpus"
        self.manifest = generate_corpus(
            self.corpus,
            num_lines=self.num_lines,
            families=self.families,
            pairs_per_class=self.pairs_per_class,
            seed=seed,
        )
        self.stores = work / "stores"
        self.stores.mkdir()

    def _pass(self, service, samples, kind, store=None):
        # Start every timed pass from a collected heap, so a collection owed
        # by the previous pass is not charged to this one.
        gc.collect()
        report, seconds, factor = measure(
            lambda: service.run_manifest(self.corpus, store_path=store, seed=self.seed)
        )
        samples.add(kind, report.total, seconds, factor)
        return report.records

    def cycle(self, samples: Samples, tracer, traced: bool, truth) -> None:
        cache = build_cache()
        tracer.active = traced
        cold = self._pass(
            MatchingService(CONFIG, cache=cache), samples, "cold", self.stores / "cold.jsonl"
        )
        pooled = None
        if self.pooled:
            pooled = self._pass(
                MatchingService(
                    CONFIG, executor=ParallelExecutor(workers=POOL_WORKERS), cache=build_cache()
                ),
                samples, "pooled", self.stores / "pooled.jsonl",
            )
        warm = [
            self._pass(MatchingService(CONFIG, cache=cache), samples, "warm")
            for _ in range(self.warm_passes)
        ]
        tracer.active = False
        for path in self.stores.iterdir():
            path.unlink()
        if self.reference is None:
            truth.check_verdicts(f"{self.name}/cold", self.manifest, self.corpus, cold)
            self.reference = cold
            self.queries = query_totals(cold)
        else:
            truth.check_same(f"{self.name}/cold", self.reference, cold)
        if pooled is not None:
            truth.check_same(f"{self.name}/pooled", self.reference, pooled)
        for records in warm:
            truth.check_same(
                f"{self.name}/warm", self.reference, records, self.manifest, self.corpus
            )

    def close(self) -> None:
        return None


def query_totals(records: list[dict]) -> tuple[int, int]:
    """Classical and quantum oracle queries spent by freshly executed pairs."""
    classical = quantum = 0
    for record in records:
        result = record.get("result")
        if record.get("status") == "ok" and result:
            classical += result["queries"]
            quantum += result["quantum_queries"]
    return classical, quantum


class DaemonWorkload:
    """``repro cache-server`` plus ``repro serve --no-cache --remote-cache``.

    One client submits a 120-pair warm corpus again and again, each time
    waiting for the terminator frame of the event stream.  Every cycle also
    submits one 240-pair corpus generated from a fresh seed (a cold sample;
    twice the warm size, because every cold sample is a different corpus)
    and asks the cache server for its keys in one ``get_many``.
    """

    name = "daemon-remote"
    num_lines = 4
    families = ("random", "library", "adversarial")
    pairs_per_class = 5
    cold_pairs_per_class = 10

    def __init__(self, warm_submits: int) -> None:
        self.warm_submits = warm_submits
        self.processes: list[subprocess.Popen] = []
        self.client = None
        self.cache_client = None
        self.cycles = 0
        self.queries = (0, 0)

    def _spawn(self, root: Path, work: Path) -> None:
        for name in ("cache.addr", "daemon.addr"):
            (work / name).unlink(missing_ok=True)
        repro = [sys.executable, "-m", "repro"]
        commands = (
            repro + ["cache-server", "--socket", "cache.sock", "--address-file", "cache.addr"],
            repro + [
                "serve", "--no-cache", "--remote-cache", "unix:cache.sock",
                "--epsilon", str(EPSILON),
                "--store-dir", "daemon-runs", "--socket", "daemon.sock",
                "--address-file", "daemon.addr",
            ],
        )
        for command in commands:
            self.processes.append(subprocess.Popen(
                command, cwd=work, env=program_env(root),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ))
        clients = []
        for name in ("cache.addr", "daemon.addr"):
            clients.append(self._await_server(work / name))
        self.cache_client, self.client = clients

    def _await_server(self, address_file: Path) -> DaemonClient:
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        while time.monotonic() < deadline:
            for process in self.processes:
                if process.poll() is not None:
                    raise RuntimeError(f"server exited with code {process.returncode}")
            text = address_file.read_text() if address_file.exists() else ""
            if text.endswith("\n"):
                client = DaemonClient.from_address(text.strip(), timeout=SERVER_TIMEOUT_S)
                client.ping()
                return client
            time.sleep(0.002)
        raise RuntimeError(f"no server address in {address_file.name}")

    def _stop(self) -> None:
        for client in (self.client, self.cache_client):
            if client is not None:
                try:
                    client.shutdown()
                except Exception:  # noqa: BLE001 - the server may be gone already
                    client.close()
        self.client = self.cache_client = None
        for process in self.processes:
            stop_process(process)
        self.processes = []

    def measure_setup(self, root: Path, work: Path) -> float:
        """One set-up sample, in reference seconds: spawn until both servers answer."""
        self._stop()
        _, seconds, factor = measure(lambda: self._spawn(root, work))
        return seconds / factor

    def _corpus(self, directory: Path, seed: int, pairs_per_class: int) -> CorpusManifest:
        return generate_corpus(
            directory,
            num_lines=self.num_lines,
            families=self.families,
            pairs_per_class=pairs_per_class,
            seed=seed,
        )

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.warm_corpus = work / "warm"
        self.warm_manifest = self._corpus(self.warm_corpus, seed, self.pairs_per_class)
        self.pairs = len(self.warm_manifest.entries)

    def _submit(self, corpus: Path, tracer, samples: Samples, kind: str):
        """Submit one corpus, wait for the terminator; returns (records, completed)."""
        pairs = len(CorpusManifest.load(corpus / "manifest.json").entries)
        records = []
        marks = {"events": 0}

        def exchange():
            marks["started"] = time.perf_counter()
            ack = self.client.submit(manifest=corpus.resolve() / "manifest.json", seed=self.seed)
            marks["acked"] = time.perf_counter()
            stream = self.client.events(ack["run_id"])
            while True:
                try:
                    frame = next(stream)
                except StopIteration as stop:
                    marks["ended"] = time.perf_counter()
                    return stop.value
                marks.setdefault("first", time.perf_counter())
                marks["events"] += 1
                if "record" in frame:
                    records.append(frame["record"])

        state, seconds, factor = measure(exchange)
        samples.add(kind, pairs, seconds, factor)
        samples.note(f"daemon.{kind}_ms", seconds * 1000.0)
        if tracer.active:
            started, acked, ended = marks["started"], marks["acked"], marks["ended"]
            tracer.record("daemon.submit", started, acked)
            tracer.record("daemon.events", acked, ended)
            samples.note("daemon.ack_ms", (acked - started) * 1000.0)
            samples.note("daemon.first_event_ms", (marks.get("first", ended) - acked) * 1000.0)
            samples.note("daemon.events", marks["events"])
        return records, state == "completed"

    def cycle(self, samples: Samples, tracer, traced: bool, truth) -> None:
        if self.cycles == 0:
            # Fill the shared cache with the warm corpus once, untimed.
            records, completed = self._submit(self.warm_corpus, tracer, Samples(), "fill")
            truth.check_completed(f"{self.name}/fill", self.pairs, completed)
            truth.check_verdicts(f"{self.name}/fill", self.warm_manifest, self.warm_corpus, records)
            self.reference = records
            self.queries = query_totals(records)
        self.cycles += 1
        cold_corpus = self.work / "cold"
        shutil.rmtree(cold_corpus, ignore_errors=True)
        cold_manifest = self._corpus(
            cold_corpus, self.seed * 100003 + self.cycles, self.cold_pairs_per_class
        )
        tracer.active = traced
        before = self._wire_counters() if tracer.active else None
        cold, completed = self._submit(cold_corpus, tracer, samples, "cold")
        keys = [record["cache_key"] for record in cold if record.get("cache_key")]
        started = time.perf_counter()
        response = self.cache_client.request({"op": "get_many", "keys": keys})
        ended = time.perf_counter()
        samples.add("probe", len(keys), ended - started)
        warm = [
            self._submit(self.warm_corpus, tracer, samples, "warm")
            for _ in range(self.warm_submits)
        ]
        if tracer.active:
            tracer.record("cachenet.get_many", started, ended)
            samples.note("cachenet.get_many_ms", (ended - started) * 1000.0)
            after = self._wire_counters()
            for name, value in after.items():
                samples.note(name, value - before[name])
        tracer.active = False
        truth.check_completed(f"{self.name}/cold", len(cold_manifest.entries), completed)
        truth.check_verdicts(f"{self.name}/cold", cold_manifest, cold_corpus, cold)
        truth.check_present(f"{self.name}/get_many", keys, response.get("records", {}))
        for records, completed in warm:
            truth.check_completed(f"{self.name}/warm", self.pairs, completed)
            truth.check_same(
                f"{self.name}/warm", self.reference, records, self.warm_manifest, self.warm_corpus
            )

    def _wire_counters(self) -> dict:
        """Cache-server lookups and the daemon's cachenet counters, as totals."""
        stats = self.cache_client.request({"op": "stats"})["cache"]
        snapshot = self.client.metrics()["metrics"]["metrics"]

        def total(name):
            return sum(s["value"] for s in snapshot.get(name, {}).get("samples", ()))

        return {
            "cachenet.server_hits": stats["hits"],
            "cachenet.server_lookups": stats["hits"] + stats["misses"],
            "cachenet.requests": total("repro_cachenet_requests_total"),
            "cachenet.errors": total("repro_cachenet_errors"),
        }

    def close(self) -> None:
        self._stop()


#: Workload factories, each taking whether the run is traced.
WORKLOADS = {
    "small-mixed": lambda traced: ServiceWorkload(
        "small-mixed", num_lines=4, families=("random", "library", "adversarial"),
        pairs_per_class=30, warm_passes=2, pooled=False,
    ),
    # One pair per cell: a 32-pair cold pass (2.3 s) left four or five cold
    # samples per run, and their lower quartile spread 17% from seed to seed.
    "mid-tabulate": lambda traced: ServiceWorkload(
        "mid-tabulate", num_lines=12, families=("random", "library"),
        pairs_per_class=1, warm_passes=3, pooled=traced,
    ),
    "wide-probe": lambda traced: ServiceWorkload(
        "wide-probe", num_lines=4, families=("wide",),
        pairs_per_class=60, warm_passes=2, pooled=False,
    ),
    "daemon-remote": lambda traced: DaemonWorkload(warm_submits=6),
}
