"""Command-line interface.

Eighteen sub-commands cover the workflows a user of the library
reaches for most often without writing Python:

* ``repro info CIRCUIT.real`` — line/gate counts, cost metrics and an ASCII
  drawing of a circuit file;
* ``repro match C1.real C2.real --equivalence NP-I`` — run the Boolean
  matcher of a tractable class and print the witnesses;
* ``repro match-many MANIFEST`` — batch matching over a text manifest of
  circuit pairs through :meth:`~repro.service.MatchingService.match_pairs`
  (serial, no cache), printing the per-pair table, the aggregate query
  totals and one ``pair-NNNN: <error>`` line per failed pair;
* ``repro decide C1.real C2.real --equivalence NP-I`` — the non-promise
  decision (match + validate);
* ``repro synth --permutation 0,3,1,2 [--output out.real]`` — synthesise an
  MCT circuit for an explicitly given permutation;
* ``repro corpus OUT_DIR`` — generate a workload corpus (circuit files +
  ``manifest.json``) across equivalence classes and problem families;
* ``repro run MANIFEST`` — execute a corpus manifest through the
  streaming :class:`~repro.service.MatchingService` pipeline, with
  ``--workers`` (process-pool parallelism), ``--cache-size``/``--cache-dir``
  (result reuse across pairs and runs; ``--no-cache`` turns it off),
  ``--remote-cache`` (a shared cache server behind the local tiers),
  ``--resume`` (skip pairs already
  in the JSONL result store), ``--shard i/n`` (run one deterministic
  partition of the manifest), ``--progress`` (a progress line per N
  finished pairs), ``--events`` (JSONL lifecycle-event log),
  ``--metrics`` (write a ``repro-metrics/v1`` snapshot of the run's
  counters) and ``--trace`` (JSONL span log following each pair through
  the pipeline);
* ``repro merge`` — union the result stores of shard runs into one store,
  byte-identical to an unsharded run of the same manifest;
* ``repro fingerprint C1.real [C2.real]`` — print the oracle-identity
  scheme, fingerprint key and (for a pair) the full versioned cache key:
  the debugging tool for "why was this a cache miss?";
* ``repro cache migrate`` — inventory a disk result cache across key
  versions and (``--drop-v1``) reclaim entries stranded by a key-contract
  bump;
* ``repro cache-server`` — serve a shared result cache over the
  ``repro-cache/v1`` protocol of ``docs/remote-cache.md``; runs mount it
  behind their local tiers with ``--remote-cache ADDR`` (``repro serve
  --no-cache --remote-cache ADDR`` mounts it alone);
* ``repro serve`` — run the long-lived matching daemon (one warm engine
  and shared result cache across many submissions) on a Unix or TCP
  socket, speaking the ``repro-daemon/v1`` protocol of ``docs/protocol.md``;
* ``repro submit`` — submit a corpus manifest (or ad-hoc ``--pair``\\ s) to
  a running daemon, optionally waiting with the same ``--progress`` /
  ``--events`` observers as ``repro run``;
* ``repro watch`` — subscribe to a daemon run's live event stream;
* ``repro daemon`` — daemon administration (``ping`` / ``status`` /
  ``stats`` / ``metrics`` / ``cancel`` / ``shutdown``);
* ``repro fleet`` — cross-host sharded runs: ``run`` dispatches one
  shard of a manifest to each healthy ``--peer`` daemon, watches the
  event streams, reassigns dead/hung workers and merges the shard
  stores byte-identically to a serial run (``docs/fleet.md``);
  ``peers``/``status`` probe the registered workers;
* ``repro report`` — scan a tree of JSONL result stores and print
  per-run summaries plus cross-run trends (``docs/observability.md``);
* ``repro lint`` — run the project's static invariant checks
  (``docs/lint.md``).

Flags that several commands share are registered by one helper per group
and read back by one handler helper: the matching policy
(``--equivalence``, ``--epsilon``, ``--seed``, ``--no-quantum``) with the
engine (``--with-inverse``, ``--budget N``) and fingerprint
(``--fingerprint``, ``--probe-count``) flags; execution (``--workers``,
``--verify``); the local result cache (``--no-cache``, ``--cache-size``,
``--cache-dir``); the server listener of ``serve`` and ``cache-server``
(``--socket``, ``--host``, ``--port``, ``--address-file``,
``--auth-token-file``, ``--insecure``); a client's daemon address; and
the run observers (``--progress``, ``--events``).  ``run`` mounts
``--remote-cache`` behind its local cache and refuses it with
``--no-cache``; ``serve`` mounts it per run, alone under ``--no-cache``.

Circuit files may be RevLib ``.real`` or OpenQASM (chosen by extension).
The module is importable (``python -m repro ...``) and also exposed
through the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.circuits import drawing, metrics
from repro.circuits.io import load_circuit, save_circuit
from repro.circuits.permutation import Permutation
from repro.core import (
    EquivalenceType,
    MatchingConfig,
    MatchingEngine,
    verify_match,
)
from repro.core.decision import decide
from repro.exceptions import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.daemon import DaemonClient, MatchingDaemon, RunState
from repro.service.events import (
    EventLogObserver,
    ProgressObserver,
    StatsObserver,
)
from repro.service.executor import Executor, ParallelExecutor
from repro.service.fingerprint import (
    FINGERPRINT_SCHEMES,
    build_registry,
    pair_key,
)
from repro.service.pipeline import MatchingService, merge_stores, parse_shard
from repro.service.workload import (
    DEFAULT_FAMILIES,
    MANIFEST_NAME,
    generate_corpus,
    tractable_classes,
)
from repro.service.cache import ResultCache, build_cache, migrate_cache
from repro.synthesis import synthesize
from repro.version import __version__

__all__ = ["main", "build_parser"]


def _format_witnesses(result) -> str:
    lines = []
    if result.nu_x is not None:
        lines.append("nu_x = " + "".join("1" if b else "0" for b in result.nu_x))
    if result.pi_x is not None:
        lines.append(f"pi_x = {list(result.pi_x.mapping)}")
    if result.nu_y is not None:
        lines.append("nu_y = " + "".join("1" if b else "0" for b in result.nu_y))
    if result.pi_y is not None:
        lines.append(f"pi_y = {list(result.pi_y.mapping)}")
    lines.append(f"classical queries = {result.queries}")
    if result.quantum_queries:
        lines.append(f"quantum queries  = {result.quantum_queries}")
        lines.append(f"swap tests       = {result.swap_tests}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared flag groups: one reader per group
# ---------------------------------------------------------------------------
def _config_from_args(args: argparse.Namespace) -> MatchingConfig:
    """The :class:`MatchingConfig` the shared matching flags describe.

    A flag the sub-command lacks falls back to the config default.
    """
    default = MatchingConfig()
    return MatchingConfig(
        epsilon=args.epsilon,
        allow_quantum=not args.no_quantum,
        with_inverse=getattr(args, "with_inverse", default.with_inverse),
        max_queries=getattr(args, "budget", default.max_queries),
        fingerprint_scheme=getattr(
            args, "fingerprint", default.fingerprint_scheme
        ),
        probe_count=getattr(args, "probe_count", default.probe_count),
    )


def _executor_from_args(args: argparse.Namespace) -> Executor | None:
    """``--workers N``: a process pool for N > 1, else ``None`` (serial)."""
    if args.workers <= 0:
        raise ReproError(f"--workers must be positive, got {args.workers}")
    if args.workers == 1:
        return None
    return ParallelExecutor(workers=args.workers)


def _auth_token(args: argparse.Namespace) -> str | None:
    """The shared secret in ``--auth-token-file``, stripped; None without it."""
    path = args.auth_token_file
    if path is None:
        return None
    try:
        token = Path(path).read_text(encoding="utf-8").strip()
    except OSError as error:
        raise ReproError(f"cannot read --auth-token-file: {error}") from None
    if not token:
        raise ReproError(f"--auth-token-file {path} holds no token")
    return token


def _cache_from_args(
    args: argparse.Namespace, remote: str | None = None
) -> ResultCache | None:
    """The local cache tiers the cache flags describe; ``None`` under ``--no-cache``.

    A ``remote`` cache-server address is mounted behind the local tiers
    and presented the ``--auth-token-file`` secret.
    """
    if getattr(args, "no_cache", False):
        return None
    if args.cache_size <= 0:
        hint = " (use --no-cache to disable caching)" if "no_cache" in args else ""
        raise ReproError(f"--cache-size must be positive, got {args.cache_size}{hint}")
    return build_cache(
        memory_size=args.cache_size,
        disk_dir=args.cache_dir,
        remote=remote,
        remote_auth_token=None if remote is None else _auth_token(args),
    )


def _watch_observers(args: argparse.Namespace) -> tuple[list, EventLogObserver | None]:
    """The observers the ``--progress``/``--events`` flags describe."""
    observers: list = []
    event_log = None
    if args.progress is not None:
        if args.progress <= 0:
            raise ReproError(
                f"--progress cadence must be positive, got {args.progress}"
            )
        observers.append(ProgressObserver(every=args.progress))
    if args.events is not None:
        event_log = EventLogObserver(args.events)
        observers.append(event_log)
    return observers, event_log


def _listener(args: argparse.Namespace, default_socket: Path) -> dict:
    """The server-listener flags as the servers' keyword arguments.

    With neither ``--socket`` nor ``--host`` the server listens on
    ``default_socket``; with both it does not start.
    """
    if args.socket is not None and args.host is not None:
        raise ReproError(
            "choose one transport: --socket PATH or --host/--port, not both"
        )
    socket_path = args.socket
    if socket_path is None and args.host is None:
        socket_path = str(default_socket)
    return {
        "socket_path": socket_path,
        "host": args.host,
        "port": args.port,
        "auth_token": _auth_token(args),
        "insecure": args.insecure,
    }


def _serve_until_stopped(
    server, args: argparse.Namespace, banner: Callable[[str], str], stopped: str
) -> int:
    """Start, print the banner, write ``--address-file``, serve, stop.

    The address file is written only once the server answers, so a
    caller polling for it never connects too early.
    """
    server.start()
    print(banner(server.address))
    if args.address_file is not None:
        Path(args.address_file).write_text(server.address + "\n", encoding="utf-8")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        server.stop()
    print(stopped)
    return 0


def _daemon_client(args: argparse.Namespace) -> DaemonClient:
    """Build a client from the shared daemon-address flags."""
    token = _auth_token(args)
    if args.socket is not None:
        return DaemonClient(
            socket_path=args.socket, timeout=args.timeout, auth_token=token
        )
    if args.host is not None:
        if args.port is None:
            raise ReproError("--host needs --port")
        return DaemonClient(
            host=args.host, port=args.port, timeout=args.timeout,
            auth_token=token,
        )
    if args.address_file is not None:
        try:
            address = Path(args.address_file).read_text(encoding="utf-8").strip()
        except OSError as error:
            raise ReproError(f"cannot read --address-file: {error}") from None
        return DaemonClient.from_address(
            address, timeout=args.timeout, auth_token=token
        )
    raise ReproError(
        "name the daemon with --socket PATH, --host/--port, or --address-file"
    )


# ---------------------------------------------------------------------------
# Sub-command handlers
# ---------------------------------------------------------------------------
def _cmd_info(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    report = metrics.metrics(circuit)
    print(f"circuit : {circuit.name or args.circuit}")
    for key, value in report.as_dict().items():
        print(f"{key:13s}: {value}")
    counts = circuit.gate_counts()
    if counts:
        print("gate histogram:", ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    if args.draw:
        print()
        print(drawing.draw(circuit, ascii_only=args.ascii))
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    c1 = load_circuit(args.circuit1)
    c2 = load_circuit(args.circuit2)
    equivalence = EquivalenceType.from_label(args.equivalence)
    engine = MatchingEngine(_config_from_args(args))
    result = engine.match(c1, c2, equivalence, rng=args.seed)
    print(f"equivalence : {equivalence.label}")
    print(_format_witnesses(result))
    if args.verify:
        ok = verify_match(c1, c2, equivalence, result)
        print(f"verified    : {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def _read_manifest(
    path: str, default_equivalence: str
) -> list[tuple[str, str, str]]:
    """Parse a match-many manifest: ``C1 C2 [EQUIVALENCE]`` per line.

    Blank lines and ``#`` comments are skipped; the default class applies to
    two-column lines.
    """
    rows: list[tuple[str, str, str]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) == 2:
                label = default_equivalence
            elif len(fields) == 3:
                label = fields[2]
            else:
                raise ReproError(
                    f"{path}:{lineno}: expected 'C1 C2 [EQUIVALENCE]', got "
                    f"{len(fields)} fields"
                )
            try:
                EquivalenceType.from_label(label)
            except ValueError as error:
                raise ReproError(f"{path}:{lineno}: {error}") from None
            rows.append((fields[0], fields[1], label))
    if not rows:
        raise ReproError(f"{path}: manifest lists no circuit pairs")
    return rows


def _cmd_match_many(args: argparse.Namespace) -> int:
    rows = _read_manifest(args.manifest, args.equivalence)
    # Load each distinct file once, however many pairs name it.
    circuits = {
        path: load_circuit(path)
        for path in dict.fromkeys(path for row in rows for path in row[:2])
    }
    pairs = [
        (circuits[path1], circuits[path2], label) for path1, path2, label in rows
    ]
    service = MatchingService(_config_from_args(args))
    report = service.match_pairs(pairs, seed=args.seed)
    print(report.to_table(title=f"batch of {report.total} pairs"))
    print()
    print(report.summary())
    for record in report.records:
        if not record.get("result"):
            print(f"{record['pair_id']}: {record['error'].splitlines()[0]}")
    return 0 if report.failed == 0 else 1


def _cmd_decide(args: argparse.Namespace) -> int:
    c1 = load_circuit(args.circuit1)
    c2 = load_circuit(args.circuit2)
    outcome = decide(
        c1,
        c2,
        args.equivalence,
        epsilon=args.epsilon,
        rng=args.seed,
        allow_quantum=not args.no_quantum,
        allow_brute_force=args.brute_force,
    )
    print(f"equivalent: {'yes' if outcome.equivalent else 'no'}")
    if outcome.equivalent and outcome.result is not None:
        print(_format_witnesses(outcome.result))
    return 0 if outcome.equivalent else 1


def _parse_classes(spec: str):
    """Parse the --classes value: 'tractable', 'all' or a CSV of labels."""
    if spec == "tractable":
        return tractable_classes()
    if spec == "all":
        return tuple(EquivalenceType)
    try:
        return tuple(
            EquivalenceType.from_label(label) for label in spec.split(",") if label
        )
    except ValueError as error:
        raise ReproError(str(error)) from None


def _cmd_corpus(args: argparse.Namespace) -> int:
    families = tuple(name for name in args.families.split(",") if name)
    manifest = generate_corpus(
        args.out_dir,
        num_lines=args.num_lines,
        classes=_parse_classes(args.classes),
        families=families,
        pairs_per_class=args.pairs_per_class,
        seed=args.seed,
    )
    # Entries record what was actually built: the wide family ignores
    # --num-lines and skips classes it cannot generate, so the summary
    # counts generated cells, not requested ones.
    widths = sorted({entry.num_lines for entry in manifest.entries})
    if not widths:  # e.g. wide family crossed with only non-wide classes
        width_text = str(manifest.num_lines)
    elif len(widths) == 1:
        width_text = str(widths[0])
    else:
        width_text = f"{widths[0]}-{widths[-1]}"
    generated_classes = {entry.equivalence for entry in manifest.entries}
    print(
        f"generated {len(manifest.entries)} pairs "
        f"({len(generated_classes)} classes x "
        f"{len(manifest.families)} families "
        f"x {args.pairs_per_class}) on {width_text} lines, "
        f"seed {manifest.seed}"
    )
    print(f"manifest: {args.out_dir}/{MANIFEST_NAME}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.no_cache and args.remote_cache is not None:
        raise ReproError(
            "--remote-cache rides behind the local cache tiers; "
            "drop --no-cache to use it"
        )
    cache = _cache_from_args(args, remote=args.remote_cache)
    metrics = None
    if args.metrics is not None:
        metrics = MetricsRegistry()
        if cache is not None:
            cache.bind_metrics(metrics)
    executor = _executor_from_args(args)
    tracer = Tracer(args.trace) if args.trace is not None else None
    shard = parse_shard(args.shard) if args.shard is not None else None
    observers, event_log = _watch_observers(args)
    service = MatchingService(
        _config_from_args(args),
        executor=executor,
        cache=cache,
        verify=args.verify,
        observers=observers,
        metrics=metrics,
        tracer=tracer,
    )
    try:
        report = service.run_manifest(
            args.manifest,
            store_path=args.store,
            resume=args.resume,
            seed=args.seed,
            shard=shard,
        )
    finally:
        if event_log is not None:
            event_log.close()
        if tracer is not None:
            tracer.close()
        if args.remote_cache is not None:
            cache.slow.close()  # build_cache put the RemoteCache last
        # Written in the cleanup path on purpose: an interrupted run's
        # counters are exactly what a post-mortem wants to see.
        if metrics is not None:
            metrics.write_json(args.metrics)
    print(report.to_table(title=f"service run of {report.total} pairs"))
    print()
    print(report.summary())
    if args.store:
        print(f"store: {args.store}")
    if args.metrics:
        print(f"metrics: {args.metrics}")
    if args.trace:
        print(f"trace: {args.trace}")
    return 0 if report.failed == 0 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report, report_to_json, scan_results

    summaries = scan_results(
        args.results_root, use_cache=not args.no_cache_file
    )
    if args.json:
        print(json.dumps(report_to_json(summaries), indent=2, sort_keys=True))
    else:
        print(render_report(summaries))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    count = merge_stores(args.output, args.stores)
    print(
        f"merged {count} records from {len(args.stores)} "
        f"store{'s' if len(args.stores) != 1 else ''} into {args.output}"
    )
    return 0


# ---------------------------------------------------------------------------
# Servers and their clients
# ---------------------------------------------------------------------------
def _watch_run(client: DaemonClient, run_id: str, args: argparse.Namespace) -> int:
    """Subscribe to a run, forward events to observers, map state to exit code.

    The exit code counts *every* failed pair, including ones served from
    the cache or the store — the ``failed`` of the run's ``RunCompleted``,
    same as ``repro run``.
    """
    observers, event_log = _watch_observers(args)
    stats = StatsObserver()
    observers.append(stats)
    try:
        state = client.watch(
            run_id, observers, replay=not getattr(args, "no_replay", False)
        )
    finally:
        if event_log is not None:
            event_log.close()
    failed = stats.failed
    if stats.runs_completed == 0 and state == RunState.COMPLETED:
        # --no-replay on an already-finished run delivers no events; the
        # authoritative failure count then comes from a status probe.
        failed = client.status(run_id)["run"]["summary"]["failed"]
    print(f"{run_id}: {state}")
    if state == RunState.COMPLETED and failed == 0:
        return 0
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    listener = _listener(args, Path(args.store_dir) / "daemon.sock")
    # The local cache is the daemon's own; --remote-cache is mounted per
    # run (alone under --no-cache), so it stays out of _cache_from_args.
    daemon = MatchingDaemon(
        _config_from_args(args),
        store_dir=args.store_dir,
        cache=_cache_from_args(args),
        executor=_executor_from_args(args),
        verify=args.verify,
        max_queued=args.max_queued,
        remote_cache=args.remote_cache,
        **listener,
    )
    return _serve_until_stopped(
        daemon,
        args,
        lambda address: f"listening on {address} (store dir: {daemon.store_dir})",
        "daemon stopped",
    )


def _cmd_cache_server(args: argparse.Namespace) -> int:
    from repro.cachenet import CacheServer

    listener = _listener(args, Path(args.cache_dir or ".") / "cache.sock")
    server = CacheServer(_cache_from_args(args), **listener)
    return _serve_until_stopped(
        server,
        args,
        lambda address: f"cache server listening on {address}",
        "cache server stopped",
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    if (args.manifest is None) == (not args.pair):
        raise ReproError("submit needs a MANIFEST or at least one --pair (not both)")
    if args.resume and args.store is None:
        raise ReproError(
            "--resume requires --store PATH (each submission otherwise gets "
            "a fresh store, leaving nothing to resume from)"
        )
    pairs = None
    if args.pair:
        for _, _, label in args.pair:
            try:
                EquivalenceType.from_label(label)  # fail client-side
            except ValueError as error:
                raise ReproError(str(error)) from None
        pairs = [
            {"circuit1": c1, "circuit2": c2, "equivalence": label}
            for c1, c2, label in args.pair
        ]
    with _daemon_client(args) as client:
        ack = client.submit(
            args.manifest,
            pairs=pairs,
            seed=args.seed,
            resume=args.resume,
            store=args.store,
        )
        run_id = ack["run_id"]
        print(f"submitted {run_id} (store: {ack['store']})")
        if not (args.wait or args.progress is not None or args.events is not None):
            return 0
        return _watch_run(client, run_id, args)


def _cmd_watch(args: argparse.Namespace) -> int:
    with _daemon_client(args) as client:
        return _watch_run(client, args.run_id, args)


def _cmd_daemon(args: argparse.Namespace) -> int:
    if args.action == "cancel" and args.run_id is None:
        raise ReproError("cancel needs a RUN_ID")
    with _daemon_client(args) as client:
        # argparse restricts the action to the client's request methods.
        request = getattr(client, args.action)
        if args.action in ("status", "cancel"):
            response = request(args.run_id)
        else:
            response = request()
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetCoordinator

    if args.action == "run" and args.manifest is None:
        raise ReproError("fleet run needs a MANIFEST")
    if not args.peer:
        raise ReproError("fleet needs at least one --peer HOST:PORT")
    token = _auth_token(args)

    def coordinator(observers=(), metrics=None) -> FleetCoordinator:
        return FleetCoordinator(
            args.peer,
            work_dir=args.work_dir,
            auth_token=token,
            observers=observers,
            metrics=metrics,
            heartbeat_s=args.heartbeat,
            hang_timeout_s=args.hang_timeout,
            max_attempts=args.max_attempts,
            timeout=args.timeout,
            remote_cache=args.remote_cache,
        )

    if args.action != "run":
        # peers: one health probe per registered worker.  status: the
        # probes plus each healthy worker's stats frame, as one JSON doc.
        probes = coordinator().check_peers()
        if args.action == "peers":
            for probe in probes:
                state = "healthy" if probe["healthy"] else (
                    f"unhealthy ({probe.get('error', probe['reason'])})"
                )
                print(f"{probe['address']}: {state}")
        else:
            for probe in probes:
                if not probe["healthy"]:
                    continue
                with DaemonClient.from_address(
                    probe["address"], timeout=args.timeout, auth_token=token
                ) as client:
                    frame = client.stats()
                    probe["stats"] = {
                        key: frame[key]
                        for key in (
                            "executor", "runs", "pairs", "cache", "uptime"
                        )
                        if key in frame
                    }
            print(json.dumps({"peers": probes}, indent=2, sort_keys=True))
        return 0 if all(probe["healthy"] for probe in probes) else 1

    observers, event_log = _watch_observers(args)
    metrics = MetricsRegistry() if args.metrics is not None else None
    fleet = coordinator(observers, metrics)
    try:
        report = fleet.run(args.manifest, seed=args.seed, output=args.output)
    finally:
        if event_log is not None:
            event_log.close()
        if metrics is not None:
            metrics.write_json(args.metrics)
    for shard in report.shards:
        moved = (
            f" (reassigned from {', '.join(shard.reassigned_from)})"
            if shard.reassigned_from
            else ""
        )
        print(
            f"shard {shard.index}/{shard.count}: {len(shard.settled)} pairs "
            f"on {shard.peer} as {shard.remote_run_id}{moved}"
        )
    print(report.summary())
    if args.metrics:
        print(f"metrics: {args.metrics}")
    return 0 if report.failed == 0 else 1


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    registry = build_registry(
        config.fingerprint_scheme, probe_count=config.probe_count
    )
    paths = [args.circuit1] + ([args.circuit2] if args.circuit2 else [])
    fingerprints = []
    for path in paths:
        circuit = load_circuit(path)
        fp = registry.fingerprint(circuit, with_inverse=config.with_inverse)
        print(f"{path}:")
        print(f"  lines  : {fp.num_lines}")
        print(f"  scheme : {fp.scheme}")
        print(f"  key    : {fp.key}")
        fingerprints.append(fp)
    if len(fingerprints) == 2:
        equivalence = EquivalenceType.from_label(args.equivalence)
        key = pair_key(fingerprints[0], fingerprints[1], equivalence, config)
        print(f"pair key : {key}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    # argparse restricts `action` to "migrate"; the sub-command keeps the
    # action slot so future maintenance verbs (gc, stats) slot in.
    if args.remote is not None:
        raise ReproError(
            "cache migrate cannot run against a remote cache server: the "
            "repro-cache/v1 wire protocol moves records, not key versions, "
            "and migrating entries out from under a live server would race "
            "its writers.  Stop the server and run 'repro cache migrate "
            "--cache-dir DIR' on its host against the same directory."
        )
    counts = migrate_cache(args.cache_dir, drop_v1=args.drop_v1)
    print(
        f"{args.cache_dir}: {counts['v2']} current (v2) entries, "
        f"{counts['v1']} stale v1, {counts['unreadable']} unreadable"
    )
    if args.drop_v1:
        print(f"dropped {counts['dropped']} stale entries")
    elif counts["v1"] or counts["unreadable"]:
        print("re-run with --drop-v1 to delete the stale entries")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    mapping = [int(token) for token in args.permutation.split(",")]
    circuit = synthesize(
        Permutation(mapping), bidirectional=not args.basic, name="synthesized"
    )
    print(f"synthesised {circuit.num_gates} gates on {circuit.num_lines} lines")
    print(drawing.draw(circuit, ascii_only=args.ascii))
    if args.output:
        save_circuit(circuit, args.output)
        print(f"written to {args.output}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        lint_project,
        load_baseline,
        render,
        render_text,
        write_baseline,
    )

    root = Path(args.root)
    paths = [Path(item) for item in args.paths] or None
    baseline_path = (
        Path(args.baseline) if args.baseline else root / "lint-baseline.json"
    )
    baseline = frozenset()
    if (
        not args.no_baseline
        and not args.write_baseline
        and (args.baseline or baseline_path.exists())
    ):
        baseline = load_baseline(baseline_path)
    report = lint_project(root, baseline=baseline, paths=paths)
    if args.write_baseline:
        write_baseline(baseline_path, report.findings)
        print(f"wrote {baseline_path} ({len(report.findings)} findings)")
        return 0
    output = render(report, args.format)
    if args.output:
        Path(args.output).write_text(output + "\n", encoding="utf-8")
        print(render_text(report))
    else:
        print(output)
    return report.exit_code


# ---------------------------------------------------------------------------
# Parser: one registering helper per flag group that several commands share
# ---------------------------------------------------------------------------
def _add_policy_flags(
    sub: argparse.ArgumentParser, *, equivalence: bool = True, seed: bool = True
) -> None:
    """How a pair is matched: --equivalence, --epsilon, --seed, --no-quantum.

    Commands whose pairs carry their own class (``run``, ``serve``) take no
    ``--equivalence``; ``fingerprint`` and ``serve`` take no ``--seed``.
    """
    if equivalence:
        sub.add_argument(
            "--equivalence", "-e", default="NP-I", help="X-Y class (default NP-I)"
        )
    sub.add_argument("--epsilon", type=float, default=1e-3)
    if seed:
        sub.add_argument("--seed", type=int, default=None)
    sub.add_argument(
        "--no-quantum",
        action="store_true",
        help="disallow the simulated quantum matchers",
    )


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    """What the matcher may spend: --with-inverse, --budget."""
    sub.add_argument(
        "--with-inverse",
        action="store_true",
        help="grant the matcher inverse-circuit access (Table 1 left column)",
    )
    sub.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="hard per-oracle query budget (QueryBudgetExceededError beyond)",
    )


def _add_fingerprint_flags(sub: argparse.ArgumentParser) -> None:
    """How cache keys identify an oracle: --fingerprint, --probe-count."""
    sub.add_argument(
        "--fingerprint",
        choices=FINGERPRINT_SCHEMES,
        default="auto",
        help="oracle-identity scheme cache keys use: auto (exact up "
        "to 14 lines, sampled probes beyond), exact, or probe",
    )
    sub.add_argument(
        "--probe-count", type=int, default=64, metavar="N",
        help="probes per sampled-probe fingerprint (default 64; "
        "0 disables the probe tier in auto mode)",
    )


def _add_execution_flags(sub: argparse.ArgumentParser) -> None:
    """How a run's fresh pairs execute: --workers, --verify."""
    sub.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="process-pool size per run (1 = serial, the default)",
    )
    sub.add_argument(
        "--verify", action="store_true",
        help="exhaustively verify the witnesses of freshly executed pairs",
    )


def _add_cache_flags(sub: argparse.ArgumentParser, *, optional: bool = True) -> None:
    """The local result cache: --cache-size, --cache-dir, and --no-cache if optional."""
    if optional:
        sub.add_argument(
            "--no-cache", action="store_true",
            help="disable the local result cache",
        )
    sub.add_argument(
        "--cache-size", type=int, default=4096, metavar="N",
        help="in-memory LRU capacity in results (default 4096)",
    )
    sub.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist the result cache on disk, so later runs and "
        "restarts reuse it",
    )


def _add_listener_flags(sub: argparse.ArgumentParser, default_socket: str) -> None:
    """Where a server listens and whom it admits."""
    sub.add_argument(
        "--socket", metavar="PATH",
        help=f"listen on this Unix socket (default {default_socket})",
    )
    sub.add_argument("--host", help="listen on TCP at this host instead")
    sub.add_argument(
        "--port", type=int, default=0,
        help="TCP port (with --host; 0 = pick a free one)",
    )
    sub.add_argument(
        "--address-file", metavar="PATH",
        help="write the bound address here once the server answers",
    )
    sub.add_argument(
        "--auth-token-file", metavar="PATH",
        help="require clients to present this file's shared secret in an "
        "'auth' handshake (mandatory for non-loopback --host binds)",
    )
    sub.add_argument(
        "--insecure", action="store_true",
        help="serve on a non-loopback --host without an auth token "
        "(refused otherwise)",
    )


def _add_daemon_address_flags(sub: argparse.ArgumentParser) -> None:
    """Which daemon a client talks to."""
    sub.add_argument(
        "--socket", metavar="PATH", help="Unix socket the daemon listens on"
    )
    sub.add_argument("--host", help="TCP host the daemon listens on")
    sub.add_argument("--port", type=int, help="TCP port (with --host)")
    sub.add_argument(
        "--address-file", metavar="PATH",
        help="file holding the daemon address (written by 'repro serve')",
    )
    sub.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="socket timeout (default: block forever)",
    )
    sub.add_argument(
        "--auth-token-file", metavar="PATH",
        help="file holding the daemon's shared secret (sent as an "
        "'auth' handshake right after connecting)",
    )


def _add_observer_flags(sub: argparse.ArgumentParser) -> None:
    """What a run reports as it goes: --progress, --events."""
    sub.add_argument(
        "--progress", type=int, nargs="?", const=1, default=None, metavar="N",
        help="print a progress line every N finished pairs "
        "(default quiet; bare --progress means every pair)",
    )
    sub.add_argument(
        "--events", metavar="PATH",
        help="append every lifecycle event to a JSONL log file",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Boolean matching of reversible circuits (DAC 2024 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="inspect a circuit file")
    info.add_argument("circuit", help="path to a .real or .qasm file")
    info.add_argument("--draw", action="store_true", help="print an ASCII drawing")
    info.add_argument("--ascii", action="store_true", help="pure-ASCII glyphs")
    info.set_defaults(handler=_cmd_info)

    matcher = subparsers.add_parser("match", help="run a promise matcher")
    matcher.add_argument("circuit1", help="path to C1")
    matcher.add_argument("circuit2", help="path to C2")
    _add_policy_flags(matcher)
    _add_engine_flags(matcher)
    matcher.add_argument(
        "--verify", action="store_true", help="exhaustively verify the witnesses"
    )
    matcher.set_defaults(handler=_cmd_match)

    many = subparsers.add_parser(
        "match-many",
        help="batch matching over a manifest of circuit pairs",
        description=(
            "Each manifest line names 'C1 C2 [EQUIVALENCE]'; blank lines and "
            "# comments are skipped.  Pairs without an explicit class use "
            "--equivalence.  The pairs run through the MatchingService "
            "pipeline (serial, no cache); prints the per-pair table, the "
            "aggregate classical/quantum query totals and the first line "
            "of each failed pair's error.  Exit code 1 when any pair "
            "failed to match."
        ),
    )
    many.add_argument("manifest", help="path to the circuit-pair manifest")
    _add_policy_flags(many)
    _add_engine_flags(many)
    many.set_defaults(handler=_cmd_match_many)

    corpus = subparsers.add_parser(
        "corpus",
        help="generate a workload corpus (circuits + manifest.json)",
        description=(
            "Writes circuit pairs and a manifest.json into OUT_DIR, drawn "
            "from the requested problem families (random cascades, library "
            "benchmark functions, adversarial non-equivalent near-misses) "
            "across the requested equivalence classes.  Feed the result to "
            "'repro run'."
        ),
    )
    corpus.add_argument("out_dir", help="directory to create/populate")
    corpus.add_argument("--num-lines", type=int, default=4, metavar="N")
    corpus.add_argument(
        "--classes",
        default="tractable",
        help="'tractable' (default), 'all', or a comma-separated label list",
    )
    corpus.add_argument(
        "--families",
        default=",".join(DEFAULT_FAMILIES),
        help=f"comma-separated families (default {','.join(DEFAULT_FAMILIES)})",
    )
    corpus.add_argument(
        "--pairs-per-class", type=int, default=1, metavar="K",
        help="pairs per (family, class) cell (default 1)",
    )
    corpus.add_argument("--seed", type=int, default=None)
    corpus.set_defaults(handler=_cmd_corpus)

    runner = subparsers.add_parser(
        "run",
        help="execute a corpus manifest through the matching service",
        description=(
            "Runs every pair of a corpus manifest through the cached, "
            "parallel, resumable MatchingService pipeline and prints the "
            "per-pair table plus throughput.  Exit code 1 when any pair "
            "failed to match."
        ),
    )
    runner.add_argument(
        "manifest", help="path to a manifest.json or a corpus directory"
    )
    runner.add_argument(
        "--store", metavar="PATH",
        help="JSONL result store to stream records to (required for --resume)",
    )
    runner.add_argument(
        "--resume", action="store_true",
        help="skip pairs already present in the store",
    )
    runner.add_argument(
        "--shard", metavar="I/N",
        help="run only the pairs of shard I of N (deterministic partition "
        "by pair id; union the shard stores with 'repro merge')",
    )
    _add_execution_flags(runner)
    _add_observer_flags(runner)
    runner.add_argument(
        "--metrics", metavar="PATH",
        help="write a repro-metrics/v1 JSON snapshot of the run's counters",
    )
    runner.add_argument(
        "--trace", metavar="PATH",
        help="append per-stage spans (fingerprint, cache probe, match, "
        "store append) to a JSONL span log",
    )
    _add_cache_flags(runner)
    runner.add_argument(
        "--remote-cache", metavar="ADDR",
        help="shared cache server behind the local tiers (unix:<path> or "
        "tcp:<host>:<port>, from 'repro cache-server'); a dead server "
        "degrades to local-only, never fails the run; refused with "
        "--no-cache",
    )
    runner.add_argument(
        "--auth-token-file", metavar="PATH",
        help="file holding the --remote-cache server's shared secret",
    )
    # The promised class per pair comes from the manifest.
    _add_policy_flags(runner, equivalence=False)
    _add_engine_flags(runner)
    _add_fingerprint_flags(runner)
    runner.set_defaults(handler=_cmd_run)

    merger = subparsers.add_parser(
        "merge",
        help="union shard result stores into one",
        description=(
            "Merges the JSONL result stores written by sharded 'repro run "
            "--shard i/n' invocations (or by resumed runs) into a single "
            "store ordered by manifest index — byte-identical to the store "
            "an unsharded serial run of the same manifest would have "
            "written.  Also normalises a single completion-ordered store "
            "from a --workers N run."
        ),
    )
    merger.add_argument(
        "stores", nargs="+", help="input JSONL result stores (one per shard)"
    )
    merger.add_argument(
        "--output", "-o", required=True, metavar="PATH",
        help="merged JSONL store to write (overwritten)",
    )
    merger.set_defaults(handler=_cmd_merge)

    reporter = subparsers.add_parser(
        "report",
        help="summarise result stores: per-run mix and cross-run trends",
        description=(
            "Scans a directory tree for JSONL result stores ('repro run "
            "--store', shard stores, daemon run stores), summarises each "
            "run's class mix, cache hit rates per fingerprint scheme, "
            "query totals and wall clock, and renders cross-run trends.  "
            "Scanning is incremental: unchanged stores are reused from "
            "a .repro-report-cache.json at the root."
        ),
    )
    reporter.add_argument(
        "results_root", help="directory tree holding JSONL result stores"
    )
    reporter.add_argument(
        "--json", action="store_true",
        help="print the machine-readable repro-report/v1 document instead",
    )
    reporter.add_argument(
        "--no-cache-file", action="store_true",
        help="re-read every store; neither read nor write the scan cache",
    )
    reporter.set_defaults(handler=_cmd_report)

    printer = subparsers.add_parser(
        "fingerprint",
        help="print a circuit's oracle identity (and a pair's cache key)",
        description=(
            "Fingerprints one or two circuit files under the configured "
            "identity scheme and prints the chosen scheme and versioned "
            "key fragment; with two files, also the full pair cache key.  "
            "The debugging tool for 'why was this pair a cache miss?' — "
            "two runs hit the same cache entry exactly when this command "
            "prints the same pair key for both.  The key covers the class "
            "and every matching flag."
        ),
    )
    printer.add_argument("circuit1", help="path to a .real or .qasm file")
    printer.add_argument(
        "circuit2", nargs="?", default=None,
        help="optional second circuit: print the pair's full cache key",
    )
    _add_policy_flags(printer, seed=False)
    _add_engine_flags(printer)
    _add_fingerprint_flags(printer)
    printer.set_defaults(handler=_cmd_fingerprint)

    cache_admin = subparsers.add_parser(
        "cache",
        help="result-cache maintenance",
        description=(
            "Maintenance over a disk result cache.  'migrate' inventories "
            "the entries by cache-key version: entries written under the "
            "v1 contract can never hit again (v2 keys hash to different "
            "filenames) and --drop-v1 deletes them."
        ),
    )
    cache_admin.add_argument("action", choices=("migrate",))
    cache_admin.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="the disk cache directory to migrate",
    )
    cache_admin.add_argument(
        "--drop-v1", action="store_true",
        help="delete stale (v1 or unreadable) entries instead of counting them",
    )
    cache_admin.add_argument(
        "--remote", metavar="ADDR",
        help="refused: migration runs on the cache server's host against "
        "its --cache-dir, with the server stopped",
    )
    cache_admin.set_defaults(handler=_cmd_cache)

    cache_server = subparsers.add_parser(
        "cache-server",
        help="serve a shared result cache to remote runs",
        description=(
            "Serves one result cache (in-memory LRU, optionally backed by "
            "--cache-dir on disk) to many runs over the newline-delimited "
            "JSON protocol repro-cache/v1 (docs/remote-cache.md), on a "
            "Unix socket (default ./cache.sock, or <cache-dir>/cache.sock) "
            "or TCP with --host/--port.  Point 'repro run', 'repro serve' "
            "or 'repro fleet run' at it with --remote-cache: results one "
            "host computes become cache hits on every other."
        ),
    )
    _add_listener_flags(
        cache_server, "./cache.sock, or <cache-dir>/cache.sock with --cache-dir"
    )
    _add_cache_flags(cache_server, optional=False)
    cache_server.set_defaults(handler=_cmd_cache_server)

    server = subparsers.add_parser(
        "serve",
        help="run the long-lived matching daemon",
        description=(
            "Starts a matching daemon: one warm engine and one shared "
            "result cache serve every submission, so repeated pairs cost "
            "zero oracle queries across clients.  Speaks the newline-"
            "delimited JSON protocol repro-daemon/v1 (docs/protocol.md) "
            "on a Unix socket (default: <store-dir>/daemon.sock) or TCP "
            "with --host/--port (port 0 picks a free port).  Every run "
            "streams to its own JSONL store under --store-dir, so daemon "
            "runs resume and merge exactly like 'repro run' ones."
        ),
    )
    server.add_argument(
        "--store-dir", default="./daemon-runs", metavar="DIR",
        help="directory for per-run result stores (default ./daemon-runs)",
    )
    _add_listener_flags(server, "<store-dir>/daemon.sock")
    server.add_argument(
        "--max-queued", type=int, default=16, metavar="N",
        help="bound on waiting jobs; submits beyond it are rejected",
    )
    _add_execution_flags(server)
    _add_cache_flags(server)
    server.add_argument(
        "--remote-cache", metavar="ADDR",
        help="default shared cache server for submissions that name none "
        "(the submit frame's remote_cache field overrides per run); "
        "with --no-cache it is the only tier",
    )
    _add_policy_flags(server, equivalence=False, seed=False)
    _add_engine_flags(server)
    _add_fingerprint_flags(server)
    server.set_defaults(handler=_cmd_serve)

    submit = subparsers.add_parser(
        "submit",
        help="submit a run to a matching daemon",
        description=(
            "Submits a corpus manifest (or ad-hoc --pair C1 C2 CLASS "
            "triples) to a running daemon and prints the run id.  With "
            "--wait (implied by --progress/--events) the command "
            "subscribes to the run's event stream and exits 0 only when "
            "the run completed with no failed pairs — the same contract "
            "as 'repro run'."
        ),
    )
    submit.add_argument(
        "manifest", nargs="?",
        help="path to a manifest.json or corpus directory (on the daemon's host)",
    )
    submit.add_argument(
        "--pair", nargs=3, action="append", default=[],
        metavar=("C1", "C2", "CLASS"),
        help="an ad-hoc circuit pair with its promised class (repeatable)",
    )
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument(
        "--resume", action="store_true",
        help="skip pairs the run's store already answered",
    )
    submit.add_argument(
        "--store", metavar="PATH",
        help="result store path override (default <store-dir>/<run-id>.jsonl)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="wait for the run and mirror its outcome in the exit code",
    )
    _add_observer_flags(submit)
    _add_daemon_address_flags(submit)
    submit.set_defaults(handler=_cmd_submit)

    watcher = subparsers.add_parser(
        "watch",
        help="subscribe to a daemon run's event stream",
        description=(
            "Streams a run's lifecycle events from a daemon — replaying "
            "history first, so watching a finished run shows the whole "
            "run.  Exit code 0 only for a completed run with no failed "
            "pairs."
        ),
    )
    watcher.add_argument("run_id", help="the run to watch (e.g. run-0001)")
    watcher.add_argument(
        "--no-replay", action="store_true",
        help="live events only; do not replay history",
    )
    _add_observer_flags(watcher)
    _add_daemon_address_flags(watcher)
    watcher.set_defaults(handler=_cmd_watch)

    admin = subparsers.add_parser(
        "daemon",
        help="administer a running matching daemon",
        description=(
            "One-shot admin requests against a running daemon; prints "
            "the JSON response frame."
        ),
    )
    admin.add_argument(
        "action",
        choices=("ping", "status", "stats", "metrics", "cancel", "shutdown"),
    )
    admin.add_argument(
        "run_id", nargs="?",
        help="run id (required for cancel, optional for status)",
    )
    _add_daemon_address_flags(admin)
    admin.set_defaults(handler=_cmd_daemon)

    fleet = subparsers.add_parser(
        "fleet",
        help="coordinate a sharded run across worker daemons",
        description=(
            "Cross-host sharded runs (docs/fleet.md).  'run' probes the "
            "--peer daemons, dispatches one deterministic shard of the "
            "manifest to each healthy one, watches every event stream, "
            "reassigns the shard of a dead or hung worker (the retry "
            "resumes from mirrored records at zero oracle-query cost) "
            "and merges the shard stores into a store byte-identical to "
            "an unsharded serial run.  'peers' pings each worker; "
            "'status' adds each healthy worker's stats frame."
        ),
    )
    fleet.add_argument("action", choices=("run", "status", "peers"))
    fleet.add_argument(
        "manifest", nargs="?",
        help="manifest.json or corpus directory (required for run; the "
        "path must resolve on every worker's host)",
    )
    fleet.add_argument(
        "--peer", action="append", default=[], metavar="ADDR",
        help="a worker daemon: HOST:PORT, tcp:<host>:<port> or "
        "unix:<path> (repeatable; one shard per healthy peer)",
    )
    fleet.add_argument(
        "--work-dir", default="./fleet-runs", metavar="DIR",
        help="coordinator state: the crash-safe run-id counter and one "
        "directory of fetched shard stores per run (default ./fleet-runs)",
    )
    fleet.add_argument(
        "--output", metavar="PATH",
        help="merged store to write (default <work-dir>/<run-id>/merged.jsonl)",
    )
    fleet.add_argument("--seed", type=int, default=None)
    fleet.add_argument(
        "--auth-token-file", metavar="PATH",
        help="shared secret presented to every peer (required when "
        "peers bind non-loopback TCP)",
    )
    fleet.add_argument(
        "--heartbeat", type=float, default=5.0, metavar="SECONDS",
        help="silence on an event stream before the worker is probed "
        "out-of-band (default 5)",
    )
    fleet.add_argument(
        "--hang-timeout", type=float, default=30.0, metavar="SECONDS",
        help="silence budget for a running shard; past it the worker "
        "counts as hung and the shard is reassigned (default 30)",
    )
    fleet.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="dispatch attempts per shard before the run fails (default 3)",
    )
    fleet.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="socket timeout for one-shot control requests (default 10)",
    )
    fleet.add_argument(
        "--remote-cache", metavar="ADDR",
        help="shared cache server every worker mounts behind its local "
        "tiers (the address must resolve from each worker's host)",
    )
    fleet.add_argument(
        "--metrics", metavar="PATH",
        help="write a repro-metrics/v1 snapshot of the fleet counters",
    )
    _add_observer_flags(fleet)
    fleet.set_defaults(handler=_cmd_fleet)

    decider = subparsers.add_parser("decide", help="non-promise decision")
    decider.add_argument("circuit1", help="path to C1")
    decider.add_argument("circuit2", help="path to C2")
    _add_policy_flags(decider)
    decider.add_argument(
        "--brute-force",
        action="store_true",
        help="allow exponential search for the UNIQUE-SAT-hard classes",
    )
    decider.set_defaults(handler=_cmd_decide)

    synth = subparsers.add_parser("synth", help="synthesise a permutation")
    synth.add_argument(
        "--permutation",
        required=True,
        help="comma-separated image list over range(2^n), e.g. 0,3,1,2",
    )
    synth.add_argument("--basic", action="store_true", help="basic (not bidirectional)")
    synth.add_argument("--output", "-o", help="write the circuit to a file")
    synth.add_argument("--ascii", action="store_true", help="pure-ASCII glyphs")
    synth.set_defaults(handler=_cmd_synth)

    linter = subparsers.add_parser(
        "lint",
        help="run the project's static invariant checks",
        description=(
            "Walks the AST of src/repro/** enforcing the determinism, "
            "lock-coverage and docs-drift invariants (see docs/lint.md). "
            "Exit code 0 only when no non-baselined finding remains."
        ),
    )
    linter.add_argument(
        "paths", nargs="*",
        help="specific files to lint (default: the whole src/repro tree)",
    )
    linter.add_argument(
        "--root", default=".", metavar="DIR",
        help="repository root holding src/repro, docs/ and README.md",
    )
    linter.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format on stdout",
    )
    linter.add_argument(
        "--output", metavar="PATH",
        help="also write the report to a file (the CI artifact)",
    )
    linter.add_argument(
        "--baseline", metavar="PATH",
        help="baseline file of grandfathered findings "
             "(default <root>/lint-baseline.json when present)",
    )
    linter.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline; report every finding as new",
    )
    linter.add_argument(
        "--write-baseline", action="store_true",
        help="grandfather the current findings into the baseline file",
    )
    linter.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
