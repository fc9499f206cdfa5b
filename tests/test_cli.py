"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.circuits import io, library
from repro.circuits.random import random_line_permutation, random_negation
from repro.circuits.transforms import transformed_circuit
from repro.cli import build_parser, main
from repro.core.equivalence import EquivalenceType
from repro.core.verify import make_instance

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def circuit_files(tmp_path, rng):
    """Write a base circuit and an NP-I-scrambled variant to .real files."""
    base = library.hidden_weighted_bit(4)
    nu = random_negation(4, rng)
    pi = random_line_permutation(4, rng)
    scrambled = transformed_circuit(base, nu_x=nu, pi_x=pi)
    base_path = tmp_path / "base.real"
    scrambled_path = tmp_path / "scrambled.real"
    io.write_real(base, base_path)
    io.write_real(scrambled, scrambled_path)
    return str(scrambled_path), str(base_path)


class TestImport:
    def test_cli_imports_without_networkx(self):
        """networkx is a test-only reference, never a runtime import."""
        code = (
            "import sys; sys.modules['networkx'] = None; "
            "import repro.cli, repro"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [SRC, os.environ.get("PYTHONPATH")])
            ),
        })


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestInfo:
    def test_info_reports_metrics(self, circuit_files, capsys):
        scrambled, base = circuit_files
        assert main(["info", base]) == 0
        output = capsys.readouterr().out
        assert "gates" in output
        assert "quantum_cost" in output

    def test_info_with_drawing(self, circuit_files, capsys):
        _, base = circuit_files
        assert main(["info", base, "--draw", "--ascii"]) == 0
        assert "+" in capsys.readouterr().out

    def test_info_missing_file(self, capsys):
        assert main(["info", "/nonexistent/file.real"]) == 2
        assert "error" in capsys.readouterr().err


class TestMatch:
    def test_match_with_inverse_and_verify(self, circuit_files, capsys):
        scrambled, base = circuit_files
        code = main(
            [
                "match",
                scrambled,
                base,
                "--equivalence",
                "NP-I",
                "--with-inverse",
                "--verify",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "nu_x" in output
        assert "pi_x" in output
        assert "PASS" in output

    def test_match_quantum_path(self, circuit_files, capsys):
        scrambled, base = circuit_files
        code = main(
            [
                "match",
                scrambled,
                base,
                "--equivalence",
                "NP-I",
                "--seed",
                "3",
                "--verify",
            ]
        )
        assert code == 0
        assert "quantum queries" in capsys.readouterr().out

    def test_match_hard_class_reports_error(self, circuit_files, capsys):
        scrambled, base = circuit_files
        assert main(["match", scrambled, base, "--equivalence", "N-N"]) == 2
        assert "UNIQUE-SAT" in capsys.readouterr().err


class TestMatchMany:
    @pytest.fixture
    def manifest(self, tmp_path, rng):
        """A two-pair manifest: an NP-I instance and an I-N instance."""
        paths = {}
        for label, equivalence in (
            ("np_i", EquivalenceType.NP_I),
            ("i_n", EquivalenceType.I_N),
        ):
            base = library.hidden_weighted_bit(4)
            c1, c2, _ = make_instance(base, equivalence, rng)
            path1 = tmp_path / f"{label}_c1.real"
            path2 = tmp_path / f"{label}_c2.real"
            io.write_real(c1, path1)
            io.write_real(c2, path2)
            paths[label] = (path1, path2)
        manifest_path = tmp_path / "pairs.txt"
        manifest_path.write_text(
            "# promised pairs\n"
            f"{paths['np_i'][0]} {paths['np_i'][1]} NP-I\n"
            f"{paths['i_n'][0]} {paths['i_n'][1]} I-N\n",
            encoding="utf-8",
        )
        return manifest_path

    def test_match_many_success(self, manifest, capsys):
        assert main(["match-many", str(manifest), "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "2/2 matched" in output
        assert "NP-I" in output and "I-N" in output

    def test_match_many_default_equivalence_applies(self, tmp_path, rng, capsys):
        base = library.hidden_weighted_bit(4)
        c1, c2, _ = make_instance(base, EquivalenceType.I_N, rng)
        path1, path2 = tmp_path / "a.real", tmp_path / "b.real"
        io.write_real(c1, path1)
        io.write_real(c2, path2)
        manifest = tmp_path / "pairs.txt"
        manifest.write_text(f"{path1} {path2}\n", encoding="utf-8")
        code = main(["match-many", str(manifest), "--equivalence", "I-N"])
        assert code == 0
        assert "1/1 matched" in capsys.readouterr().out

    def test_match_many_malformed_line(self, tmp_path, capsys):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("a.real b.real NP-I extra-field\n", encoding="utf-8")
        assert main(["match-many", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "expected 'C1 C2 [EQUIVALENCE]'" in err

    def test_match_many_unknown_class(self, tmp_path, capsys):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("a.real b.real NOT-A-CLASS\n", encoding="utf-8")
        assert main(["match-many", str(manifest)]) == 2
        assert "unknown equivalence label" in capsys.readouterr().err

    def test_match_many_empty_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("# nothing but comments\n\n", encoding="utf-8")
        assert main(["match-many", str(manifest)]) == 2
        assert "no circuit pairs" in capsys.readouterr().err

    def test_match_many_budget_exceeded_exit_code(self, tmp_path, rng, capsys):
        base = library.hidden_weighted_bit(4)
        c1, c2, _ = make_instance(base, EquivalenceType.P_I, rng)
        path1, path2 = tmp_path / "a.real", tmp_path / "b.real"
        io.write_real(c1, path1)
        io.write_real(c2, path2)
        manifest = tmp_path / "pairs.txt"
        manifest.write_text(f"{path1} {path2} P-I\n", encoding="utf-8")
        code = main(["match-many", str(manifest), "--budget", "1", "--seed", "3"])
        assert code == 1
        output = capsys.readouterr().out
        assert "QueryBudgetExceededError" in output
        assert "0/1 matched" in output


class TestCorpusRun:
    def test_corpus_then_run_then_resume(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main(
            [
                "corpus",
                str(corpus),
                "--num-lines",
                "4",
                "--families",
                "random,library",
                "--classes",
                "I-N,P-I",
                "--seed",
                "11",
            ]
        )
        assert code == 0
        assert "generated 4 pairs" in capsys.readouterr().out
        manifest = corpus / "manifest.json"
        assert manifest.exists()

        store = tmp_path / "results.jsonl"
        code = main(
            ["run", str(corpus), "--store", str(store), "--seed", "5"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "4/4 matched" in output
        records = [
            json.loads(line) for line in store.read_text().splitlines() if line
        ]
        assert len(records) == 4 and all(r["status"] == "ok" for r in records)

        code = main(
            ["run", str(corpus), "--store", str(store), "--resume", "--seed", "5"]
        )
        assert code == 0
        assert "4 resumed, 0 executed" in capsys.readouterr().out

    def test_run_rejects_resume_without_store(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(
            [
                "corpus",
                str(corpus),
                "--classes",
                "I-N",
                "--families",
                "random",
                "--seed",
                "1",
            ]
        )
        capsys.readouterr()
        assert main(["run", str(corpus), "--resume"]) == 2
        assert "resume requires" in capsys.readouterr().err

    def test_run_missing_manifest(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nowhere")]) == 2
        assert "error" in capsys.readouterr().err

    def test_corpus_rejects_unknown_family(self, tmp_path, capsys):
        assert main(["corpus", str(tmp_path / "c"), "--families", "bogus"]) == 2
        assert "unknown workload family" in capsys.readouterr().err

    def test_run_rejects_nonpositive_cache_size(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["corpus", str(corpus), "--classes", "I-N", "--seed", "1"])
        capsys.readouterr()
        assert main(["run", str(corpus), "--cache-size", "0"]) == 2
        assert "--cache-size must be positive" in capsys.readouterr().err


class TestFingerprintCommand:
    def test_single_file_prints_scheme_and_key(self, circuit_files, capsys):
        _, base = circuit_files
        assert main(["fingerprint", base]) == 0
        output = capsys.readouterr().out
        assert "scheme : exact" in output  # 4 lines: under the width limit
        assert "fp/v2:4:exact:function:fwd:" in output
        assert "pair key" not in output

    def test_pair_prints_the_full_cache_key(self, circuit_files, capsys):
        scrambled, base = circuit_files
        assert main(["fingerprint", scrambled, base, "-e", "NP-I"]) == 0
        output = capsys.readouterr().out
        assert "pair key : v2|NP-I|fp/v2:" in output

    def test_probe_scheme_is_selectable(self, circuit_files, capsys):
        _, base = circuit_files
        assert main(
            ["fingerprint", base, "--fingerprint", "probe", "--probe-count", "8"]
        ) == 0
        output = capsys.readouterr().out
        assert "scheme : probe" in output

    def test_same_function_same_key_is_debuggable(self, tmp_path, capsys):
        # The command's purpose: two representations of one function print
        # the same fingerprint key, so a cache hit is predictable.
        circuit = library.hidden_weighted_bit(4)
        a, b = tmp_path / "a.real", tmp_path / "b.real"
        io.write_real(circuit, a)
        io.write_real(circuit, b)
        assert main(["fingerprint", str(a), str(b)]) == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  key")
        ]
        keys = {line.split(":", 1)[1].strip() for line in lines}
        assert len(lines) == 2 and len(keys) == 1

    def test_missing_file_is_an_error(self, capsys):
        assert main(["fingerprint", "/nonexistent/file.real"]) == 2
        assert "error" in capsys.readouterr().err


class TestCacheCommand:
    def _run_with_cache(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(
            ["corpus", str(corpus), "--classes", "I-N", "--families",
             "random", "--seed", "1"]
        )
        cache_dir = tmp_path / "cache"
        assert main(["run", str(corpus), "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        return cache_dir

    def test_migrate_reports_versions(self, tmp_path, capsys):
        cache_dir = self._run_with_cache(tmp_path, capsys)
        assert main(["cache", "migrate", "--cache-dir", str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert "1 current (v2) entries" in output
        assert "0 stale v1" in output

    def test_migrate_drop_v1(self, tmp_path, capsys):
        cache_dir = self._run_with_cache(tmp_path, capsys)
        v1 = cache_dir / "aaaa.json"
        v1.write_text(json.dumps({"key": "I-N|v1-ish", "record": {}}))
        assert main(
            ["cache", "migrate", "--cache-dir", str(cache_dir), "--drop-v1"]
        ) == 0
        output = capsys.readouterr().out
        assert "1 stale v1" in output and "dropped 1" in output
        assert not v1.exists()

    def test_migrate_missing_directory(self, tmp_path, capsys):
        assert main(
            ["cache", "migrate", "--cache-dir", str(tmp_path / "nope")]
        ) == 2
        assert "error" in capsys.readouterr().err


class TestWideRun:
    def test_wide_corpus_warm_rerun_spends_zero_queries(self, tmp_path, capsys):
        """The acceptance criterion through `repro run`: generate a wide
        (>= 16-line) corpus, run it twice against a disk cache from two
        separate CLI invocations, and the warm run executes nothing."""
        corpus = tmp_path / "wide"
        assert main(
            ["corpus", str(corpus), "--families", "wide", "--classes",
             "I-P,P-I", "--seed", "3"]
        ) == 0
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert all(entry["num_lines"] >= 16 for entry in manifest["entries"])
        cache_dir = tmp_path / "cache"
        assert main(["run", str(corpus), "--cache-dir", str(cache_dir)]) == 0
        cold = capsys.readouterr().out
        assert "2 executed" in cold
        assert main(["run", str(corpus), "--cache-dir", str(cache_dir)]) == 0
        warm = capsys.readouterr().out
        assert "2 cached, 0 resumed, 0 executed" in warm
        assert "0 classical + 0 quantum queries spent" in warm

    def test_run_rejects_bad_fingerprint_scheme(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", str(tmp_path), "--fingerprint", "telepathy"]
            )


class TestRunStreaming:
    @pytest.fixture
    def corpus(self, tmp_path):
        """A four-pair corpus directory for the streaming-flag tests."""
        corpus = tmp_path / "corpus"
        code = main(
            [
                "corpus",
                str(corpus),
                "--num-lines",
                "4",
                "--families",
                "random,library",
                "--classes",
                "I-N,P-I",
                "--seed",
                "11",
            ]
        )
        assert code == 0
        return corpus

    def test_progress_flag_leaves_exit_code_unchanged(self, corpus, capsys):
        """Satellite: --progress is additive — same exit code, same stdout
        shape, progress confined to stderr; quiet runs stay quiet."""
        quiet_code = main(["run", str(corpus), "--seed", "5"])
        quiet = capsys.readouterr()
        loud_code = main(["run", str(corpus), "--seed", "5", "--progress"])
        loud = capsys.readouterr()
        assert quiet_code == loud_code == 0
        assert quiet.err == ""
        assert "4/4 matched" in quiet.out and "4/4 matched" in loud.out
        lines = loud.err.splitlines()
        assert lines[0].startswith("run started: 4 pairs")
        assert lines[-1].startswith("run completed: 4/4")
        assert len(lines) == 2 + 4  # banner + one line per pair + banner

    def test_progress_cadence_and_overlap(self, corpus, capsys):
        code = main(
            ["run", str(corpus), "--seed", "5", "--progress", "2", "--overlap"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "overlap[serial]" in captured.out
        assert len(captured.err.splitlines()) == 2 + 2

    def test_progress_rejects_nonpositive_cadence(self, corpus, capsys):
        assert main(["run", str(corpus), "--progress", "0"]) == 2
        assert "--progress cadence" in capsys.readouterr().err

    def test_events_log_written(self, corpus, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main(["run", str(corpus), "--seed", "5", "--events", str(log)]) == 0
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert entries[0]["event"] == "RunStarted"
        assert entries[-1]["event"] == "RunCompleted"

    def test_sharded_runs_merge_to_the_unsharded_store(self, corpus, tmp_path, capsys):
        full = tmp_path / "full.jsonl"
        assert main(["run", str(corpus), "--store", str(full), "--seed", "5"]) == 0
        shard_stores = []
        for index in range(2):
            store = tmp_path / f"shard{index}.jsonl"
            shard_stores.append(store)
            code = main(
                [
                    "run",
                    str(corpus),
                    "--store",
                    str(store),
                    "--seed",
                    "5",
                    "--shard",
                    f"{index}/2",
                ]
            )
            assert code == 0
        merged = tmp_path / "merged.jsonl"
        code = main(
            ["merge", *map(str, shard_stores), "--output", str(merged)]
        )
        assert code == 0
        assert "merged 4 records from 2 stores" in capsys.readouterr().out
        assert merged.read_bytes() == full.read_bytes()

    def test_run_rejects_malformed_shard(self, corpus, capsys):
        assert main(["run", str(corpus), "--shard", "2/2"]) == 2
        assert "shard" in capsys.readouterr().err

    def test_merge_missing_store_fails(self, tmp_path, capsys):
        code = main(
            ["merge", str(tmp_path / "nope.jsonl"), "--output", str(tmp_path / "o")]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_merge_skips_a_non_object_line(self, tmp_path, capsys):
        store = tmp_path / "shard.jsonl"
        store.write_text(
            '{"pair_id": "pair-a", "index": 0, "status": "ok"}\n[1, 2]\n',
            encoding="utf-8",
        )
        merged = tmp_path / "merged.jsonl"
        with pytest.warns(UserWarning, match="skipping"):
            code = main(["merge", str(store), "--output", str(merged)])
        assert code == 0
        assert "merged 1 records" in capsys.readouterr().out


class TestDecide:
    def test_decide_positive(self, circuit_files, capsys):
        scrambled, base = circuit_files
        code = main(
            ["decide", scrambled, base, "--equivalence", "NP-I", "--with-inverse"]
            if False
            else ["decide", scrambled, base, "--equivalence", "NP-I", "--seed", "1"]
        )
        assert code == 0
        assert "equivalent: yes" in capsys.readouterr().out

    def test_decide_negative(self, tmp_path, capsys):
        first = library.increment(3)
        second = library.gray_code(3)
        path1, path2 = tmp_path / "a.real", tmp_path / "b.real"
        io.write_real(first, path1)
        io.write_real(second, path2)
        code = main(["decide", str(path1), str(path2), "--equivalence", "I-N"])
        assert code == 1
        assert "equivalent: no" in capsys.readouterr().out


class TestSynth:
    def test_synth_prints_and_writes(self, tmp_path, capsys):
        output = tmp_path / "synth.real"
        code = main(
            ["synth", "--permutation", "0,3,1,2", "--output", str(output), "--ascii"]
        )
        assert code == 0
        assert output.exists()
        text = capsys.readouterr().out
        assert "synthesised" in text
        circuit = io.read_real(output)
        assert circuit.truth_table() == [0, 3, 1, 2]

    def test_synth_invalid_permutation(self, capsys):
        assert main(["synth", "--permutation", "0,0,1,2"]) == 2
        assert "error" in capsys.readouterr().err


class TestDaemonCommands:
    @pytest.fixture
    def corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(
            [
                "corpus", str(corpus),
                "--num-lines", "3",
                "--families", "random",
                "--classes", "I-I,P-I",
                "--seed", "11",
            ]
        ) == 0
        return corpus

    @pytest.fixture
    def served(self, tmp_path, corpus):
        """A daemon run by the `serve` command on a background thread."""
        import threading
        import time

        address_file = tmp_path / "addr"
        thread = threading.Thread(
            target=main,
            args=(
                [
                    "serve",
                    "--store-dir", str(tmp_path / "runs"),
                    "--socket", str(tmp_path / "d.sock"),
                    "--address-file", str(address_file),
                ],
            ),
        )
        thread.start()
        deadline = time.monotonic() + 30
        while not address_file.exists():
            assert time.monotonic() < deadline, "serve never wrote its address"
            time.sleep(0.02)
        yield ["--address-file", str(address_file)]
        main(["daemon", "shutdown", "--address-file", str(address_file)])
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_serve_submit_watch_shutdown(self, served, corpus, capsys):
        at = served
        assert main(["submit", str(corpus), "--seed", "5", "--wait", *at]) == 0
        out = capsys.readouterr().out
        assert "submitted run-0001" in out
        assert "run-0001: completed" in out

        # Watching the finished run replays it; a second submit of the
        # same manifest is answered wholly by the daemon's shared cache.
        assert main(["watch", "run-0001", "--progress", *at]) == 0
        assert "run-0001: completed" in capsys.readouterr().out
        assert main(["submit", str(corpus), "--seed", "5", "--wait", *at]) == 0
        capsys.readouterr()
        assert main(["daemon", "status", "run-0002", *at]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["run"]["summary"]["executed"] == 0
        assert main(["daemon", "stats", *at]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cache"]["hits"] >= 2
        assert stats["runs"]["completed"] == 2

    def test_submit_pair_and_event_log(self, served, corpus, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        code = main(
            [
                "submit",
                "--pair",
                str(corpus / "random-i-i-000-c1.real"),
                str(corpus / "random-i-i-000-c2.real"),
                "I-I",
                "--events", str(log),
                *served,
            ]
        )
        assert code == 0
        kinds = [json.loads(line)["event"] for line in log.read_text().splitlines()]
        assert kinds[0] == "RunStarted" and kinds[-1] == "RunCompleted"

    def test_submit_argument_validation(self, capsys):
        assert main(["submit", "--socket", "/nonexistent.sock"]) == 2
        assert "needs a MANIFEST" in capsys.readouterr().err

    def test_client_without_address(self, capsys):
        assert main(["daemon", "ping"]) == 2
        assert "--socket" in capsys.readouterr().err

    def test_cancel_requires_run_id(self, capsys):
        assert main(["daemon", "cancel", "--socket", "/nonexistent.sock"]) == 2
        assert "RUN_ID" in capsys.readouterr().err

    def test_unreachable_daemon_is_a_cli_error(self, tmp_path, capsys):
        assert main(["daemon", "ping", "--socket", str(tmp_path / "no.sock")]) == 2
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_cached_failures_still_fail_the_exit_code(
        self, served, tmp_path, capsys
    ):
        # An adversarial (non-equivalent) pair fails; resubmitting it hits
        # the daemon's cache, and the cached failure must still exit 1.
        bad = tmp_path / "bad"
        assert main(
            [
                "corpus", str(bad),
                "--num-lines", "3",
                "--families", "adversarial",
                "--classes", "P-I",
                "--seed", "3",
            ]
        ) == 0
        assert main(["submit", str(bad), "--seed", "5", "--wait", *served]) == 1
        assert main(["submit", str(bad), "--seed", "5", "--wait", *served]) == 1
        capsys.readouterr()
        assert main(["daemon", "status", "run-0002", *served]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["run"]["summary"]["executed"] == 0  # cached replay
        assert status["run"]["summary"]["failed"] >= 1

    def test_watch_no_replay_of_finished_run_uses_status(
        self, served, corpus, capsys
    ):
        assert main(["submit", str(corpus), "--seed", "5", "--wait", *served]) == 0
        capsys.readouterr()
        # No events arrive (the run is finished and replay is off), but a
        # clean completed run must still exit 0 via the status fallback.
        assert main(["watch", "run-0001", "--no-replay", *served]) == 0
        assert "run-0001: completed" in capsys.readouterr().out

    def test_submit_rejects_bad_pair_label(self, capsys):
        code = main(
            ["submit", "--pair", "a.real", "b.real", "BOGUS",
             "--socket", "/nonexistent.sock"]
        )
        assert code == 2
        assert "equivalence" in capsys.readouterr().err.lower()

    def test_submit_resume_requires_store(self, corpus, capsys):
        code = main(
            ["submit", str(corpus), "--resume", "--socket", "/nonexistent.sock"]
        )
        assert code == 2
        assert "--resume requires --store" in capsys.readouterr().err


class TestCacheServerCommand:
    def test_serves_until_the_documented_shutdown(self, tmp_path, capsys):
        import threading
        import time

        from repro.service import DaemonClient

        sock = tmp_path / "cache.sock"
        addr_file = tmp_path / "cache.addr"
        codes: list[int] = []
        server = threading.Thread(
            target=lambda: codes.append(
                main(
                    ["cache-server", "--socket", str(sock),
                     "--address-file", str(addr_file)]
                )
            ),
            daemon=True,
        )
        server.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not addr_file.exists():
            time.sleep(0.02)
        address = addr_file.read_text().strip()
        assert address == f"unix:{sock}"
        with DaemonClient.from_address(address, timeout=10.0) as client:
            ping = client.request({"op": "ping"})
            assert ping["protocol"] == "repro-cache/v1"
            client.request({"op": "put", "key": "k", "record": {"v": 1}})
            assert client.request({"op": "get", "key": "k"})["record"] == {"v": 1}
            client.request({"op": "shutdown"})
        server.join(timeout=30.0)
        assert not server.is_alive() and codes == [0]
        output = capsys.readouterr().out
        assert f"cache server listening on unix:{sock}" in output
        assert "cache server stopped" in output

    def test_rejects_nonpositive_cache_size(self, tmp_path, capsys):
        code = main(
            ["cache-server", "--socket", str(tmp_path / "c.sock"),
             "--cache-size", "0"]
        )
        assert code == 2
        assert "--cache-size must be positive" in capsys.readouterr().err


class TestRemoteCacheFlags:
    def test_run_refuses_no_cache_with_remote_cache(self, tmp_path, capsys):
        code = main(
            ["run", str(tmp_path), "--no-cache", "--remote-cache",
             "unix:cache.sock"]
        )
        assert code == 2
        assert "drop --no-cache" in capsys.readouterr().err

    def test_cache_migrate_refuses_a_remote_server(self, tmp_path, capsys):
        code = main(
            ["cache", "migrate", "--cache-dir", str(tmp_path), "--remote",
             "unix:cache.sock"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot run against a remote cache server" in err
        assert "Stop the server" in err

    def test_remote_cache_flag_is_registered_everywhere(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(["run", "m", "--remote-cache", "unix:c.sock"])
        assert args.remote_cache == "unix:c.sock"
        args = parser.parse_args(
            ["serve", "--socket", "d.sock", "--store-dir", str(tmp_path),
             "--remote-cache", "tcp:cachehost:7777"]
        )
        assert args.remote_cache == "tcp:cachehost:7777"
        args = parser.parse_args(
            ["fleet", "run", "m", "--remote-cache", "unix:c.sock"]
        )
        assert args.remote_cache == "unix:c.sock"

    def test_warm_rerun_through_a_cache_server_executes_nothing(
        self, tmp_path, capsys
    ):
        """The CLI leg of the cross-host guarantee: two `repro run`
        invocations with no shared local state — only --remote-cache —
        and the second executes zero pairs."""
        from repro.cachenet import CacheServer
        from repro.service import LRUCache

        corpus = tmp_path / "corpus"
        main(
            ["corpus", str(corpus), "--classes", "I-N", "--families",
             "random", "--seed", "1"]
        )
        server = CacheServer(LRUCache(), socket_path=tmp_path / "cache.sock")
        server.start()
        try:
            assert main(
                ["run", str(corpus), "--remote-cache", server.address]
            ) == 0
            cold = capsys.readouterr().out
            assert "1 executed" in cold
            assert server.cache.stats.stores == 1  # written through
            assert main(
                ["run", str(corpus), "--remote-cache", server.address]
            ) == 0
            warm = capsys.readouterr().out
            assert "1 cached, 0 resumed, 0 executed" in warm
            assert "0 classical + 0 quantum queries spent" in warm
        finally:
            server.stop()

    def test_run_with_a_dead_server_still_succeeds(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(
            ["corpus", str(corpus), "--classes", "I-N", "--families",
             "random", "--seed", "1"]
        )
        capsys.readouterr()
        code = main(
            ["run", str(corpus), "--remote-cache",
             f"unix:{tmp_path}/never-started.sock"]
        )
        assert code == 0
        assert "1 executed" in capsys.readouterr().out
