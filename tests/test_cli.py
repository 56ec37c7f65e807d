"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graph.generators import preferential_attachment_graph
from repro.graph.io import write_edge_list


class TestDatasetsCommand:
    def test_lists_all_datasets(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        for key in ("GQ", "HT", "WV", "HP", "DB", "IC", "IT", "TW"):
            assert key in output


class TestQueryCommand:
    def test_query_on_registered_dataset(self, capsys):
        code = main(["query", "--dataset", "GQ", "--source", "3",
                     "--epsilon", "1e-2", "--top-k", "5", "--seed", "1",
                     "--max-samples", "20000"])
        assert code == 0
        output = capsys.readouterr().out
        assert "exactsim" in output
        assert "simrank" in output

    def test_query_basic_variant(self, capsys):
        code = main(["query", "--dataset", "GQ", "--source", "3", "--basic",
                     "--epsilon", "5e-2", "--seed", "1", "--max-samples", "10000"])
        assert code == 0
        assert "exactsim-basic" in capsys.readouterr().out

    def test_query_on_edge_list_file(self, tmp_path, capsys):
        graph = preferential_attachment_graph(60, 2, directed=False, seed=2)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        code = main(["query", "--edge-list", str(path), "--source", "0",
                     "--epsilon", "5e-2", "--seed", "1", "--max-samples", "10000"])
        assert code == 0

    def test_query_source_out_of_range(self, capsys):
        code = main(["query", "--dataset", "GQ", "--source", "99999999",
                     "--epsilon", "1e-1"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_missing_required_arguments(self):
        with pytest.raises(SystemExit):
            main(["query", "--source", "0"])


class TestMethodConfig:
    def test_answer_keeps_the_exactsim_sample_cap(self):
        """``answer`` has no --max-samples flag, so ExactSim keeps the
        5×10⁵ default cap of ExactSimConfig instead of running uncapped."""
        from repro.algorithms import registry
        from repro.cli import _build_parser, _method_config
        from repro.core.config import ExactSimConfig

        args = _build_parser().parse_args(["answer", "--dataset", "GQ"])
        config = _method_config(args, "exactsim", accepted_params_only=True)
        graph = preferential_attachment_graph(30, 2, directed=False, seed=1)
        algorithm = registry.create("exactsim", graph, config)
        assert algorithm.config.max_total_samples \
            == ExactSimConfig().max_total_samples == 500_000

    def test_query_flag_sets_the_sample_cap(self):
        from repro.cli import _build_parser, _method_config

        args = _build_parser().parse_args(
            ["query", "--dataset", "GQ", "--source", "1",
             "--max-samples", "20000"])
        assert _method_config(args, "exactsim")["max_total_samples"] == 20_000


class TestEpsilonValidation:
    """ε ≤ 0, NaN or ±inf is refused at start-up (exit 2, nothing served) by
    every command that configures a method, from ``--epsilon`` and from
    ``--param epsilon=`` alike."""

    @pytest.mark.parametrize("command", [
        ["query", "--source", "1", "--method", "sling", "--epsilon", "0"],
        ["query", "--source", "1", "--method", "prsim", "--epsilon", "nan"],
        ["query", "--source", "1", "--method", "linearization",
         "--param", "epsilon=-1"],
        ["answer", "--method", "sling", "--epsilon", "-1"],
        ["answer", "--method", "exactsim", "--epsilon", "-1"],
        ["answer", "--method", "parsim", "--epsilon", "inf"],
        ["index", "build", "--method", "sling", "--epsilon", "0"],
        ["index", "build", "--method", "prsim", "--param", "epsilon=none"],
    ])
    def test_bad_epsilon_exits_2(self, command, tmp_path, capsys):
        graph = preferential_attachment_graph(40, 2, directed=False, seed=3)
        write_edge_list(graph, tmp_path / "graph.txt")
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"type": "single_pair", "source": 1, "target": 2}\n')
        argv = command + ["--edge-list", str(tmp_path / "graph.txt")]
        if command[0] == "answer":
            argv += ["--queries", str(queries)]
        if command[0] == "index":
            argv += ["--index-dir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "epsilon" in captured.err
        assert captured.out == ""


class TestWalkCountValidation:
    """Walk counts and caps that are not positive integers, and keys the
    default method does not accept, are refused at start-up (exit 2, no
    traceback, nothing served)."""

    @pytest.mark.parametrize("command, name", [
        (["query", "--source", "1", "--param", "max_walk_steps=2.5"],
         "max_walk_steps"),
        (["query", "--source", "1", "--param", "max_total_samples=2.5"],
         "max_total_samples"),
        (["query", "--source", "1", "--param", "max_exploit_level=1.5"],
         "max_exploit_level"),
        (["query", "--source", "1", "--method", "sling",
          "--param", "samples_per_node=0"], "samples_per_node"),
        (["query", "--source", "1", "--method", "linearization",
          "--param", "samples_per_node=2.5"], "samples_per_node"),
        (["answer", "--method", "exactsim", "--param", "max_walk_steps=2.5"],
         "max_walk_steps"),
        (["answer", "--method", "exactsim", "--param", "max_walk_steps=0"],
         "max_walk_steps"),
        (["answer", "--method", "sling", "--param", "max_walk_steps=3"],
         "max_walk_steps"),
        (["index", "build", "--method", "sling",
          "--param", "samples_per_node=2.5"], "samples_per_node"),
    ])
    def test_bad_count_exits_2(self, command, name, tmp_path, capsys):
        graph = preferential_attachment_graph(40, 2, directed=False, seed=3)
        write_edge_list(graph, tmp_path / "graph.txt")
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"type": "single_pair", "source": 1, "target": 2}\n')
        argv = command + ["--edge-list", str(tmp_path / "graph.txt")]
        if command[0] == "answer":
            argv += ["--queries", str(queries)]
        if command[0] == "index":
            argv += ["--index-dir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert name in captured.err
        assert captured.out == ""


class TestExperimentCommand:
    def test_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "paper_n" in capsys.readouterr().out

    def test_fig1_small_run(self, capsys):
        code = main(["experiment", "fig1", "--dataset", "GQ", "--queries", "1",
                     "--top-k", "10"])
        assert code == 0
        output = capsys.readouterr().out
        assert "exactsim" in output and "max_error" in output

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig42"])


class TestMethodsCommand:
    def test_lists_registered_methods(self, capsys):
        assert main(["methods"]) == 0
        output = capsys.readouterr().out
        for name in ("exactsim", "prsim", "sling", "mc", "probesim"):
            assert name in output


class TestQueryMethodAndBatch:
    def test_query_every_registered_method(self, capsys):
        from repro.algorithms import registry
        for name in registry.available():
            code = main(["query", "--dataset", "GQ", "--source", "3",
                         "--method", name, "--epsilon", "1e-1", "--seed", "1",
                         "--max-samples", "5000", "--top-k", "2"])
            assert code == 0, name
            assert "simrank" in capsys.readouterr().out

    def test_batched_sources(self, capsys):
        code = main(["query", "--dataset", "GQ", "--sources", "3,7,11",
                     "--method", "parsim", "--top-k", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("# parsim on GQ") == 3

    def test_invalid_sources_string(self, capsys):
        code = main(["query", "--dataset", "GQ", "--sources", "3,x",
                     "--method", "parsim"])
        assert code == 2
        assert "comma-separated" in capsys.readouterr().err
        code = main(["query", "--dataset", "GQ", "--sources", ",",
                     "--method", "parsim"])
        assert code == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_method_specific_param(self, capsys):
        code = main(["query", "--dataset", "GQ", "--source", "3",
                     "--method", "probesim", "--seed", "1",
                     "--param", "num_walks=50", "--top-k", "2"])
        assert code == 0


class TestIndexCommands:
    def test_build_then_load_and_query(self, tmp_path, capsys):
        code = main(["index", "build", "--dataset", "GQ", "--method", "mc",
                     "--seed", "2", "--param", "walks_per_node=10",
                     "--param", "walk_length=5",
                     "--out", str(tmp_path / "gq-mc.npz")])
        assert code == 0
        assert "mc index on GQ" in capsys.readouterr().out
        code = main(["index", "load", "--dataset", "GQ", "--method", "mc",
                     "--path", str(tmp_path / "gq-mc.npz"),
                     "--source", "3", "--top-k", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "loaded mc index" in output and "simrank" in output

    def test_build_rejects_index_free_method(self, capsys):
        code = main(["index", "build", "--dataset", "GQ", "--method", "parsim",
                     "--out", "unused.npz"])
        assert code == 2
        assert "persistence" in capsys.readouterr().err

    def test_load_rejects_wrong_method(self, tmp_path, capsys):
        assert main(["index", "build", "--dataset", "GQ", "--method", "mc",
                     "--seed", "1", "--param", "walks_per_node=5",
                     "--out", str(tmp_path / "mc.npz")]) == 0
        capsys.readouterr()
        code = main(["index", "load", "--dataset", "GQ", "--method", "sling",
                     "--path", str(tmp_path / "mc.npz")])
        assert code == 2
        assert "built by" in capsys.readouterr().err

    def test_query_with_index_dir_builds_then_loads(self, tmp_path, capsys):
        arguments = ["query", "--dataset", "GQ", "--source", "3",
                     "--method", "prsim", "--epsilon", "1e-1", "--seed", "1",
                     "--index-dir", str(tmp_path), "--top-k", "2"]
        assert main(arguments) == 0
        first = capsys.readouterr().out
        assert "built prsim index" in first
        assert main(arguments) == 0
        second = capsys.readouterr().out
        assert "loaded prsim index" in second
        # identical scores from the persisted index
        assert first.splitlines()[-2:] == second.splitlines()[-2:]

    def test_query_index_dir_with_stale_index_fails_cleanly(self, tmp_path, capsys):
        base = ["query", "--dataset", "GQ", "--method", "mc", "--seed", "1",
                "--param", "walks_per_node=5", "--index-dir", str(tmp_path),
                "--top-k", "2"]
        assert main(base + ["--source", "3"]) == 0
        capsys.readouterr()
        # Same cache, different decay: load must fail with a clean error.
        code = main(base + ["--source", "3", "--decay", "0.8"])
        assert code == 2
        err = capsys.readouterr().err
        assert "decay" in err and "Traceback" not in err

    def test_index_build_rejects_unknown_param_cleanly(self, capsys):
        code = main(["index", "build", "--dataset", "GQ", "--method", "mc",
                     "--param", "bogus=1", "--out", "unused.npz"])
        assert code == 2
        assert "does not accept" in capsys.readouterr().err

    def test_index_load_rejects_unknown_param_cleanly(self, tmp_path, capsys):
        code = main(["index", "load", "--dataset", "GQ", "--method", "mc",
                     "--param", "bogus=1", "--path", str(tmp_path / "x.npz")])
        assert code == 2
        assert "does not accept" in capsys.readouterr().err


class TestAnswerCommand:
    @staticmethod
    def _write_queries(tmp_path, lines):
        path = tmp_path / "queries.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_answer_stream_all_query_types(self, tmp_path, capsys):
        import json

        path = self._write_queries(tmp_path, [
            '{"type": "single_source", "source": 3}',
            '{"type": "single_pair", "source": 3, "target": 7}',
            '{"type": "top_k", "source": 3, "k": 4}',
            '{"type": "single_pair", "source": 5, "target": 9, "method": "sling"}',
            '# a comment line is skipped',
            '{"type": "single_pair", "source": 3, "target": 7}',
        ])
        code = main(["answer", "--dataset", "GQ", "--method", "parsim",
                     "--queries", path, "--epsilon", "1e-1", "--seed", "1",
                     "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines() if line]
        assert len(lines) == 5
        assert lines[0]["type"] == "single_source" and lines[0]["route"] == "derived"
        assert lines[1]["type"] == "single_pair" and lines[1]["method"] == "parsim"
        assert lines[2]["type"] == "top_k" and len(lines[2]["nodes"]) == 4
        assert lines[3]["method"] == "sling" and lines[3]["route"] == "native"
        # The repeated pair of the same batch shares the coalesced vector;
        # its answer must equal the first occurrence's.
        assert lines[4]["score"] == lines[1]["score"]
        assert "serving stats" in captured.err

    def test_answer_repeat_batches_hit_the_cache(self, tmp_path, capsys):
        import json

        path = self._write_queries(tmp_path, [
            '{"type": "top_k", "source": 3, "k": 3}',
            '{"type": "top_k", "source": 3, "k": 3}',
        ])
        code = main(["answer", "--dataset", "GQ", "--method", "parsim",
                     "--queries", path, "--batch-size", "1"])
        assert code == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines[0]["route"] == "derived"
        assert lines[1]["route"] == "cached"
        assert lines[0]["nodes"] == lines[1]["nodes"]

    def test_answer_reports_bad_lines_and_continues(self, tmp_path, capsys):
        import json

        path = self._write_queries(tmp_path, [
            'not json at all',
            '{"type": "bogus", "source": 1}',
            '{"type": "single_pair", "source": 1, "target": 999999}',
            '{"type": "top_k", "source": 1, "k": 0}',
            '{"type": "top_k", "source": 1, "method": "no-such"}',
            '{"type": "single_pair", "source": 1, "target": 2}',
        ])
        code = main(["answer", "--dataset", "GQ", "--method", "parsim",
                     "--queries", path])
        assert code == 1                     # partial failure
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        # Output line N answers input line N: the five bad lines come out as
        # error objects in position, the valid pair last.
        assert ["error" in line for line in lines] == [True] * 5 + [False]
        assert lines[5]["type"] == "single_pair"

    def test_answer_rejects_bad_batch_size(self, capsys, tmp_path):
        path = self._write_queries(tmp_path, ['{"type": "top_k", "source": 1}'])
        code = main(["answer", "--dataset", "GQ", "--queries", path,
                     "--batch-size", "0"])
        assert code == 2
        assert "batch-size" in capsys.readouterr().err


class TestAnswerPoolMode:
    @staticmethod
    def _write_queries(tmp_path, lines):
        path = tmp_path / "queries.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_pool_mode_serves_stream_in_order(self, tmp_path, capsys):
        import json

        lines = ['{"type": "single_pair", "source": %d, "target": %d}'
                 % (i % 9, (i * 3) % 9) for i in range(24)]
        lines.insert(5, "not json")
        path = self._write_queries(tmp_path, lines)
        code = main(["answer", "--dataset", "GQ", "--method", "parsim",
                     "--queries", path, "--workers", "2", "--batch-size", "4",
                     "--stats"])
        captured = capsys.readouterr()
        out = [json.loads(line) for line in captured.out.splitlines() if line]
        assert code == 1                     # the bad line is a failure
        assert len(out) == len(lines)        # one response per input line
        assert out[5]["code"] == "parse_error"
        assert all("score" in line for line in out[:5] + out[6:])
        stats = json.loads(captured.err.split("# serving stats: ", 1)[1])
        assert stats["mode"] == "pool"
        assert stats["frontend"]["accepted"] == len(lines) - 1
        assert stats["workers"]["alive"] == 0          # drained and reaped
        assert stats["workers"]["num_workers"] == 2

    def test_pool_chaos_kill_loses_no_lines(self, tmp_path, capsys):
        import json

        lines = ['{"type": "top_k", "source": %d, "k": 5}' % (i % 11)
                 for i in range(60)]
        path = self._write_queries(tmp_path, lines)
        # A 4-query in-flight window keeps most of the stream unread when
        # the first kill lands, so the pool is still answering — and its
        # supervisor observes and counts the death — before the drain,
        # which stops counting deaths.
        code = main(["answer", "--dataset", "GQ", "--method", "parsim",
                     "--queries", path, "--workers", "3", "--batch-size", "4",
                     "--max-inflight", "4",
                     "--chaos-kill-every", "15", "--stats"])
        captured = capsys.readouterr()
        out = [json.loads(line) for line in captured.out.splitlines() if line]
        assert code == 0
        assert len(out) == len(lines)
        assert all("error" not in line for line in out)
        stats = json.loads(captured.err.split("# serving stats: ", 1)[1])
        assert stats["chaos_kills"] >= 1
        assert stats["workers"]["deaths"] >= 1

    def test_pool_rejects_bad_flags(self, tmp_path, capsys):
        path = self._write_queries(tmp_path, ['{"type": "top_k", "source": 1}'])
        code = main(["answer", "--dataset", "GQ", "--queries", path,
                     "--workers", "2", "--max-inflight", "0"])
        assert code == 2
        assert "max-inflight" in capsys.readouterr().err


class TestGracefulShutdown:
    """Signal/broken-pipe shutdown needs real processes, not capsys."""

    @staticmethod
    def _spawn(extra_args, tmp_path=None, queries="-"):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "answer", "--dataset", "GQ",
             "--method", "parsim", "--param", "iterations=5",
             "--queries", queries, "--stats"] + extra_args,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, cwd="/root/repo", env=env)

    def test_sigterm_drains_single_process_loop(self):
        import signal

        proc = self._spawn(["--batch-size", "1"])
        try:
            proc.stdin.write('{"type": "single_pair", "source": 1, "target": 2}\n')
            proc.stdin.flush()
            first = proc.stdout.readline()
            assert '"score"' in first
            proc.send_signal(signal.SIGTERM)
            # The line in flight when the signal lands is still answered.
            proc.stdin.write('{"type": "single_pair", "source": 2, "target": 3}\n')
            proc.stdin.flush()
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0          # a stopped server did not fail
        assert "serving stats" in err

    def test_sigterm_drains_worker_pool(self):
        import signal
        import time

        proc = self._spawn(["--workers", "2", "--batch-size", "2"])
        try:
            for i in range(4):
                proc.stdin.write(
                    '{"type": "single_pair", "source": %d, "target": %d}\n'
                    % (i, i + 1))
            proc.stdin.flush()
            assert '"score"' in proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.2)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "serving stats" in err        # final record still emitted

    def test_update_ack_reaches_a_piped_client_before_stdin_closes(
            self, tmp_path):
        import json
        import os
        import selectors
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        # Block-buffered stdout, as on any pipe without the override.
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "answer", "--dataset", "GQ",
             "--method", "mc", "--param", "walks_per_node=5",
             "--param", "walk_length=3", "--seed", "1",
             "--wal", str(tmp_path / "updates.wal"), "--queries", "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env)
        try:
            proc.stdin.write('{"type": "update", "insert": [[0, 5]]}\n')
            proc.stdin.flush()
            # The client keeps stdin open and waits for the ack, as an
            # interactive client on a pipe does.
            with selectors.DefaultSelector() as selector:
                selector.register(proc.stdout, selectors.EVENT_READ)
                ready = selector.select(timeout=60)
            assert ready, "no update ack while stdin is still open"
            ack = json.loads(proc.stdout.readline())
            proc.communicate(timeout=60)        # closes stdin: clean exit
        finally:
            proc.kill()
        assert ack["type"] == "update" and ack["graph_version"] == 1
        assert proc.returncode == 0

    def test_broken_pipe_exits_zero_with_stats(self, tmp_path):
        import subprocess
        import sys
        import os

        lines = "\n".join('{"type": "single_pair", "source": %d, "target": %d}'
                          % (i % 7, (i + 1) % 7) for i in range(1500))
        queries = tmp_path / "queries.jsonl"
        queries.write_text(lines + "\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        # head(1) hangs up after two lines; >64 KiB of cached answers then
        # overflow the dead pipe mid-stream -> BrokenPipeError in the loop.
        command = (f"{sys.executable} -m repro.cli answer --dataset GQ "
                   f"--method parsim --param iterations=5 "
                   f"--queries {queries} --stats | head -n 2 > /dev/null; "
                   f'exit "${{PIPESTATUS[0]}}"')
        completed = subprocess.run(["bash", "-c", command], cwd="/root/repo",
                                   env=env, capture_output=True, text=True,
                                   timeout=120)
        assert completed.returncode == 0     # hang-up is a drain, not a crash
        assert "serving stats" in completed.stderr
