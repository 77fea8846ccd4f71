"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, main


class TestBuildAndQuery:
    def test_cpqx_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "robots.idx"
        assert main([
            "build", "--dataset", "robots", "--scale", "0.15",
            "--out", str(out),
        ]) == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "CPQx" in captured and "saved" in captured

        assert main(["query", "--index", str(out), "l1 & l1"]) == 0
        captured = capsys.readouterr().out
        assert "answers in" in captured

    def test_iacpqx_auto_interests(self, tmp_path, capsys):
        out = tmp_path / "ia.idx"
        assert main([
            "build", "--dataset", "robots", "--scale", "0.15",
            "--type", "iacpqx", "--out", str(out),
        ]) == 0
        assert main(["info", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "interests:" in captured

    def test_info_verify_clean_index(self, tmp_path, capsys):
        out = tmp_path / "v.idx"
        assert main([
            "build", "--dataset", "robots", "--scale", "0.12",
            "--out", str(out),
        ]) == 0
        assert main(["info", str(out), "--verify"]) == 0
        captured = capsys.readouterr().out
        assert "OK" in captured

    def test_iacpqx_explicit_interests(self, tmp_path, capsys):
        out = tmp_path / "ia2.idx"
        assert main([
            "build", "--dataset", "robots", "--scale", "0.15",
            "--type", "iacpqx", "--interests", "l1.l2, l2.l1^-",
            "--out", str(out),
        ]) == 0
        from repro.core.persistence import load_index

        index = load_index(out)
        assert (1, 2) in index.interests
        assert (2, -1) in index.interests

    def test_query_on_fresh_dataset(self, capsys):
        assert main([
            "query", "--dataset", "robots", "--scale", "0.1",
            "l1 . l1^-", "--show", "2",
        ]) == 0
        assert "answers in" in capsys.readouterr().out

    def test_query_limit(self, capsys):
        assert main([
            "query", "--dataset", "robots", "--scale", "0.1",
            "l1", "--limit", "1",
        ]) == 0
        assert "1 answers" in capsys.readouterr().out


class TestEngineFlag:
    def test_query_engine_choice(self, capsys):
        assert main([
            "query", "--dataset", "robots", "--scale", "0.1",
            "--engine", "bfs", "l1 . l1^-", "--show", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "[BFS]" in out and "answers in" in out

    def test_query_engine_auto_reports_selection(self, capsys):
        assert main([
            "query", "--dataset", "robots", "--scale", "0.1",
            "--engine", "auto", "l1 & l1",
        ]) == 0
        out = capsys.readouterr().out
        assert "auto-selected engine=" in out and "answers in" in out

    def test_query_stats_flag_prints_counters(self, capsys):
        assert main([
            "query", "--dataset", "robots", "--scale", "0.1",
            "--stats", "l1 & l1",
        ]) == 0
        out = capsys.readouterr().out
        assert "stats: lookups=" in out
        assert "plan:" in out

    def test_query_unknown_engine_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main([
                "query", "--dataset", "robots", "--engine", "nope", "l1",
            ])

    def test_build_engine_flag(self, tmp_path, capsys):
        out = tmp_path / "e.idx"
        assert main([
            "build", "--dataset", "robots", "--scale", "0.15",
            "--engine", "iacpqx", "--out", str(out),
        ]) == 0
        assert "iaCPQx" in capsys.readouterr().out
        assert out.exists()

    def test_build_engine_and_type_conflict(self, capsys):
        assert main([
            "build", "--dataset", "robots", "--scale", "0.1",
            "--engine", "cpqx", "--type", "iacpqx", "--out", "x.idx",
        ]) == 2
        assert "deprecated alias" in capsys.readouterr().err

    def test_build_non_persistable_engine_errors_cleanly(self, tmp_path, capsys):
        code = main([
            "build", "--dataset", "robots", "--scale", "0.1",
            "--engine", "bfs", "--out", str(tmp_path / "b.idx"),
        ])
        assert code == 1
        assert "not persistable" in capsys.readouterr().err


class TestDatasets:
    def test_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "robots" in out
        assert "freebase" in out
        assert "OOM in paper" in out


class TestExperiment:
    def test_experiment_names_cover_all_figures(self):
        expected = {
            "table2", "table3", "table4", "table5", "table6", "table7",
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15",
        }
        assert set(EXPERIMENTS) == expected

    def test_runs_table3(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        monkeypatch.setenv("REPRO_BENCH_QUERIES", "2")
        assert main(["experiment", "table3"]) == 0
        assert "Table III" in capsys.readouterr().out


class TestErrors:
    def test_bad_query_reports_error(self, capsys):
        code = main(["query", "--dataset", "robots", "--scale", "0.1", "(l1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_dataset_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["build", "--dataset", "nope", "--out", "x"])


class TestServeCommand:
    def test_serve_daemon_over_a_saved_index(self, tmp_path, capsys):
        """``repro serve`` end to end: build, boot, query over HTTP,
        shut down via POST /shutdown, exit 0 after a clean drain."""
        import threading

        from repro.serve.daemon import DaemonClient

        index = tmp_path / "served.idx"
        assert main([
            "build", "--dataset", "robots", "--scale", "0.12",
            "--out", str(index),
        ]) == 0
        capsys.readouterr()
        port_file = tmp_path / "port"
        codes: list[int] = []
        thread = threading.Thread(
            target=lambda: codes.append(main([
                "serve", str(index), "--port-file", str(port_file),
                "--mode", "thread",
            ])),
            daemon=True,
        )
        thread.start()
        deadline = __import__("time").monotonic() + 30.0
        while not port_file.exists():
            assert thread.is_alive() and __import__("time").monotonic() < deadline
            __import__("time").sleep(0.02)
        client = DaemonClient("127.0.0.1", int(port_file.read_text().strip()))
        assert client.wait_ready(30.0)
        status, payload = client.query("l1 & l1")
        assert status == 200
        assert payload["count"] == len(payload["answers"])
        client.shutdown()
        thread.join(30.0)
        assert not thread.is_alive()
        assert codes == [0]
        assert "serving" in capsys.readouterr().out
