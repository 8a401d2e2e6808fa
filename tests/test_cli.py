"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert capsys.readouterr().out.strip()


class TestSynth:
    def test_synth_shift4(self, capsys):
        code = main(
            [
                "synth",
                "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]",
                "-k",
                "3",
                "--lists",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "TOF4(a,b,c,d) TOF(a,b,c) CNOT(a,b) NOT(a)" in out
        assert "4 gates" in out

    def test_synth_out_of_reach(self, capsys):
        code = main(
            [
                "synth",
                "[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]",
                "-k",
                "3",
                "--lists",
                "1",
            ]
        )
        assert code == 1
        assert "lower bound" in capsys.readouterr().out

    def test_synth_exports(self, capsys, tmp_path):
        qasm_path = tmp_path / "c.qasm"
        real_path = tmp_path / "c.real"
        code = main(
            [
                "synth",
                "[1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14]",
                "-k",
                "2",
                "--lists",
                "1",
                "--qasm",
                str(qasm_path),
                "--real",
                str(real_path),
            ]
        )
        assert code == 0
        assert "x q[0];" in qasm_path.read_text()
        from repro.io.real_format import read_real

        assert read_real(real_path).gate_count == 1

    def test_synth_draw(self, capsys):
        code = main(["synth", "[1,0,2,3]", "--wires", "2", "-k", "2",
                     "--lists", "1", "--draw", "--no-cache"])
        assert code == 0
        assert "⊕" in capsys.readouterr().out

    def test_bad_spec_reports_error(self, capsys):
        code = main(["synth", "[0,0,1]", "-k", "2", "--lists", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestOtherCommands:
    def test_build_db(self, capsys):
        code = main(["build-db", "-k", "2", "--lists", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[1, 4, 33]" in out
        assert "Load Factor" in out

    def test_linear_table(self, capsys):
        code = main(["linear", "--wires", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "total 1344" in out

    def test_random(self, capsys):
        code = main(["random", "6", "--wires", "3", "-k", "4", "--lists", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "average size" in out

    def test_info(self, capsys):
        code = main(["info"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cache directory" in out

    def test_peephole(self, capsys, tmp_path):
        from repro.core.circuit import Circuit
        from repro.io.real_format import read_real, write_real

        source = tmp_path / "in.real"
        target = tmp_path / "out.real"
        circuit = Circuit.parse("NOT(a) NOT(a) CNOT(a,b)", 4)
        write_real(circuit, source)
        code = main(
            ["peephole", str(source), "-o", str(target), "-k", "3",
             "--lists", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 saved" in out
        optimized = read_real(target)
        assert optimized.gate_count == 1
        assert optimized.truth_table() == circuit.truth_table()

    def test_testgen(self, capsys, tmp_path):
        target = tmp_path / "suite.txt"
        code = main(
            ["testgen", str(target), "--per-size", "2", "-k", "3",
             "--lists", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "6 cases" in out
        from repro.analysis.testgen import TestSuite

        suite = TestSuite.load(target)
        assert len(suite.cases) == 6

    def test_libraries(self, capsys):
        code = main(["libraries"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NCTSF" in out and "NCP" in out

    def test_clifford(self, capsys):
        code = main(["clifford", "--qubits", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "24" in out


class TestDbCommands:
    def _build(self, tmp_path, k=3):
        """``build-db`` into the cache directory; the store it wrote."""
        code = main(["build-db", "--wires", "3", "-k", str(k), "--lists", "1"])
        assert code == 0
        return tmp_path / f"db-n3-k{k}.rdb"

    def test_db_build_writes_store(self, capsys, tmp_path):
        rdb = self._build(tmp_path)
        assert "Load Factor" in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == [rdb.name]

    def test_db_verify_ok_and_fail(self, capsys, tmp_path):
        rdb = self._build(tmp_path)
        assert main(["db", "verify", str(rdb)]) == 0
        assert "OK:" in capsys.readouterr().out
        raw = bytearray(rdb.read_bytes())
        raw[-1] ^= 0xFF
        rdb.write_bytes(bytes(raw))
        assert main(["db", "verify", str(rdb)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_db_convert_and_info(self, capsys, tmp_path):
        # .rdb is the only format: there is nothing to convert to, and
        # `db info` reports on the store as written.
        rdb = self._build(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["db", "convert", str(rdb), str(tmp_path / "db.npz")])
        assert exc.value.code == 2
        assert not (tmp_path / "db.npz").exists()
        capsys.readouterr()
        assert main(["db", "info", str(rdb)]) == 0
        out = capsys.readouterr().out
        assert f"path       {rdb}" in out
        assert "k          3" in out
        assert "Load Factor" in out

    def test_db_list_reports_every_store(self, capsys, tmp_path):
        self._build(tmp_path, k=2)
        self._build(tmp_path, k=3)
        capsys.readouterr()
        assert main(["db", "list", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "db-n3-k2.rdb" in out and "db-n3-k3.rdb" in out
        assert out.count("Load Factor") == 2

    def test_db_list_reports_unreadable_store(self, capsys, tmp_path):
        (tmp_path / "broken.rdb").write_bytes(b"not a store")
        assert main(["db", "list", "--dir", str(tmp_path)]) == 1
        assert "UNREADABLE" in capsys.readouterr().out

    def test_info_lists_cache_stores(self, capsys, tmp_path):
        self._build(tmp_path)
        capsys.readouterr()
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "  db-n3-k3.rdb  " in out


class TestEngines:
    NOT_A_3 = "[1,0,3,2,5,4,7,6]"

    def test_engines_listing(self, capsys):
        code = main(["engines"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("optimal", "heuristic", "depth", "linear", "portfolio"):
            assert name in out
        assert "daemon-servable: depth, heuristic, linear, optimal" in out

    def test_engines_verbose(self, capsys):
        code = main(["engines", "-v"])
        out = capsys.readouterr().out
        assert code == 0
        assert "meet-in-the-middle" in out.lower() or "Algorithm 1" in out

    def test_synth_with_heuristic_engine(self, capsys):
        code = main(
            ["synth", self.NOT_A_3, "--wires", "3",
             "--engine", "heuristic", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine        : heuristic" in out
        assert "heuristic upper bound" in out
        assert "NOT(a)" in out

    def test_synth_with_depth_engine(self, capsys):
        code = main(
            ["synth", self.NOT_A_3, "--wires", "3",
             "--engine", "depth", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "provably depth-minimal" in out

    def test_synth_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["synth", self.NOT_A_3, "--engine", "warp"])


class TestServeAndQuery:
    SHIFT = "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]"

    def test_parser_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7878 and args.shards == 0 and not args.stdio

    @pytest.mark.parametrize(
        "flags",
        [
            ["--stdio"],
            ["--no-cache"],
            ["--result-cache", "results.json"],
            ["--hard-timeout", "5"],
            ["--breaker-threshold", "3"],
            ["--breaker-cooldown", "10"],
            ["--trace"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_serve_shards_rejects_a_flag_it_would_drop(
        self, capsys, monkeypatch, flags
    ):
        from repro.service.sharding import ShardCluster

        def launch(*args, **kwargs):
            raise AssertionError("a shard started before the flag check")

        monkeypatch.setattr(ShardCluster, "launch", launch)
        code = main(["serve", "--shards", "2", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {flags[0]} is incompatible with --shards" in err

    def test_parser_query_flags(self):
        args = build_parser().parse_args(
            ["query", self.SHIFT, "--port", "9999", "--size-only"]
        )
        assert args.spec == [self.SHIFT]
        assert args.port == 9999 and args.size_only

    @pytest.fixture()
    def live_daemon(self, handle4):
        from repro.service import ServiceConfig, SynthesisService, TCPDaemon

        service = SynthesisService(
            handle4,
            config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
        )
        daemon = TCPDaemon(service, port=0)
        daemon.start()
        yield daemon
        daemon.stop()

    def test_query_synth(self, capsys, live_daemon):
        _, port = live_daemon.address
        code = main(["query", self.SHIFT, "--port", str(port)])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 gates" in out
        assert "TOF4(a,b,c,d) TOF(a,b,c) CNOT(a,b) NOT(a)" in out

    def test_query_size_only(self, capsys, live_daemon):
        _, port = live_daemon.address
        code = main(["query", self.SHIFT, "--size-only", "--port", str(port)])
        out = capsys.readouterr().out
        assert code == 0
        assert "-> 4" in out

    def test_query_stats_and_shutdown(self, capsys, live_daemon):
        _, port = live_daemon.address
        code = main(["query", "--stats", "--port", str(port)])
        out = capsys.readouterr().out
        assert code == 0
        assert '"queue_depth"' in out
        code = main(["query", "--shutdown", "--port", str(port)])
        out = capsys.readouterr().out
        assert code == 0
        assert "draining" in out

    def test_query_no_specs_errors(self, capsys, live_daemon):
        _, port = live_daemon.address
        code = main(["query", "--port", str(port)])
        err = capsys.readouterr().err
        assert code == 2
        assert "no specs" in err

    def test_query_with_engine(self, capsys, live_daemon):
        _, port = live_daemon.address
        code = main(
            ["query", self.SHIFT, "--engine", "heuristic",
             "--port", str(port)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[engine]" in out or "[cache]" in out

    def test_query_unknown_engine_exits_1(self, capsys, live_daemon):
        _, port = live_daemon.address
        code = main(
            ["query", self.SHIFT, "--engine", "warp", "--port", str(port)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "unknown engine" in err

    def test_query_connection_refused(self, capsys):
        code = main(["query", self.SHIFT, "--port", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot connect" in err

    def test_query_transport_error_midstream_exits_3(
        self, capsys, monkeypatch
    ):
        """A daemon dying mid-stream must not abandon remaining specs or
        leak a traceback; each failure is reported and the exit is 3."""
        from repro.errors import ServiceError
        from repro.service import client as client_mod

        monkeypatch.setattr(
            client_mod.ServiceClient, "connect", lambda self: self
        )
        calls = []

        def flaky_synth(self, spec, wires=None, engine=None, deadline_ms=None):
            calls.append(spec)
            if len(calls) == 1:
                raise ServiceError("connection to daemon lost: reset")
            return {"size": 4, "source": "db", "circuit": "NOT(a)"}

        monkeypatch.setattr(client_mod.ServiceClient, "synth", flaky_synth)
        code = main(["query", "spec-one", "spec-two", "--port", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert len(calls) == 2, "remaining specs must still be attempted"
        assert "transport error" in captured.err
        assert "connection to daemon lost" in captured.err
        assert "4 gates" in captured.out

    def test_serve_stdio_subprocess(self, tmp_path):
        """Full process boundary: `repro serve --stdio` as a subprocess."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        requests = [
            {"id": 1, "op": "ping"},
            {"id": 2, "op": "synth", "spec": self.SHIFT},
            {"id": 3, "op": "stats"},
            {"id": 4, "op": "shutdown"},
        ]
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro",
                "serve", "--stdio", "-k", "3", "--lists", "1",
            ],
            input="\n".join(json.dumps(r) for r in requests) + "\n",
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        responses = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(responses) == 4
        assert responses[0]["result"]["pong"] is True
        assert responses[1]["result"]["size"] == 4
        assert responses[2]["result"]["config"]["k"] == 3
        assert responses[3]["result"]["draining"] is True

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    def test_serve_stdio_reader_going_away_is_a_clean_exit(
        self, tmp_path, buffering
    ):
        """`repro serve --stdio | head -1`: the reader closes the pipe
        with ~2,000 answers unread, more than a pipe buffer holds, so a
        later write fails.  The daemon shuts down as at EOF.  Buffered
        stdout keeps the failed line and flushes it again at exit, so
        that exit flush must not fail either."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("PYTHONUNBUFFERED", None)
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        pings = tmp_path / "pings.jsonl"
        pings.write_text("".join(
            json.dumps({"id": i, "op": "ping"}) + "\n" for i in range(2000)
        ))
        with pings.open() as stdin:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--stdio",
                    "-k", "3", "--lists", "1", "--no-cache",
                ],
                stdin=stdin,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            try:
                first = json.loads(proc.stdout.readline())
                proc.stdout.close()
                code = proc.wait(timeout=300)
                stderr = proc.stderr.read().decode()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)
                proc.stderr.close()
        assert first["id"] == 0 and first["result"]["pong"] is True
        assert code == 0, stderr
        assert stderr == ""
