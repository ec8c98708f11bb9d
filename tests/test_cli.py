"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.topology == "mesh"
        assert args.rate == 0.1

    def test_rejects_unknown_topology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--topology", "hypercube"])


class TestRunWindow:
    @pytest.mark.parametrize("command", ["simulate", "observe"])
    @pytest.mark.parametrize("cycles,warmup", [
        ("300", None),  # simulate's default warm-up is 300 cycles
        ("300", "300"),
        ("300", "301"),
        ("300", "-1"),
        ("-5", "0"),
    ])
    def test_warmup_must_leave_cycles_to_measure(
        self, command, cycles, warmup, capsys, tmp_path
    ):
        argv = [command, "--size", "2", "--cycles", cycles]
        if command == "observe":
            argv += ["--out-dir", str(tmp_path)]
            warmup = warmup or "300"  # observe's default warm-up is 0
        if warmup is not None:
            argv += ["--warmup", warmup]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--warmup" in err and "--cycles" in err

    @pytest.mark.parametrize("command", ["simulate", "observe"])
    def test_window_without_packets_is_an_error(
        self, command, capsys, tmp_path
    ):
        argv = [command, "--size", "2", "--rate", "0.01", "--cycles", "301",
                "--warmup", "300"]
        if command == "observe":
            argv += ["--out-dir", str(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert "measurement window (cycles 300-301)" in line
        assert "summary.json" not in captured.out

    def test_default_warmup_with_longer_run(self, capsys):
        assert main(["simulate", "--size", "2", "--rate", "0.2",
                     "--cycles", "400"]) == 0
        assert "packets delivered" in capsys.readouterr().out


class TestCharacterize:
    def test_prints_radix_table(self, capsys):
        assert main(["characterize", "--radices", "4", "10", "26"]) == 0
        out = capsys.readouterr().out
        assert "65 nm" in out
        assert "efficient" in out
        assert "infeasible" in out

    def test_other_node(self, capsys):
        assert main(["characterize", "--node", "45", "--radices", "4"]) == 0
        assert "45 nm" in capsys.readouterr().out


class TestSimulate:
    def test_mesh_run(self, capsys):
        rc = main(
            ["simulate", "--size", "3", "--rate", "0.1",
             "--cycles", "300", "--warmup", "50"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "packets delivered" in out
        assert "latency mean" in out

    def test_torus_uses_two_vcs(self, capsys):
        rc = main(
            ["simulate", "--topology", "torus", "--size", "3",
             "--rate", "0.05", "--cycles", "200", "--warmup", "20"]
        )
        assert rc == 0
        assert "torus3x3" in capsys.readouterr().out

    def test_fattree(self, capsys):
        rc = main(
            ["simulate", "--topology", "fattree", "--size", "2",
             "--rate", "0.05", "--cycles", "200", "--warmup", "20"]
        )
        assert rc == 0

    def test_heatmap_output(self, capsys):
        rc = main(
            ["simulate", "--size", "3", "--rate", "0.2",
             "--cycles", "300", "--warmup", "50", "--heatmap"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "heat map" in out
        assert "#" in out

    def test_heatmap_rejected_for_rings(self, capsys):
        rc = main(
            ["simulate", "--topology", "spidergon", "--size", "6",
             "--rate", "0.05", "--cycles", "200", "--warmup", "20",
             "--heatmap"]
        )
        assert rc == 0
        assert "only available" in capsys.readouterr().out

    def test_ack_nack_flow_control(self, capsys):
        rc = main(
            ["simulate", "--size", "3", "--flow-control", "ack_nack",
             "--rate", "0.05", "--cycles", "200", "--warmup", "20"]
        )
        assert rc == 0


class TestSynthesize:
    def test_pip_flow(self, capsys):
        rc = main(
            ["synthesize", "--workload", "pip", "--switches", "2",
             "--frequencies", "600", "--verify-cycles", "300"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "passed=True" in out

    def test_synthetic_workload(self, capsys):
        rc = main(
            ["synthesize", "--workload", "synthetic:6", "--switches", "2",
             "--frequencies", "600", "--verify-cycles", "200"]
        )
        assert rc == 0

    def test_verilog_output(self, tmp_path, capsys):
        out_file = tmp_path / "noc.v"
        rc = main(
            ["synthesize", "--workload", "pip", "--switches", "2",
             "--frequencies", "600", "--verify-cycles", "200",
             "--verilog-out", str(out_file)]
        )
        assert rc == 0
        text = out_file.read_text()
        assert "module" in text and "xpipes_switch" in text

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            main(["synthesize", "--workload", "quake"])

    def test_design_out(self, tmp_path, capsys):
        from repro.topology import load_design, check_routing_deadlock

        out = tmp_path / "design.json"
        rc = main(
            ["synthesize", "--workload", "pip", "--switches", "2",
             "--frequencies", "600", "--verify-cycles", "200",
             "--design-out", str(out)]
        )
        assert rc == 0
        topo, table = load_design(out)
        assert check_routing_deadlock(topo, table)

    def test_spec_file_input(self, tmp_path, capsys):
        from repro.apps import pip
        from repro.core import CommunicationSpec, save_spec

        spec_path = tmp_path / "pip.json"
        save_spec(CommunicationSpec.from_workload(pip()), spec_path)
        rc = main(
            ["synthesize", "--spec-file", str(spec_path), "--switches", "2",
             "--frequencies", "600", "--verify-cycles", "200"]
        )
        assert rc == 0
        assert "pip" in capsys.readouterr().out


class TestChips:
    def test_summaries(self, capsys):
        assert main(["chips"]) == 0
        out = capsys.readouterr().out
        for chip in ("teraflops", "tile_gx", "faust", "bone", "spin"):
            assert chip in out
        assert "1.62 Tb/s" in out


class TestBatch:
    def _synthesis_args(self, tmp_path, extra=()):
        return [
            "batch", "synthesis", "--workload", "pip",
            "--switches", "2", "--frequencies", "500",
            "--cache-dir", str(tmp_path / "cache"),
            *extra,
        ]

    def test_synthesis_sweep_prints_front(self, tmp_path, capsys):
        assert main(self._synthesis_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "3 computed, 0 from cache" in out
        assert "Pareto front" in out
        assert "pip-custom-k2" in out
        assert "[ref] pip-mesh3x3" in out

    def test_second_invocation_is_all_cache_hits(self, tmp_path, capsys):
        assert main(self._synthesis_args(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._synthesis_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "0 computed, 3 from cache (100% hit rate)" in out

    def test_no_cache_always_recomputes(self, tmp_path, capsys):
        args = self._synthesis_args(tmp_path, extra=["--no-cache"])
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "3 computed, 0 from cache" in capsys.readouterr().out

    def test_store_records_sweep(self, tmp_path, capsys):
        from repro.lab import ResultStore

        store_path = tmp_path / "results.jsonl"
        args = self._synthesis_args(
            tmp_path, extra=["--store", str(store_path), "--jobs", "2"]
        )
        assert main(args) == 0
        store = ResultStore(store_path)
        assert store.run_metadata()["by_kind"] == {
            "baseline": 2, "synthesis": 1,
        }
        assert len(store.pareto()) == 1

    def test_loadcurve_sweep(self, tmp_path, capsys):
        rc = main([
            "batch", "loadcurve", "--topology", "mesh", "--size", "3",
            "--rates", "0.05", "0.1", "--cycles", "300", "--warmup", "60",
            "--cache-dir", str(tmp_path / "cache"), "--jobs", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 computed" in out
        assert "offered" in out and "0.050" in out

    def test_saturation_sweep(self, tmp_path, capsys):
        rc = main([
            "batch", "saturation", "--topology", "mesh", "--size", "2",
            "--cycles", "300", "--warmup", "60",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        assert "saturation throughput" in capsys.readouterr().out


    @pytest.mark.parametrize("sweep, extra", [
        ("synthesis", ["--workload", "pip", "--switches", "2",
                       "--frequencies", "500"]),
        ("loadcurve", ["--size", "3", "--rates", "0.05", "0.1",
                       "--cycles", "300", "--warmup", "60"]),
        ("saturation", ["--size", "2", "--cycles", "300", "--warmup", "60"]),
        ("faults", ["--size", "3", "--runs", "2", "--cycles", "400"]),
    ])
    def test_quarantined_job_is_reported_and_fails_the_run(
        self, monkeypatch, capsys, sweep, extra
    ):
        import repro.lab
        from repro.resilience import quarantine_payload

        real_run_jobs = repro.lab.run_jobs
        lost = []

        def run_jobs_losing_the_first(jobs, **kwargs):
            batch = real_run_jobs(jobs, **kwargs)
            lost.append(jobs[0])
            batch.results[0] = quarantine_payload(jobs[0], [{
                "attempt": 3, "outcome": "died",
                "detail": "worker process died (exitcode -9)",
            }])
            return batch

        monkeypatch.setattr(repro.lab, "run_jobs", run_jobs_losing_the_first)
        assert main(["batch", sweep, "--no-cache", *extra]) == 1
        out = capsys.readouterr().out
        assert (f"quarantined {lost[0].describe()}: died "
                "(worker process died (exitcode -9))") in out


class TestObserve:
    def _run(self, tmp_path, name, extra=()):
        out_dir = tmp_path / name
        rc = main([
            "observe", "--size", "3", "--rate", "0.15",
            "--cycles", "300", "--interval", "50",
            "--out-dir", str(out_dir), *extra,
        ])
        assert rc == 0
        return out_dir

    def test_writes_all_artifacts(self, tmp_path, capsys):
        import json

        out_dir = self._run(tmp_path, "obs")
        out = capsys.readouterr().out
        assert "Bottleneck report" in out
        assert "hot links" in out
        for name in ("metrics.jsonl", "trace.jsonl", "trace.json",
                     "congestion.csv", "summary.json"):
            assert (out_dir / name).exists(), name
        # Chrome trace is one valid JSON document (Perfetto-loadable).
        doc = json.loads((out_dir / "trace.json").read_text())
        assert doc["traceEvents"]
        # JSONL files parse line by line.
        for line in (out_dir / "metrics.jsonl").read_text().splitlines():
            json.loads(line)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["packets_delivered"] > 0
        assert summary["metrics"]["top_links"]

    def test_no_trace_skips_flit_files(self, tmp_path, capsys):
        out_dir = self._run(tmp_path, "obs", extra=["--no-trace"])
        assert (out_dir / "metrics.jsonl").exists()
        assert not (out_dir / "trace.jsonl").exists()
        assert not (out_dir / "trace.json").exists()

    def test_metrics_outputs_deterministic(self, tmp_path, capsys):
        a = self._run(tmp_path, "a", extra=["--no-trace"])
        b = self._run(tmp_path, "b", extra=["--no-trace"])
        assert (a / "summary.json").read_bytes() == (
            b / "summary.json"
        ).read_bytes()
        assert (a / "metrics.jsonl").read_bytes() == (
            b / "metrics.jsonl"
        ).read_bytes()
        assert (a / "congestion.csv").read_bytes() == (
            b / "congestion.csv"
        ).read_bytes()

    def test_loadcurve_with_metrics_interval(self, tmp_path, capsys):
        rc = main([
            "batch", "loadcurve", "--topology", "mesh", "--size", "3",
            "--rates", "0.05", "0.1", "--cycles", "300", "--warmup", "60",
            "--metrics-interval", "50",
            "--cache-dir", str(tmp_path / "cache"),
            "--store", str(tmp_path / "store.jsonl"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean util" in out

        from repro.lab import ResultStore

        rows = ResultStore(tmp_path / "store.jsonl").utilization_curve()
        assert [r["offered_rate"] for r in rows] == [0.05, 0.1]
        assert all(r["peak_link_utilization"] > 0 for r in rows)


class TestChaos:
    def test_json_stdout_is_exactly_one_document(self, tmp_path, capsys):
        import json

        rc = main([
            "chaos", "--jobs", "2", "--workers", "1", "--cycles", "300",
            "--poison-jobs", "0", "--fault-jobs", "0", "--max-kills", "0",
            "--max-corruptions", "0", "--stall-streams", "0",
            "--dir", str(tmp_path / "chaos"), "--json",
        ])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["ok"] is True and rc == 0
        assert doc["completed"] == 2
        assert "chaos campaign:" in captured.err
        assert "chaos verdict: OK" in captured.err
