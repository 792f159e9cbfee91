"""Path failures must follow the CLI error convention (docs/robustness.md):
exit code 2 and a one-line ``error:`` diagnostic — never a traceback.
"""

import pytest

from repro.cli import main


class TestUnwritableOutput:
    def test_trace_out_in_missing_directory(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "trace", "FIR", "--scale", "0.02",
                "--out", "/nonexistent-dir/trace.json",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_bench_json_in_missing_directory(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "bench", "--benches", "fig02_baseline_hit_rates",
                "--scale", "0.02", "--jobs", "1",
                "--json", "/nonexistent-dir/report.json",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestMissingInput:
    def test_run_missing_npz_workload(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "/nonexistent-dir/workload.npz", "--scale", "0.02"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_missing_npz_workload(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "/nonexistent-dir/workload.npz", "--scale", "0.02"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestFunctionalBackendCli:
    def test_run_functional_backend(self):
        assert main([
            "run", "FIR", "--scale", "0.02", "--backend", "functional",
        ]) == 0

    def test_run_functional_backend_out_of_scope(self, capsys):
        # Fault injection is outside the fast path's scope: refuse with
        # the CLI convention instead of silently running without faults.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "FIR", "--scale", "0.02", "--backend", "functional",
                "--faults", "drop-remote:0.01",
            ])
        assert excinfo.value.code == 2
        assert "error: --backend functional" in capsys.readouterr().err


class TestRemovedOptions:
    """The deleted vectorized backend and ``--shards`` flag are refused
    as usage errors, never silently reinterpreted."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "FIR", "--backend", "vectorized"],
            ["run", "FIR", "--shards", "2"],
            ["bench", "--shards", "2"],
        ],
        ids=["run-backend-vectorized", "run-shards", "bench-shards"],
    )
    def test_argparse_refuses(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err
