"""Tests of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]

from repro.serve.app import ServeSettings  # noqa: E402
import servemix  # noqa: E402
import sims  # noqa: E402
import worker  # noqa: E402
from workloads import (  # noqa: E402
    build_workload_job,
    reference_job,
    serve_requests,
    unique_serve_jobs,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "1", "--scale-factor", "0.02"]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload: str, trace: str) -> None:
    proc = run_bench("--workload", workload, "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [row["name"] for row in wanted]
    human = "\n".join(lines[:-1])
    for row in wanted:
        metric = result["metrics"][row["name"]]
        assert metric["unit"] == row["unit"]
        assert isinstance(metric["value"], (int, float))
        if trace == "0":
            assert metric["value"] > 0, row["name"]
        assert f"{row['name']} " in human and f" {row['unit']}" in human
    assert "error_rate" in human and "sim_digest" in human
    assert "code_version=" in human and "nproc=" in human


def test_cross_check_flags_a_mismatched_pair() -> None:
    job = build_workload_job("st-least-tlb", 3, 0.01)
    check = sims.CrossCheck()
    result, _ = sims.timed_simulate(job, "event")
    check.check(job, "event", result)
    functional, _ = sims.timed_simulate(job, "functional")
    check.check(job, "functional", functional)
    assert (check.attempted, check.failed) == (2, 0)

    check.check(job, "functional",
                dataclasses.replace(functional, total_cycles=functional.total_cycles + 1))
    app = next(iter(functional.apps.values()))
    skewed = dataclasses.replace(app, mean_translation_latency=app.mean_translation_latency + 0.5)
    check.check(job, "functional", dataclasses.replace(
        functional, apps={**functional.apps, app.pid: skewed}))
    assert (check.attempted, check.failed) == (4, 2)
    assert "total_cycles" in check.mismatches[0]
    assert "apps" in check.mismatches[1]


def test_refused_request_raises_the_error_rate(monkeypatch: pytest.MonkeyPatch) -> None:
    # A one-job queue limit refuses (HTTP 429) every request that brings
    # two or three new jobs at once.
    monkeypatch.setattr(servemix, "ServeSettings",
                        functools.partial(ServeSettings, max_pending=1))
    out = worker.serve_workload("measure", 3, 1, 0.02, time.monotonic())
    assert 0 < out["failed"] < out["attempted"]
    assert any("HTTP 429" in failure for failure in out["failures"])


def test_serve_requests_keep_their_shape_across_seeds() -> None:
    first = serve_requests(5)
    assert first == serve_requests(5)
    assert len(first) == 120
    assert sorted(map(len, first)) == [1] * 40 + [2] * 40 + [3] * 40
    assert len(unique_serve_jobs(first)) == 140

    def shape(requests):
        return [[(job["workload"], job["policy"]) for job in request]
                for request in requests]

    def repeats(requests):
        return [[job in unique_serve_jobs(requests[:i]) for job in request]
                for i, request in enumerate(requests)]

    other = serve_requests(6)
    assert other != first
    assert shape(other) == shape(first)
    assert repeats(other) == repeats(first)
    assert len(unique_serve_jobs(other)) == 140
    reference = reference_job(other)
    assert (reference["workload"], reference["policy"]) == ("MM", "least-tlb")
    assert reference["seed"] == min(job["seed"] for job in unique_serve_jobs(other)
                                    if job["workload"] == "MM"
                                    and job["policy"] == "least-tlb")


def test_layer_of_folds_by_package_and_hot_module() -> None:
    assert sims.layer_of("/x/src/repro/structures/cuckoo_filter.py") == (
        "structures", "structures.cuckoo_filter")
    assert sims.layer_of("/x/src/repro/iommu/iommu.py") == ("iommu", None)
    assert sims.layer_of("/x/src/repro/sim/backends/functional.py") == ("sim", None)
    assert sims.layer_of("/x/src/repro/cli.py") == ("other", None)
    assert sims.layer_of("~") == ("python", None)
    assert sims.layer_of("/usr/lib/python3.11/heapq.py") == ("python", None)


def test_fails_without_the_simulator_sources() -> None:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(PERFBENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", WORKLOADS[0], *TINY, cwd=bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
