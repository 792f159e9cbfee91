"""Ingested traces as first-class simulation jobs (docs/traces.md).

Covers the sim/CLI/serve plumbing around :mod:`repro.workloads.ingest`:
content-addressed cache fingerprints, the ``run_trace`` driver, exact
cross-backend agreement, the ``trace_*`` bench family with cache hits,
the CLI exit-code contract, and serve-request parity.
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.config.presets import baseline_config
from repro.sim.cache import ResultCache
from repro.sim.driver import run_trace
from repro.sim.parallel import (
    JobSpec,
    TRACE_FAMILY_POLICIES,
    dedupe_jobs,
    run_matrix,
    trace_bench_pairs,
    trace_family,
)
from repro.serve.requests import RequestError, parse_job, spec_request
from repro.workloads.ingest import synthesize_k6_trace

SCALE = 0.2


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace-jobs") / "k6_jobs.trc.gz"
    synthesize_k6_trace(path, accesses=15_000, footprint_pages=512, seed=4)
    return path


class TestFingerprints:
    def test_content_addressed_across_paths(self, trace, tmp_path):
        copy = tmp_path / "renamed.trc.gz"
        shutil.copyfile(trace, copy)
        a = JobSpec("trace", str(trace), "baseline", scale=SCALE).fingerprint()
        b = JobSpec("trace", str(copy), "baseline", scale=SCALE).fingerprint()
        assert a == b

    def test_changes_with_content(self, trace, tmp_path):
        edited = tmp_path / "edited.trc.gz"
        shutil.copyfile(trace, edited)
        with open(edited, "ab") as handle:
            handle.write(b"\x00")
        a = JobSpec("trace", str(trace), "baseline", scale=SCALE).fingerprint()
        b = JobSpec("trace", str(edited), "baseline", scale=SCALE).fingerprint()
        assert a != b

    def test_split_policy_is_part_of_identity(self, trace):
        pairs = {
            split: JobSpec("trace", str(trace), "baseline", scale=SCALE,
                           options=(("split", split),)).fingerprint()
            for split in ("round-robin", "address-hash")
        }
        assert pairs["round-robin"] != pairs["address-hash"]


class TestRunTrace:
    def test_metadata_records_provenance(self, trace):
        result = run_trace(str(trace), scale=SCALE)
        meta = result.metadata["trace"]
        assert len(meta["digest"]) == 64
        assert meta["split"] == "round-robin"
        assert meta["format"] == "k6"
        assert meta["records"] == 15_000
        assert result.apps[1].counters["accesses"] > 0

    def test_backends_agree_bit_identically(self, trace):
        config = baseline_config()
        reference = run_trace(str(trace), config, "baseline", scale=SCALE)
        other = run_trace(str(trace), config, "baseline", scale=SCALE,
                          backend="functional")
        assert other.total_cycles == reference.total_cycles
        assert other.apps[1].counters == reference.apps[1].counters


class TestBenchFamily:
    def test_family_covers_both_policies(self, trace):
        pairs = trace_bench_pairs(str(trace), scale=SCALE)
        assert [spec.policy for _bench, spec in pairs] == list(TRACE_FAMILY_POLICIES)
        assert {bench for bench, _spec in pairs} == {trace_family(str(trace))}
        assert all(dict(spec.options)["split"] == "round-robin"
                   for _bench, spec in pairs)

    def test_rerun_is_all_cache_hits(self, trace, tmp_path):
        pairs = trace_bench_pairs(str(trace), scale=SCALE, backend="functional")
        cache = ResultCache(tmp_path / "cache")
        cold = run_matrix(pairs, workers=1, cache=cache)
        assert all(not o.cached and o.result is not None for o in cold)
        warm = run_matrix(pairs, workers=1, cache=cache)
        assert all(o.cached for o in warm)
        assert {o.digest for o in cold} == {o.digest for o in warm}


class TestCliContract:
    def test_run_trace_path_and_json(self, trace, tmp_path, capsys):
        out = tmp_path / "result.json"
        rc = main(["run", "--trace", str(trace), "--scale", str(SCALE),
                   "--backend", "functional", "--json", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "single"
        assert data["metadata"]["trace"]["format"] == "k6"

    def test_run_rejects_trace_plus_workload(self, trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "MM", "--trace", str(trace)])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_rejects_missing_trace_path(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--trace", "/nonexistent/t.trc"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_ingest_malformed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trc"
        bad.write_text("0x10 P_MEM_RD 1\nbroken\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest", str(bad)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    def test_bench_trace_missing_file_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--trace", "/nonexistent/t.trc"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestServeParity:
    def test_parse_job_matches_bench_pairs(self, trace):
        _bench, spec = trace_bench_pairs(str(trace), scale=SCALE)[0]
        served = parse_job({
            "kind": "trace", "workload": str(trace),
            "policy": spec.policy, "scale": SCALE,
        })
        assert served.fingerprint() == spec.fingerprint()
        assert dedupe_jobs([("x", served)])[0][2] == dedupe_jobs([("x", spec)])[0][2]

    def test_spec_request_round_trips(self, trace):
        for _bench, spec in trace_bench_pairs(str(trace), scale=SCALE):
            request = spec_request(spec)
            assert request is not None
            assert parse_job(request).fingerprint() == spec.fingerprint()

    def test_rejects_missing_trace_file(self):
        with pytest.raises(RequestError, match="trace"):
            parse_job({"kind": "trace", "workload": "/nonexistent/t.trc",
                       "policy": "baseline", "scale": SCALE})

    def test_rejects_split_on_non_trace_jobs(self):
        with pytest.raises(RequestError, match="split"):
            parse_job({"kind": "single", "workload": "MM",
                       "policy": "baseline", "scale": SCALE,
                       "options": {"split": "address-hash"}})
