"""One measuring process of the benchmark (started by ``run.py``).

A fresh interpreter per role, so set-up time counts the import of
``repro`` and peak RSS belongs to one workload alone:

* ``setup`` -- import, build the inputs (and, for ``serve-mix``, boot the
  daemon and submit the first request), report the set-up time, exit;
* ``measure`` -- the untraced run that gives the end-to-end metrics;
* ``trace`` -- the traced run that gives the per-layer rows.

``--t0`` is the parent's monotonic clock just before it started this
process; set-up time is measured from it.  The result is one JSON line
on stdout; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.sim.cache import code_version_hash  # noqa: E402
from probe import PROBE_NOMINAL_S, probe_s  # noqa: E402
import servemix  # noqa: E402
import sims  # noqa: E402
from workloads import (  # noqa: E402
    SERVE_WORKLOAD,
    SimJob,
    WORKLOADS,
    build_workload_job,
    reference_job,
    serve_job_key,
    serve_requests,
    serve_sim_job,
    unique_serve_jobs,
)

#: Where serve-mix keeps its per-run cache directories (inside the checkout).
WORK_DIR = HERE.parent / ".perfbench_tmp"

#: Seconds between host-speed probes during the serve loop.
LOOP_PROBE_INTERVAL_S = 0.2

#: Host-speed probes that scale a set-up time.
SETUP_SCALE_PROBES = 3

#: The serve-layer rows; zero on a workload that runs no daemon.
SERVE_ROWS = ("serve.submit_ms", "serve.task_run_s", "serve.wait_ms",
              "serve.source_run", "serve.source_cache", "serve.source_inflight",
              "serve.dedup_ratio", "cache.get_ms", "cache.put_ms")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def machine_stamp() -> dict[str, Any]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "code_version": code_version_hash(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled_setup(seconds: float) -> float:
    """Set-up time scaled like run times (see ``sims.timed_loop``), by
    probes taken right after the set-up, on an otherwise idle process."""
    probes = [probe_s() for _ in range(SETUP_SCALE_PROBES)]
    return seconds * PROBE_NOMINAL_S / statistics.median(probes)


def timed_backends(job: SimJob, seconds: float, check: sims.CrossCheck
                   ) -> tuple[dict[str, float], dict[str, list[tuple[float, float]]]]:
    """Both backends' throughput on ``job`` over ``seconds`` of runs, from
    each backend's median scaled run time; returns the metrics and the
    runs as ``sims.timed_loop`` gives them."""
    runs = sims.timed_loop(job, seconds, check)
    scaled = {backend: [s for _host, s in runs[backend]] for backend in runs}
    metrics = {
        f"{backend}_accesses_per_s": job.accesses / statistics.median(scaled[backend])
        for backend in sims.BACKENDS
    }
    return metrics, runs


def traced_rows(job: SimJob, check: sims.CrossCheck) -> dict[str, float]:
    """The per-layer rows of ``job``: one untraced run per backend, then
    one event run under cProfile."""
    event_result, event_s = sims.timed_simulate(job, "event")
    check.check(job, "event", event_result)
    functional_result, functional_s = sims.timed_simulate(job, "functional")
    check.check(job, "functional", functional_result)
    rows, traced_s = sims.profiled_event_run(job, check)
    rows.update(sims.sim_counters(event_result))
    rows.update({
        "sim.functional.run_s": functional_s,
        "engine.ns_per_event": event_s * 1e9 / event_result.events_executed,
        "trace.overhead_frac": traced_s / event_s,
    })
    return rows


def sim_workload(role: str, workload: str, seed: int, seconds: int,
                 scale_factor: float, t0: float) -> dict[str, Any]:
    """A direct ``simulate()`` workload, in any of the three roles."""
    build_start = time.perf_counter()
    job = build_workload_job(workload, seed, scale_factor)
    build_s = time.perf_counter() - build_start
    out: dict[str, Any] = {"setup_s": scaled_setup(time.monotonic() - t0)}
    if role == "setup":
        return out
    check = sims.CrossCheck()
    if role == "measure":
        metrics, runs = timed_backends(job, seconds, check)
        # Without a daemon, a user's job is one functional simulate() call.
        functional_ms = [scaled * 1e3 for _host, scaled in runs["functional"]]
        metrics.update({
            "serve_jobs_per_s": 1e3 * len(functional_ms) / sum(functional_ms),
            "serve_latency_p50_ms": statistics.median(functional_ms),
            "serve_latency_p90_ms": servemix.percentile(functional_ms, 90),
        })
        out.update(metrics=metrics, runs=runs, samples={
            "event_accesses_per_s": len(runs["event"]),
            **dict.fromkeys(
                ("functional_accesses_per_s", "serve_jobs_per_s",
                 "serve_latency_p50_ms", "serve_latency_p90_ms"),
                len(runs["functional"])),
        })
    else:
        rows = traced_rows(job, check)
        rows.update(dict.fromkeys(SERVE_ROWS, 0))  # no daemon in this workload
        rows["workloads.build_s"] = build_s
        out["metrics"] = rows
    out.update(attempted=check.attempted, failed=check.failed,
               failures=check.mismatches, sim_digest=sims.sim_digest(check.signatures()))
    return out


def serve_workload(role: str, seed: int, seconds: int, scale_factor: float,
                   t0: float) -> dict[str, Any]:
    """``serve-mix``, in any of the three roles."""
    requests = serve_requests(seed, scale_factor)
    traced = role == "trace"
    with servemix.Daemon(WORK_DIR, timed_cache=traced) as daemon:
        if role == "setup":
            setup_s = servemix.first_accept(daemon.url, requests[0]) - t0
        else:
            # The host-speed probe runs in its own process while the loop
            # runs; it measures CPU time, so sharing a core does not count.
            prober = subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), str(LOOP_PROBE_INTERVAL_S)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            try:
                loop_start = time.perf_counter()
                records = servemix.closed_loop(daemon.url, requests)
                log(f"serve loop: {len(records)} requests in "
                    f"{time.perf_counter() - loop_start:.1f}s")
            finally:
                probes, _ = prober.communicate("")
    if role == "setup":
        return {"setup_s": scaled_setup(setup_s)}  # the daemon has drained
    time_scale = PROBE_NOMINAL_S / statistics.median(map(float, probes.split()))
    log(f"serve loop: host-speed scale {time_scale:.4f}")
    accepted = [r.accepted for r in records if r.accepted is not None]
    out: dict[str, Any] = {
        "setup_s": (min(accepted) - t0) * time_scale if accepted else None}
    served = servemix.served_cycles(records)

    # Correctness, outside the timed loop: every job the daemon returned
    # must match a direct functional simulate() of the same spec.
    check = sims.CrossCheck()
    failures = servemix.failed_requests(records)
    build_s = 0.0
    for job in unique_serve_jobs(requests):
        build_start = time.perf_counter()
        sim_job = serve_sim_job(job)
        build_s += time.perf_counter() - build_start
        result, _seconds = sims.timed_simulate(sim_job, "functional")
        check.check(sim_job, "functional", result)
        wrong = served.get(serve_job_key(job), set()) - {result.total_cycles}
        if wrong:
            failures.append(f"{sim_job.label}: served total_cycles {sorted(wrong)} "
                            f"!= direct {result.total_cycles}")

    # The backends themselves, on the reference job: a quarter of the
    # budget, every run checked against the verification run above.
    ref = serve_sim_job(reference_job(requests))
    if traced:
        rows = traced_rows(ref, check)
        rows.update(servemix.layer_metrics(records, daemon.cache))
        rows["workloads.build_s"] = build_s
        out["metrics"] = rows
    else:
        metrics, runs = timed_backends(ref, seconds / 4, check)
        loop = servemix.loop_metrics(records, time_scale)
        metrics.update({name: loop[name] for name in (
            "serve_jobs_per_s", "serve_latency_p50_ms", "serve_latency_p90_ms")})
        out.update(metrics=metrics, runs=runs, samples={
            "event_accesses_per_s": len(runs["event"]),
            "functional_accesses_per_s": len(runs["functional"]),
            **dict.fromkeys(("serve_jobs_per_s", "serve_latency_p50_ms",
                             "serve_latency_p90_ms"), loop["latency_samples"]),
        })
    failures += check.mismatches
    out.update(attempted=len(records) + check.attempted, failed=len(failures),
               failures=failures, sim_digest=sims.sim_digest(check.signatures()))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--scale-factor", type=float, default=1.0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    if args.workload == SERVE_WORKLOAD:
        out = serve_workload(args.role, args.seed, args.seconds,
                             args.scale_factor, args.t0)
    else:
        out = sim_workload(args.role, args.workload, args.seed, args.seconds,
                           args.scale_factor, args.t0)
    out["peak_rss_mb"] = peak_rss_mb()
    out["stamp"] = machine_stamp()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
