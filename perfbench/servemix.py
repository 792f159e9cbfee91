"""The ``serve-mix`` workload: a closed loop against ``repro serve``.

The daemon runs in this process on a background thread
(``ServerThread``) with ``workers=2`` and a fresh cache directory; two
client threads, one per core, each send their next request only after
the previous one finished (closed loop).  Clients speak HTTP through
``ServeClient`` only.
"""

from __future__ import annotations

import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.serve.api import ServerThread
from repro.serve.app import ServeApp, ServeSettings
from repro.serve.client import ServeClient, ServeClientError
from repro.sim.cache import ResultCache
from workloads import serve_job_key

CLIENT_THREADS = 2
SERVE_WORKERS = 2


class TimedResultCache(ResultCache):
    """A :class:`ResultCache` that records how long each ``get`` and
    ``put`` takes.  Only traced runs use it; ``list.append`` is atomic,
    so the daemon's threads can record concurrently."""

    def __init__(self, cache_dir: Path) -> None:
        super().__init__(cache_dir)
        self.get_s: list[float] = []
        self.put_s: list[float] = []

    def get(self, fingerprint: dict[str, Any]) -> Any:
        start = time.perf_counter()
        try:
            return super().get(fingerprint)
        finally:
            self.get_s.append(time.perf_counter() - start)

    def put(self, fingerprint: dict[str, Any], result: Any) -> Any:
        start = time.perf_counter()
        try:
            return super().put(fingerprint, result)
        finally:
            self.put_s.append(time.perf_counter() - start)


class Daemon:
    """A daemon with a fresh cache directory under ``work_dir``, stopped
    (drained and joined) on exit."""

    def __init__(self, work_dir: Path, *, timed_cache: bool = False) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(prefix="serve-", dir=work_dir)
        cache_dir = Path(self._tmp.name)
        self.cache = (TimedResultCache(cache_dir) if timed_cache
                      else ResultCache(cache_dir))
        settings = ServeSettings(workers=SERVE_WORKERS)
        self.thread = ServerThread(ServeApp(settings, cache=self.cache))
        self.url = ""

    def __enter__(self) -> "Daemon":
        self.url = self.thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            self.thread.stop()
        finally:
            self._tmp.cleanup()


@dataclass
class RequestRecord:
    """One request of the closed loop, timed on the monotonic clock."""

    jobs: list[dict[str, Any]]
    start: float = 0.0
    accepted: float | None = None
    """When the submit returned 201; ``None`` if it was refused."""
    done: float | None = None
    state: str = "refused"
    error: str | None = None
    dedup: dict[str, int] = field(default_factory=dict)
    tasks: list[dict[str, Any]] = field(default_factory=list)

    @property
    def latency(self) -> float:
        assert self.done is not None
        return self.done - self.start

    @property
    def submit(self) -> float:
        assert self.accepted is not None
        return self.accepted - self.start


def _serve_one(client: ServeClient, record: RequestRecord) -> None:
    record.start = time.monotonic()
    try:
        body = client.submit({"jobs": record.jobs})
    except ServeClientError as exc:
        record.error = f"HTTP {exc.status}: {exc}"
        return
    record.accepted = time.monotonic()
    record.dedup = body["dedup"]
    if body["state"] not in ("done", "failed"):
        for _event in client.events(body["job"]):
            pass  # the stream ends at job_done
    record.done = time.monotonic()
    snapshot = client.job(body["job"])
    record.state = snapshot["state"]
    record.tasks = snapshot["tasks"]


def closed_loop(url: str, requests: list[list[dict[str, Any]]]) -> list[RequestRecord]:
    """Send ``requests`` in order from ``CLIENT_THREADS`` threads; each
    thread waits for its job's ``job_done`` before taking the next one."""
    records = [RequestRecord(jobs) for jobs in requests]
    cursor = iter(records)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def client_main(index: int) -> None:
        client = ServeClient(url, client_name=f"client-{index}")
        try:
            while True:
                with lock:
                    record = next(cursor, None)
                if record is None:
                    return
                _serve_one(client, record)
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=client_main, args=(i,), name=f"client-{i}")
               for i in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"client thread failed: {errors[0]!r}") from errors[0]
    return records


def first_accept(url: str, jobs: list[dict[str, Any]]) -> float:
    """Submit one request, return when it was accepted, then wait for it
    to finish (the set-up probe)."""
    record = RequestRecord(jobs)
    _serve_one(ServeClient(url, client_name="setup"), record)
    if record.accepted is None:
        raise RuntimeError(f"set-up request refused: {record.error}")
    return record.accepted


def served_cycles(records: list[RequestRecord]) -> dict[tuple[str, str, int], set[int]]:
    """Every ``total_cycles`` the daemon returned, per job."""
    cycles: dict[tuple[str, str, int], set[int]] = {}
    for record in records:
        if record.state != "done":
            continue
        keys = list(dict.fromkeys(serve_job_key(job) for job in record.jobs))
        if len(keys) != len(record.tasks):
            raise RuntimeError(
                f"request of {len(keys)} unique jobs came back with "
                f"{len(record.tasks)} tasks")
        for key, task in zip(keys, record.tasks):
            cycles.setdefault(key, set()).add(task["total_cycles"])
    return cycles


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def loop_metrics(records: list[RequestRecord], time_scale: float) -> dict[str, float]:
    """End-to-end figures of one closed loop; wall times are multiplied
    by ``time_scale`` (the host-speed factor, see ``sims.timed_loop``)."""
    done = [r for r in records if r.state == "done"]
    if not done:
        raise RuntimeError("no serve request completed")
    wall = (max(r.done for r in done) - min(r.start for r in records)) * time_scale
    latencies_ms = [r.latency * time_scale * 1e3 for r in done]
    return {
        "serve_jobs_per_s": sum(len(r.jobs) for r in done) / wall,
        "serve_latency_p50_ms": statistics.median(latencies_ms),
        "serve_latency_p90_ms": percentile(latencies_ms, 90),
        "latency_samples": len(latencies_ms),
    }


def failed_requests(records: list[RequestRecord]) -> list[str]:
    """Refused requests (429/5xx) and requests that ended ``failed``."""
    return [r.error or f"job ended {r.state}" for r in records if r.state != "done"]


def layer_metrics(records: list[RequestRecord],
                  cache: TimedResultCache) -> dict[str, float]:
    """The serve layers' rows (host time, unscaled), from the loop's own
    timings, the daemon's per-task reports and the timed cache."""
    done = [r for r in records if r.state == "done"]
    run_seconds: dict[str, float] = {}
    waits_ms = []
    for record in done:
        own_run = 0.0
        for task in record.tasks:
            if task["source"] == "run":
                run_seconds[task["digest"]] = task["seconds"]
                own_run = max(own_run, task["seconds"])
        waits_ms.append(max(0.0, record.latency - record.submit - own_run) * 1e3)
    sources = {key: sum(r.dedup.get(key, 0) for r in records if r.accepted)
               for key in ("new", "cache", "inflight", "matrix")}
    slots = sum(len(r.jobs) for r in records if r.accepted)
    rows = {
        "serve.submit_ms": statistics.median(r.submit * 1e3 for r in done),
        "serve.task_run_s": (statistics.fmean(run_seconds.values())
                             if run_seconds else 0.0),
        "serve.wait_ms": statistics.fmean(waits_ms),
        "serve.source_run": sources["new"],
        "serve.source_cache": sources["cache"],
        "serve.source_inflight": sources["inflight"],
        "serve.dedup_ratio": (
            (sources["cache"] + sources["inflight"] + sources["matrix"]) / slots
        ),
        "cache.get_ms": statistics.median(cache.get_s or [0.0]) * 1e3,
        "cache.put_ms": statistics.median(cache.put_s or [0.0]) * 1e3,
    }
    return rows
