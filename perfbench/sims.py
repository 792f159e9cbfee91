"""Direct ``simulate()`` runs: timing, the event/functional cross-check,
the exact simulated counters, and the cProfile layer fold.

Only the public entry point is called: ``simulate(config, workload,
policy, backend="event" | "functional")``.  Simulated cycles are an output that
is checked, never a speed figure; every rate here is host time.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import pstats
import time
from pathlib import PurePath
from typing import Any

from repro.sim.driver import simulate
from repro.sim.results import SimulationResult
from probe import PROBE_NOMINAL_S, probe_s
from workloads import SimJob

BACKENDS = ("event", "functional")


def result_signature(result: SimulationResult) -> dict[str, Any]:
    """Every simulated output both backends must agree on."""
    return {
        "total_cycles": result.total_cycles,
        "events_executed": result.events_executed,
        "apps": [
            {
                "pid": app.pid,
                "app": app.app_name,
                "gpus": list(app.gpu_ids),
                "instructions": app.instructions,
                "runs": app.runs,
                "accesses": app.accesses,
                "exec_cycles": app.exec_cycles,
                "counters": dict(sorted(app.counters.items())),
                "mean_translation_latency": app.mean_translation_latency,
            }
            for app in (result.apps[pid] for pid in sorted(result.apps))
        ],
        "iommu_counters": dict(sorted(result.iommu_counters.items())),
        "walker_counters": dict(sorted(result.walker_counters.items())),
        "walker_queue_wait_mean": result.walker_queue_wait_mean,
        "tracker_stats": (None if result.tracker_stats is None
                          else dict(sorted(result.tracker_stats.items()))),
    }


def signature_mismatch(reference: dict[str, Any], other: dict[str, Any]) -> list[str]:
    """The top-level fields on which two signatures differ."""
    return sorted(k for k in reference.keys() | other.keys()
                  if reference.get(k) != other.get(k))


def sim_digest(signatures: list[dict[str, Any]]) -> str:
    """A short hash of the simulated outputs, to compare two commits."""
    blob = json.dumps(signatures, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def timed_simulate(job: SimJob, backend: str) -> tuple[SimulationResult, float]:
    """One untraced run; garbage from earlier runs is collected first so
    it is not charged to this one."""
    gc.collect()
    start = time.perf_counter()
    result = simulate(job.config, job.workload, job.policy, backend=backend)
    return result, time.perf_counter() - start


class CrossCheck:
    """Compares every run of a job with the job's first run.

    Runs of one job on either backend must be identical, so a run that
    differs is a failed operation whichever backend went first."""

    def __init__(self) -> None:
        self.reference: dict[str, dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, job: SimJob, backend: str, result: SimulationResult) -> None:
        signature = result_signature(result)
        self.attempted += 1
        reference = self.reference.setdefault(job.label, signature)
        fields = signature_mismatch(reference, signature)
        if fields:
            self.failed += 1
            self.mismatches.append(f"{job.label} {backend}: {', '.join(fields)}")

    def signatures(self) -> list[dict[str, Any]]:
        return [self.reference[label] for label in sorted(self.reference)]


def timed_loop(job: SimJob, seconds: float, check: CrossCheck,
               min_rounds: int = 2) -> dict[str, list[tuple[float, float]]]:
    """Run ``job`` on both backends for ``seconds`` (at least ``min_rounds``
    rounds); returns each backend's runs as ``(host seconds, scaled
    seconds)``.

    A round is one event run, then functional runs until they have used
    half as much host time as the event run did: the slower backend gets
    more of the budget, so neither median rests on a handful of runs.

    The probe runs between runs.  A run's scaled time is its host time
    times ``PROBE_NOMINAL_S`` over the mean of the probes on either side
    of it, which cancels most of the slowdown that other tenants of a
    shared host impose (see README.md, "Noise")."""
    runs: dict[str, list[tuple[float, float]]] = {backend: [] for backend in BACKENDS}
    before = probe_s()

    def run(backend: str) -> float:
        nonlocal before
        result, elapsed = timed_simulate(job, backend)
        check.check(job, backend, result)
        after = probe_s()
        runs[backend].append((elapsed, elapsed * 2 * PROBE_NOMINAL_S / (before + after)))
        before = after
        return elapsed

    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        event_s = run("event")
        spent = 0.0
        while spent < event_s / 2:
            spent += run("functional")
        rounds += 1
    return runs


def sim_counters(result: SimulationResult) -> dict[str, float]:
    """The exact simulated counts of one run.  A change that only makes
    the simulator faster must leave all of them equal."""
    apps = result.apps.values()

    def total(key: str) -> int:
        return sum(app.counters.get(key, 0) for app in apps)

    def rate(hit: str, miss: str) -> float:
        hits, misses = total(hit), total(miss)
        return hits / (hits + misses) if hits + misses else 0.0

    walks = result.walker_counters.get("walks_dispatched", 0)
    tracker = result.tracker_stats or {}
    return {
        "sim.cycles": result.total_cycles,
        "gpu.l1_hit_rate": rate("l1_hit", "l1_miss"),
        "gpu.l2_hit_rate": rate("l2_hit", "l2_miss"),
        "iommu.tlb_hit_rate": rate("iommu_hit", "iommu_miss"),
        "iommu.walks": walks,
        "iommu.walker_queue_wait_cycles": result.walker_queue_wait_mean * walks,
        "core.tracker_registrations": tracker.get("registrations", 0),
        "core.tracker_false_positives": tracker.get("false_positives", 0),
        "core.remote_hits": total("remote_hit"),
        "engine.events": result.events_executed,
    }


#: ``repro`` packages reported as their own per-layer row; the rest of
#: ``repro`` folds into ``other``, code outside ``repro`` into ``python``.
LAYER_PACKAGES = ("core", "structures", "iommu", "gpu", "engine", "policies",
                  "interconnect", "sim")

#: Hot modules reported on their own, inside their package's row too.
LAYER_MODULES = ("structures.cuckoo_filter", "core.least_tlb",
                 "structures.page_table", "gpu.gpu_device",
                 "engine.event_queue", "structures.tlb")


def layer_of(filename: str) -> tuple[str, str | None]:
    """``(package row, module row or None)`` for a profiled file."""
    parts = PurePath(filename).parts
    if "repro" not in parts or not filename.endswith(".py"):
        return "python", None
    last_repro = len(parts) - 1 - parts[::-1].index("repro")
    rel = parts[last_repro + 1:]
    package = rel[0] if len(rel) > 1 else "other"
    module = ".".join((*rel[:-1], PurePath(rel[-1]).stem))
    return (package if package in LAYER_PACKAGES else "other",
            module if module in LAYER_MODULES else None)


def fold_profile(profile: cProfile.Profile) -> dict[str, float]:
    """cProfile self time folded into ``<layer>.self_s`` rows."""
    rows = {f"{name}.self_s": 0.0
            for name in (*LAYER_PACKAGES, "other", "python", *LAYER_MODULES)}
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, _func), (_cc, _nc, self_time, _ct, _callers) in stats.items():
        package, module = layer_of(filename)
        rows[f"{package}.self_s"] += self_time
        if module is not None:
            rows[f"{module}.self_s"] += self_time
    rows["profile.total_self_s"] = sum(
        rows[f"{name}.self_s"] for name in (*LAYER_PACKAGES, "other", "python")
    )
    return rows


def profiled_event_run(job: SimJob, check: CrossCheck) -> tuple[dict[str, float], float]:
    """Run ``job`` once on the event backend under cProfile; returns the
    folded rows and the traced wall time."""
    profile = cProfile.Profile()
    gc.collect()
    start = time.perf_counter()
    profile.enable()
    result = simulate(job.config, job.workload, job.policy, backend="event")
    profile.disable()
    wall = time.perf_counter() - start
    check.check(job, "event", result)
    return fold_profile(profile), wall
