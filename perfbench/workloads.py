"""The benchmark's four workloads and the inputs each one generates.

Every input is a pure function of the workload name and ``--seed``: the
simulator only ever sees the generated workload objects or the
generated serve requests.

Three workloads drive ``simulate()`` directly, one per layer mix the
paper's two execution modes stress (see README.md for the profiles):

* ``st-least-tlb`` -- single-app multi-GPU, the GPUs share translations,
  so least-TLB's tracker and remote-sharing path run hot;
* ``fir-baseline`` -- a low-MPKI app under the baseline policy: almost
  every access hits in L1 and the tracker and IOMMU are bypassed, so a
  tracker or IOMMU change must leave it unchanged;
* ``w10-least-tlb`` -- multi-app multi-GPU, four TLB-intensive apps that
  share no pages contend for the IOMMU TLB and the walkers, so IOMMU
  victims spill into other GPUs' L2 TLBs.

``serve-mix`` drives the ``repro serve`` daemon over HTTP with a
closed loop of small functional-backend jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.config.presets import baseline_config
from repro.config.system import SystemConfig
from repro.workloads.multi_app import (
    build_multi_app_workload,
    build_single_app_workload,
)
from repro.workloads.trace import Workload

SERVE_WORKLOAD = "serve-mix"


@dataclass(frozen=True)
class SimWorkload:
    """One direct ``simulate()`` workload."""

    kind: str
    """``single`` (one app across all GPUs) or ``multi`` (one app per GPU)."""
    name: str
    policy: str
    scale: float


SIM_WORKLOADS: dict[str, SimWorkload] = {
    "st-least-tlb": SimWorkload("single", "ST", "least-tlb", 0.1),
    "fir-baseline": SimWorkload("single", "FIR", "baseline", 2.0),
    "w10-least-tlb": SimWorkload("multi", "W10", "least-tlb", 0.02),
}

WORKLOADS = (*SIM_WORKLOADS, SERVE_WORKLOAD)

#: The serve pool: every job is one of these apps under one of these
#: policies.  All ten Table 3 apps, so cheap (FIR, AES) and expensive
#: (MT, ST) cold jobs both reach the workers.
SERVE_APPS = ("FIR", "KM", "PR", "AES", "MT", "MM", "BS", "ST", "FFT", "SC")
SERVE_POLICIES = ("baseline", "least-tlb")
SERVE_SCALE = 0.05

#: Requests per run, 40 each of 1, 2 and 3 jobs (240 job slots): the 90th
#: latency percentile has 12 samples beyond it.
SERVE_REQUESTS = 120

#: Distinct job seeds per (app, policy) pair: 140 unique jobs, so the
#: other 100 job slots (42%) repeat an earlier job.
SERVE_JOBS_PER_PAIR = 7

#: The (app, policy) pair of serve-mix's reference job, timed directly
#: on both backends.  MM under least-tlb is the repository's reference
#: run (its zero-perturbation golden).
SERVE_REFERENCE = ("MM", "least-tlb")


@dataclass(frozen=True)
class SimJob:
    """One generated simulation input."""

    label: str
    config: SystemConfig
    workload: Workload
    policy: str

    @property
    def accesses(self) -> int:
        """Every access in the workload's traces, warm-up included: the
        replay work, fixed by the workload and not by the model."""
        return sum(self.workload.accesses_for(pid) for pid in self.workload.pids)


def sim_config(seed: int) -> SystemConfig:
    """The Table 2 baseline with its model seed derived from ``seed``,
    as ``repro run --seed`` does."""
    return baseline_config().derive(seed=seed)


def build_sim_job(kind: str, name: str, policy: str, scale: float,
                  seed: int) -> SimJob:
    """Generate one workload through the public builders."""
    config = sim_config(seed)
    builder = (build_single_app_workload if kind == "single"
               else build_multi_app_workload)
    workload = builder(name, config, scale=scale, seed=seed)
    return SimJob(f"{name}/{policy}@{scale:g}#{seed}", config, workload, policy)


def build_workload_job(name: str, seed: int, scale_factor: float = 1.0) -> SimJob:
    """The simulation input of a direct ``simulate()`` workload."""
    spec = SIM_WORKLOADS[name]
    return build_sim_job(spec.kind, spec.name, spec.policy,
                         spec.scale * scale_factor, seed)


def serve_job_key(job: dict[str, Any]) -> tuple[str, str, int]:
    return job["workload"], job["policy"], job["seed"]


def serve_requests(seed: int, scale_factor: float = 1.0) -> list[list[dict[str, Any]]]:
    """The serve-mix request list: each request is a list of 1-3 explicit
    functional-backend jobs.

    The shape is the same for every ``seed``, drawn once from a fixed
    generator: the request sizes, which (app, policy) pair fills each job
    slot, and which slots repeat an earlier job.  ``seed`` draws the job
    seeds, so each seed brings other traces but the same request shapes
    and the same amount of cold work.
    """
    shape = random.Random("serve-mix")
    sizes = [1, 2, 3] * (SERVE_REQUESTS // 3)
    shape.shuffle(sizes)
    slots = sum(sizes)
    fresh = [(app, policy, k) for app in SERVE_APPS for policy in SERVE_POLICIES
             for k in range(SERVE_JOBS_PER_PAIR)]
    shape.shuffle(fresh)
    repeat_at = set(shape.sample(range(1, slots), slots - len(fresh)))
    issued: list[tuple[str, str, int]] = []
    for slot in range(slots):
        issued.append(shape.choice(issued) if slot in repeat_at else fresh.pop())

    draw = random.Random(f"serve-mix:{seed}")
    job_seeds = {(app, policy): draw.sample(range(1, 10_000), SERVE_JOBS_PER_PAIR)
                 for app in SERVE_APPS for policy in SERVE_POLICIES}
    jobs = [{"workload": app, "policy": policy, "seed": job_seeds[app, policy][k],
             "scale": SERVE_SCALE * scale_factor, "backend": "functional"}
            for app, policy, k in issued]
    requests, start = [], 0
    for size in sizes:
        requests.append(jobs[start:start + size])
        start += size
    return requests


def unique_serve_jobs(requests: list[list[dict[str, Any]]]) -> list[dict[str, Any]]:
    """Every distinct job of ``requests``, in first-issue order."""
    seen: dict[tuple[str, str, int], dict[str, Any]] = {}
    for request in requests:
        for job in request:
            seen.setdefault(serve_job_key(job), job)
    return list(seen.values())


def serve_sim_job(job: dict[str, Any]) -> SimJob:
    """The direct-``simulate()`` equivalent of one serve job: the daemon
    derives the config seed from the job seed, as ``repro run`` does."""
    return build_sim_job("single", job["workload"], job["policy"],
                         job["scale"], job["seed"])


def reference_job(requests: list[list[dict[str, Any]]]) -> dict[str, Any]:
    """The :data:`SERVE_REFERENCE` job of the mix with the lowest seed."""
    return min((job for job in unique_serve_jobs(requests)
                if (job["workload"], job["policy"]) == SERVE_REFERENCE),
               key=lambda job: job["seed"])
