"""High-level simulation drivers.

Every experiment in the paper reduces to one of three runs:

* :func:`run_single_app` — one application strong-scaled across all GPUs;
* :func:`run_multi_app` — one application per GPU (W1–W16) or two per GPU
  via :func:`run_mix`;
* :func:`run_alone` — one application alone on one GPU (the weighted-
  speedup denominator).

``scale`` shortens traces proportionally without changing footprints; the
``REPRO_SCALE`` environment variable sets the default so the benchmark
suite can trade fidelity for wall-clock time uniformly.

Every driver accepts ``backend=`` (forwarded through ``simulate``): the
default ``"event"`` runs the full discrete-event engine, ``"functional"``
runs the exact-schedule replay of :mod:`repro.sim.backends` — bit-identical
results, a fraction of the wall-clock, but only within its supported scope
(it raises :class:`~repro.sim.backends.BackendUnsupported` elsewhere).
"""

from __future__ import annotations

import os
from typing import Any

from repro.config.presets import baseline_config
from repro.config.system import SystemConfig
from repro.sim.backends import run_functional, validate_backend
from repro.sim.results import SimulationResult
from repro.sim.system import MultiGPUSystem
from repro.workloads.multi_app import (
    build_alone_workload,
    build_mix_workload,
    build_multi_app_workload,
    build_single_app_workload,
)
from repro.workloads.trace import Workload

DEFAULT_SCALE_ENV = "REPRO_SCALE"


def default_scale() -> float:
    """Trace-length scale, from ``REPRO_SCALE`` (default 1.0)."""
    value = os.environ.get(DEFAULT_SCALE_ENV)
    if value is None:
        return 1.0
    scale = float(value)
    if scale <= 0:
        raise ValueError(f"{DEFAULT_SCALE_ENV} must be positive, got {value!r}")
    return scale


def simulate(
    config: SystemConfig,
    workload: Workload,
    policy: str = "baseline",
    *,
    backend: str = "event",
    max_cycles: int | None = None,
    max_events: int | None = None,
    **system_kwargs: Any,
) -> SimulationResult:
    """Build a system around ``workload`` and run it to completion."""
    backend = validate_backend(backend)
    if backend == "functional":
        return run_functional(
            config, workload, policy,
            max_cycles=max_cycles, max_events=max_events, **system_kwargs,
        )
    system = MultiGPUSystem(config, workload, policy, **system_kwargs)
    return system.run(max_cycles, max_events=max_events)


def run_single_app(
    app_name: str,
    config: SystemConfig | None = None,
    policy: str = "baseline",
    *,
    scale: float | None = None,
    seed: int | None = None,
    **system_kwargs: Any,
) -> SimulationResult:
    """Single-application-multi-GPU execution of one Table 3 application."""
    config = config or baseline_config()
    scale = default_scale() if scale is None else scale
    workload = build_single_app_workload(app_name, config, scale=scale, seed=seed)
    return simulate(config, workload, policy, **system_kwargs)


def run_multi_app(
    workload_name: str | tuple[str, ...],
    config: SystemConfig | None = None,
    policy: str = "baseline",
    *,
    scale: float | None = None,
    seed: int | None = None,
    **system_kwargs: Any,
) -> SimulationResult:
    """Multi-application-multi-GPU execution of a Table 4/5 workload."""
    config = config or baseline_config()
    scale = default_scale() if scale is None else scale
    workload = build_multi_app_workload(workload_name, config, scale=scale, seed=seed)
    return simulate(config, workload, policy, **system_kwargs)


def run_mix(
    workload_name: str | tuple[tuple[str, str], ...],
    config: SystemConfig | None = None,
    policy: str = "baseline",
    *,
    scale: float | None = None,
    seed: int | None = None,
    **system_kwargs: Any,
) -> SimulationResult:
    """Mixed-workload execution: two applications per GPU (Table 6)."""
    config = config or baseline_config()
    scale = default_scale() if scale is None else scale
    workload = build_mix_workload(workload_name, config, scale=scale, seed=seed)
    return simulate(config, workload, policy, **system_kwargs)


def run_alone(
    app_name: str,
    config: SystemConfig | None = None,
    policy: str = "baseline",
    *,
    scale: float | None = None,
    seed: int | None = None,
    **system_kwargs: Any,
) -> SimulationResult:
    """One application alone on GPU 0 — the IPC_alone reference run."""
    config = config or baseline_config()
    scale = default_scale() if scale is None else scale
    workload = build_alone_workload(app_name, config, scale=scale, seed=seed)
    return simulate(config, workload, policy, **system_kwargs)


def run_trace(
    trace_path: str,
    config: SystemConfig | None = None,
    policy: str = "baseline",
    *,
    scale: float | None = None,
    seed: int | None = None,  # accepted for driver-signature parity; unused
    split: str = "round-robin",
    trace_format: str | None = None,
    page_size: int | None = None,
    **system_kwargs: Any,
) -> SimulationResult:
    """Replay an ingested k6/mase trace file across the GPUs.

    The trace is streamed into a :class:`Workload` (see
    :mod:`repro.workloads.ingest`), split across GPUs by ``split``, and
    simulated like any synthetic workload — every policy and backend
    applies unchanged.  Ingestion is fully deterministic, so ``seed`` is
    ignored (it exists for signature parity with the other drivers and
    participates in cache fingerprints like everywhere else).

    The result's ``metadata`` records the trace digest, split policy,
    and ingest statistics for provenance.
    """
    from repro.workloads.ingest import ingest_trace

    config = config or baseline_config()
    scale = default_scale() if scale is None else scale
    del seed  # ingestion has no stochastic step
    ingested = ingest_trace(
        trace_path, config=config, split=split, fmt=trace_format,
        page_size=page_size, scale=scale,
    )
    result = simulate(config, ingested.workload, policy, **system_kwargs)
    result.metadata["trace"] = {
        "digest": ingested.stats.digest,
        "split": split,
        "format": ingested.stats.format,
        "records": ingested.stats.records,
        "unique_pages": ingested.stats.unique_pages,
        "path": str(trace_path),
    }
    return result
