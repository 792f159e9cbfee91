"""Request canonicalization: service JSON → :class:`JobSpec` values.

The daemon's dedup guarantees rest entirely on one property: a request
canonicalizes to the **same cache fingerprint** the CLI computes for the
same simulation.  This module is where that property is enforced — both
the server (parsing submissions) and the tests (hypothesis round-trips
against directly-constructed :class:`~repro.sim.parallel.JobSpec`) go
through it.

A submission payload is JSON with either explicit job specs, bench
families, or both::

    {
      "client": "alice",                  // optional; header wins
      "jobs": [
        {"kind": "single", "workload": "MM", "policy": "least-tlb",
         "config": "baseline", "scale": 0.2, "seed": 0,
         "backend": "functional",
         "options": {"timeline": 5000}}
      ],
      "benches": ["fig02*"],              // glob/substring, like --only
      "scale": 0.2, "seed": 0,            // matrix-wide for "benches"
      "backend": "event"
    }

Semantics mirror the CLI exactly:

* explicit jobs follow ``repro run``: ``config`` names a preset
  (:data:`repro.config.presets.CONFIG_PRESETS`) and a non-null ``seed``
  derives the config seed, like ``repro run --seed`` does;
* ``benches`` follow ``repro bench``: families expand through
  :func:`repro.sim.parallel.expand_matrix` with the request's
  scale/seed/backend, producing fingerprints identical to a local
  ``repro bench`` of the same flags (shared persistent cache entries);
* ``kind`` may be omitted for explicit jobs — it is inferred from the
  workload name the same way ``repro run`` resolves one ("single" for a
  Table 3 application, "multi" for a Table 4/5 W-name, "mix" for a
  Table 6 mix name); ``alone`` and ``trace`` runs must name their kind
  explicitly — a ``trace`` job's workload is a path to a k6/mase trace
  file on the server's filesystem (fingerprinted by content digest), and
  its GPU ``split`` policy rides in ``options``.

Anything malformed raises :class:`RequestError` (→ HTTP 400) with a
message naming the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.config.presets import CONFIG_PRESETS, resolve_preset
from repro.policies import policy_names
from repro.sim.backends import BACKENDS
from repro.sim.parallel import JobSpec, expand_matrix, select_benches
from repro.telemetry import TelemetryConfig
from repro.workloads.applications import APPLICATIONS
from repro.workloads.ingest import SPLIT_POLICIES
from repro.workloads.multi_app import (
    MIX_WORKLOADS,
    MULTI_APP_WORKLOADS,
    SCALED_WORKLOADS,
)

#: Upper bound on jobs a single submission may expand to.
MAX_JOBS_PER_REQUEST = 2048

#: Label used for explicit (non-bench) jobs in task listings.
ADHOC_BENCH = "adhoc"

#: ``options`` keys accepted on a job spec, mapped to the ``simulate``
#: keyword they become.  Anything else is rejected — the service never
#: forwards arbitrary kwargs into the engine.
_OPTION_KEYS = {
    "record_stream": "record_iommu_stream",
    "snapshot_interval": "snapshot_interval",
    "timeline": "telemetry",
    "max_cycles": "max_cycles",
    "max_events": "max_events",
    "check_invariants": "check_invariants",
    "split": "split",
}


class RequestError(ValueError):
    """A malformed submission payload (→ HTTP 400)."""


@dataclass(frozen=True)
class ParsedRequest:
    """One canonicalized submission."""

    client: str | None
    """The ``client`` field of the payload (``None`` → caller identity
    falls back to the ``X-Repro-Client`` header, then ``"anon"``)."""

    pairs: tuple[tuple[str, JobSpec], ...]
    """``(bench_label, spec)`` pairs, matrix-style (pre-dedup)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def _as_int(value: Any, field: str, *, minimum: int | None = None) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{field} must be an integer, got {value!r}")
    if minimum is not None:
        _require(value >= minimum, f"{field} must be >= {minimum}, got {value}")
    return value


def _as_scale(value: Any, field: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{field} must be a number, got {value!r}")
    scale = float(value)
    _require(0.0 < scale <= 4.0, f"{field} must be in (0, 4], got {scale!r}")
    return scale


def infer_kind(workload: str) -> str:
    """The runner kind a workload name implies (``repro run`` semantics)."""
    upper = workload.upper()
    if upper in APPLICATIONS:
        return "single"
    if upper in MULTI_APP_WORKLOADS or upper in SCALED_WORKLOADS:
        return "multi"
    if upper in MIX_WORKLOADS:
        return "mix"
    raise RequestError(
        f"unknown workload {workload!r}: not a Table 3 application, a "
        "multi-app workload, or a mix name"
    )


def _validate_workload(kind: str, workload: str) -> str:
    upper = workload.upper()
    tables: dict[str, bool] = {
        "single": upper in APPLICATIONS,
        "alone": upper in APPLICATIONS,
        "multi": upper in MULTI_APP_WORKLOADS or upper in SCALED_WORKLOADS,
        "mix": upper in MIX_WORKLOADS,
        "trace": True,  # validated below: a server-local trace file path
    }
    _require(kind in tables, f"unknown job kind {kind!r}; choose from {sorted(tables)}")
    if kind == "trace":
        # ``trace`` jobs name a file on the *server's* filesystem; the
        # fingerprint is content-addressed, so the path is identity only
        # for locating the bytes.  Existence is the only submission-time
        # check (a stat, safe on the event loop — reading the file here
        # would block it); a malformed trace surfaces as the executing
        # task's typed TraceFormatError.
        _require(Path(workload).is_file(),
                 f"trace file {workload!r} does not exist on the server")
        return workload
    _require(tables[kind], f"workload {workload!r} is not a {kind!r} workload")
    return upper


def parse_options(payload: Any) -> tuple[tuple[str, Any], ...]:
    """Canonicalize a job's ``options`` object to ``JobSpec.options``."""
    if payload is None:
        return ()
    _require(isinstance(payload, dict), f"options must be an object, got {payload!r}")
    options: dict[str, Any] = {}
    for key, value in payload.items():
        _require(key in _OPTION_KEYS,
                 f"unknown option {key!r}; choose from {sorted(_OPTION_KEYS)}")
        if key in ("record_stream", "check_invariants"):
            _require(isinstance(value, bool), f"options.{key} must be a boolean")
            if value:
                options[_OPTION_KEYS[key]] = True
        elif key == "split":
            _require(isinstance(value, str) and value in SPLIT_POLICIES,
                     f"options.split must be one of {', '.join(SPLIT_POLICIES)}, "
                     f"got {value!r}")
            options["split"] = value
        elif key == "timeline":
            interval = _as_int(value, "options.timeline", minimum=0)
            if interval:
                options["telemetry"] = TelemetryConfig(
                    sample_rate=0.0, timeline_interval=interval
                )
        else:
            number = _as_int(value, f"options.{key}", minimum=0)
            if number:
                options[_OPTION_KEYS[key]] = number
    return tuple(sorted(options.items()))


def parse_job(payload: Any) -> JobSpec:
    """Canonicalize one explicit job object to a :class:`JobSpec`."""
    _require(isinstance(payload, dict), f"each job must be an object, got {payload!r}")
    unknown = set(payload) - {
        "kind", "workload", "policy", "config", "scale", "seed",
        "backend", "options",
    }
    _require(not unknown, f"unknown job field(s): {', '.join(sorted(unknown))}")
    workload = payload.get("workload")
    _require(isinstance(workload, str) and bool(workload),
             "job.workload is required and must be a string")

    kind = payload.get("kind")
    if kind is None:
        kind = infer_kind(workload)
    _require(isinstance(kind, str), f"job.kind must be a string, got {kind!r}")
    workload = _validate_workload(kind, workload)

    policy = payload.get("policy", "baseline")
    _require(policy in policy_names(),
             f"unknown policy {policy!r}; choose from {', '.join(policy_names())}")

    preset = payload.get("config", "baseline")
    _require(isinstance(preset, str) and preset in CONFIG_PRESETS,
             f"unknown config preset {preset!r}; choose from "
             f"{sorted(CONFIG_PRESETS)}")

    scale = _as_scale(payload.get("scale", 0.3), "job.scale")
    seed = payload.get("seed")
    if seed is not None:
        seed = _as_int(seed, "job.seed", minimum=0)
    backend = payload.get("backend", "event")
    _require(backend in BACKENDS,
             f"unknown backend {backend!r}; choose from {', '.join(BACKENDS)}")

    options = parse_options(payload.get("options"))
    if kind == "trace":
        # The split policy keys the cache fingerprint; default it
        # explicitly so served trace jobs canonicalize identically to
        # ``repro bench --trace`` (which always records it).
        if not any(name == "split" for name, _ in options):
            options = tuple(sorted((*options, ("split", "round-robin"))))
    else:
        _require(not any(name == "split" for name, _ in options),
                 "options.split only applies to trace jobs")

    # ``repro run`` semantics: an explicit seed derives the config seed
    # too, so a served job is bit-identical to the local command.
    config = resolve_preset(preset)
    if seed is not None:
        config = config.derive(seed=seed)
    # The Table 2 baseline stays ``None`` so explicit jobs share cache
    # fingerprints with the bench matrix's baseline-config specs.
    spec_config = None if preset == "baseline" and seed is None else config
    return JobSpec(
        kind=kind,
        workload=workload,
        policy=policy,
        config=spec_config,
        scale=scale,
        seed=seed,
        options=options,
        backend=backend,
    )


def parse_request(payload: Any) -> ParsedRequest:
    """Canonicalize one submission payload into ``(bench, spec)`` pairs."""
    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = set(payload) - {
        "client", "jobs", "benches", "scale", "seed", "backend", "options",
    }
    _require(not unknown, f"unknown request field(s): {', '.join(sorted(unknown))}")

    client = payload.get("client")
    if client is not None:
        _require(isinstance(client, str) and 0 < len(client) <= 64,
                 "client must be a non-empty string of at most 64 characters")

    pairs: list[tuple[str, JobSpec]] = []
    jobs = payload.get("jobs")
    if jobs is not None:
        _require(isinstance(jobs, list) and jobs, "jobs must be a non-empty array")
        for job in jobs:
            pairs.append((ADHOC_BENCH, parse_job(job)))

    benches = payload.get("benches")
    if benches is not None:
        _require(isinstance(benches, list) and benches,
                 "benches must be a non-empty array of family patterns")
        scale = _as_scale(payload.get("scale", 0.3), "scale")
        seed = payload.get("seed")
        if seed is not None:
            seed = _as_int(seed, "seed", minimum=0)
        backend = payload.get("backend", "event")
        _require(backend in BACKENDS,
                 f"unknown backend {backend!r}; choose from {', '.join(BACKENDS)}")
        names: list[str] = []
        for pattern in benches:
            _require(isinstance(pattern, str), "benches entries must be strings")
            try:
                matched = select_benches(pattern)
            except KeyError:
                raise RequestError(
                    f"bench pattern {pattern!r} matches no family"
                ) from None
            names.extend(n for n in matched if n not in names)
        pairs.extend(
            expand_matrix(names, scale=scale, seed=seed, backend=backend)
        )

    _require(bool(pairs), "request must carry jobs and/or benches")
    _require(len(pairs) <= MAX_JOBS_PER_REQUEST,
             f"request expands to {len(pairs)} jobs; the limit is "
             f"{MAX_JOBS_PER_REQUEST}")
    return ParsedRequest(client=client, pairs=tuple(pairs))


def spec_request(spec: JobSpec) -> dict[str, Any] | None:
    """A resubmittable request dict for ``spec``, or ``None``.

    Used by the drain journal so queued-but-unstarted work survives a
    SIGTERM as something a client can POST again.  A spec is
    representable when its config is ``None`` (the shared baseline) or
    matches a named preset (derived with the spec's seed, the way
    :func:`parse_job` builds it); anything else — e.g. a bench-matrix
    spec carrying a bespoke config — journals as ``None`` and is
    re-derivable from its bench family instead.
    """
    preset_name: str | None = None
    if spec.config is not None:
        for name in CONFIG_PRESETS:
            candidate = resolve_preset(name)
            if spec.seed is not None:
                candidate = candidate.derive(seed=spec.seed)
            if candidate == spec.config:
                preset_name = name
                break
        else:
            return None
    payload: dict[str, Any] = {
        "kind": spec.kind,
        "workload": spec.workload,
        "policy": spec.policy,
        "scale": spec.scale,
        "backend": spec.backend,
    }
    if preset_name is not None and preset_name != "baseline":
        payload["config"] = preset_name
    if spec.seed is not None:
        payload["seed"] = spec.seed
    options: dict[str, Any] = {}
    reverse = {v: k for k, v in _OPTION_KEYS.items()}
    for name, value in spec.options:
        key = reverse.get(name)
        if key is None:
            return None
        if name == "telemetry":
            options["timeline"] = getattr(value, "timeline_interval", 0)
        else:
            options[key] = value
    if options:
        payload["options"] = options
    return payload
