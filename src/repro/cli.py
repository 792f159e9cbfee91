"""Command-line interface.

::

    repro list                                   # apps, workloads, policies
    repro run MM --policy least-tlb --scale 0.3  # one simulation
    repro run W8 --policy baseline --json out.json
    repro compare MM --policies baseline,least-tlb,tlb-probing
    repro characterize ST --scale 0.3            # MPKI, hit rates, reuse CDF
    repro bench --list                           # the experiment matrix
    repro bench --only 'fig1*' --jobs 4          # parallel, cached bench run
    repro ingest trace.k6.gz --json report.json  # classify a foreign trace
    repro run --trace trace.k6.gz --split address-hash
    repro bench --trace trace.k6.gz              # trace-backed bench family
    repro lint src/                              # determinism static analysis
    repro lint src/ --format json --output lint.json

Workload names resolve in order: a Table 3 application abbreviation
(single-application-multi-GPU), a Table 4/5 ``W``-name (one app per GPU),
a Table 6 mix name (two apps per GPU), a path to a ``.npz`` workload
file written by :func:`repro.workloads.trace_io.save_workload`, or a
path to a k6/mase memory trace streamed in by
:mod:`repro.workloads.ingest` (see ``docs/traces.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.config.presets import CONFIG_PRESETS
from repro.config.system import SystemConfig
from repro.engine.watchdog import SimulationStalledError
from repro.faults import FaultPlan, FaultPlanError, InvariantViolation
from repro.metrics.reuse_distance import fraction_within, reuse_cdf, reuse_distances
from repro.policies import policy_names
from repro.reporting import bar_chart, cdf_chart, comparison_table, save_result_json
from repro.sim.driver import simulate
from repro.sim.results import SimulationResult
from repro.sim.system import MultiGPUSystem
from repro.telemetry import TelemetryConfig, export_chrome_trace, flame_summary
from repro.workloads.applications import APPLICATIONS, classify_mpki
from repro.workloads.errors import TraceFormatError
from repro.workloads.ingest import SPLIT_POLICIES, ingest_trace, sniff_format
from repro.workloads.multi_app import (
    MIX_WORKLOADS,
    MULTI_APP_WORKLOADS,
    SCALED_WORKLOADS,
    build_mix_workload,
    build_multi_app_workload,
    build_single_app_workload,
)
from repro.workloads.trace import Workload
from repro.workloads.trace_io import load_workload, save_workload

def _cli_error(message: str) -> SystemExit:
    """A usage error: ``error:``-prefixed message on stderr, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _write_output(write, path: str) -> None:
    """Run ``write()`` (which writes ``path``); a missing directory or an
    unwritable path is a usage error (exit 2, ``error:`` prefix — the
    docs/robustness.md convention), not a traceback."""
    try:
        write()
    except OSError as exc:
        detail = exc.strerror or str(exc)
        raise _cli_error(f"cannot write {path!r}: {detail}") from None


def resolve_config(name: str) -> SystemConfig:
    """Build the named config preset or exit with the valid choices."""
    try:
        return CONFIG_PRESETS[name]()
    except KeyError:
        raise _cli_error(
            f"unknown config preset {name!r}; choose from {sorted(CONFIG_PRESETS)}"
        ) from None


def resolve_policy(name: str) -> str:
    """Validate a policy name or exit with the valid choices."""
    if name not in policy_names():
        raise _cli_error(
            f"unknown policy {name!r}; choose from {', '.join(policy_names())}"
        )
    return name


def resolve_workload(
    name: str, config: SystemConfig, scale: float, seed: int | None = None,
    *, split: str = "round-robin",
) -> Workload:
    """Resolve an application/workload name or a file path to a workload.

    Paths resolve by content: ``.npz`` archives reload through
    :func:`~repro.workloads.trace_io.load_workload`; anything else is
    streamed through the k6/mase trace ingester (``split`` picks the
    per-GPU interleaving policy).  Malformed files are usage errors
    (exit 2), never tracebacks.
    """
    upper = name.upper()
    if upper in APPLICATIONS:
        return build_single_app_workload(upper, config, scale=scale, seed=seed)
    if upper in MULTI_APP_WORKLOADS or upper in SCALED_WORKLOADS:
        return build_multi_app_workload(upper, config, scale=scale, seed=seed)
    if upper in MIX_WORKLOADS:
        return build_mix_workload(upper, config, scale=scale, seed=seed)
    path = Path(name)
    if path.exists():
        try:
            if path.suffix == ".npz":
                return load_workload(path)
            return ingest_trace(
                path, config=config, split=split, scale=scale
            ).workload
        except TraceFormatError as exc:
            raise _cli_error(str(exc)) from None
    raise _cli_error(
        f"unknown workload {name!r}: not an application, a workload name, "
        "or an existing .npz/trace file"
    )


def _print_result(result: SimulationResult) -> None:
    print(f"workload {result.workload_name} ({result.workload_kind}), "
          f"policy {result.policy_name}")
    print(f"total cycles {result.total_cycles:,}  "
          f"events {result.events_executed:,}")
    rows = [
        [a.app_name, a.exec_cycles, f"{a.ipc:.1f}", a.mpki,
         a.l2_hit_rate, a.iommu_hit_rate, a.remote_hit_rate]
        for a in result.apps.values()
    ]
    print(comparison_table(
        rows, ["app", "exec cycles", "IPC", "MPKI", "L2 hit", "IOMMU hit", "remote"]
    ))


def cmd_list(_args: argparse.Namespace) -> int:
    """``repro list``: applications, workloads, policies, presets."""
    print("applications (Table 3 + SC):")
    for name, spec in sorted(APPLICATIONS.items()):
        print(f"  {name:<4} {spec.full_name:<26} {spec.suite:<11} "
              f"{spec.pattern.pattern:<15} MPKI class {spec.mpki_class}")
    print("\nmulti-application workloads (Tables 4/5):")
    for table in (MULTI_APP_WORKLOADS, SCALED_WORKLOADS):
        for name, (apps, category) in table.items():
            print(f"  {name:<4} {category:<16} {', '.join(apps)}")
    print("\nmixed workloads (Table 6):")
    for name, (pairs, category) in MIX_WORKLOADS.items():
        print(f"  {name:<4} {category:<10} "
              + ", ".join(f"{a}+{b}" for a, b in pairs))
    print(f"\npolicies: {', '.join(policy_names())}")
    print(f"config presets: {', '.join(sorted(CONFIG_PRESETS))}")
    return 0


def _apply_seed(config: SystemConfig, seed: int | None) -> SystemConfig:
    return config if seed is None else config.derive(seed=seed)


def _profiled(call, *, sort: str = "cumulative", top: int = 25, dump: str | None = None):
    """Run ``call()`` under cProfile; print the top-N report afterwards."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return call()
    finally:
        profiler.disable()
        if dump:
            profiler.dump_stats(dump)
            print(f"profile dump written to {dump}", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats(sort).print_stats(top)


DEFAULT_TRACE_OUT = "repro-trace.json"


def _interpret_trace_flag(value: str | None) -> tuple[float | None, str | None]:
    """Split the overloaded ``repro run --trace`` flag.

    ``--trace`` historically takes a span-sampling *rate* (float, bare
    flag = 0.05) and now also accepts a trace file *path* for replaying
    an external k6/mase trace.  Returns ``(rate, path)`` with exactly one
    side set.  A numeric value is always a rate — a trace file whose
    name parses as a float needs a ``./`` prefix.
    """
    if value is None:
        return None, None
    try:
        return float(value), None
    except ValueError:
        return None, value


def _telemetry_config(
    trace_rate: float | None, timeline: int
) -> TelemetryConfig | None:
    """The telemetry config a command's flags ask for, or ``None`` for the
    zero-perturbation default (no hub is built at all)."""
    if trace_rate is None and timeline <= 0:
        return None
    try:
        return TelemetryConfig(
            sample_rate=trace_rate if trace_rate is not None else 0.0,
            timeline_interval=max(0, timeline),
        )
    except ValueError as exc:
        raise _cli_error(str(exc)) from None


def _print_telemetry(hub) -> None:
    """The per-site latency percentile table of a telemetry-enabled run."""
    if not hub.histograms:
        return
    rows = [
        [site, hist.count, hist.min, int(hist.p50), int(hist.p90),
         int(hist.p99), hist.max]
        for site, hist in sorted(hub.histograms.items())
    ]
    print("\nlatency sites (cycles):")
    print(comparison_table(
        rows, ["site", "samples", "min", "p50", "p90", "p99", "max"]
    ))
    if hub.traces:
        print(f"\ntraced {len(hub.traces)} requests "
              f"({sum(len(t) for t in hub.traces)} spans)")


def _server_options(args: argparse.Namespace) -> dict:
    """The ``options`` object of a served job, from ``repro run`` flags."""
    options: dict = {}
    if args.record_stream:
        options["record_stream"] = True
    if args.snapshot_interval:
        options["snapshot_interval"] = args.snapshot_interval
    if args.timeline:
        options["timeline"] = args.timeline
    if args.max_cycles:
        options["max_cycles"] = args.max_cycles
    if args.max_events:
        options["max_events"] = args.max_events
    if args.check_invariants:
        options["check_invariants"] = True
    return options


def _run_via_server(args: argparse.Namespace) -> int:
    """``repro run --server``: submit to a daemon instead of simulating."""
    from repro.reporting.export import result_from_dict
    from repro.serve.client import ServeClient, ServeClientError

    trace_rate, trace_path = _interpret_trace_flag(args.trace)
    for flag, unsupported in (
        ("--profile", args.profile),
        ("--trace RATE", trace_rate is not None),
        ("--faults", args.faults is not None),
    ):
        if unsupported:
            raise _cli_error(f"{flag} is not supported in --server mode")
    job: dict = {
        "policy": args.policy,
        "config": args.config,
        "scale": args.scale,
        "backend": args.backend,
    }
    if trace_path is not None:
        # The daemon reads the file itself, so the path must be visible
        # on the *server's* filesystem — resolve it so a localhost daemon
        # started from another directory still finds it.
        job["kind"] = "trace"
        job["workload"] = str(Path(trace_path).resolve())
    else:
        upper = args.workload.upper()
        if not (upper in APPLICATIONS or upper in MULTI_APP_WORKLOADS
                or upper in SCALED_WORKLOADS or upper in MIX_WORKLOADS):
            raise _cli_error(
                f"--server mode needs a named workload or --trace PATH, got "
                f"{args.workload!r} (.npz paths only exist on this machine)"
            )
        job["workload"] = upper
    if args.seed is not None:
        job["seed"] = args.seed
    options = _server_options(args)
    if trace_path is not None:
        options["split"] = args.split
    if options:
        job["options"] = options

    client = ServeClient(args.server, client_name=args.client)
    try:
        submitted = client.submit({"jobs": [job]})
        body = client.wait(submitted["job"], timeout=args.wait_timeout)
    except ServeClientError as exc:
        if exc.status == 400:
            raise _cli_error(str(exc)) from None
        if exc.status == 429:
            retry = exc.retry_after
            print(
                f"error: server over capacity: {exc}"
                + (f" (retry after {retry:.0f}s)" if retry else ""),
                file=sys.stderr,
            )
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    task = body["tasks"][0]
    if task["state"] != "done":
        error = task.get("error") or {}
        print(
            f"error: served job failed "
            f"[{error.get('class', 'unknown')}]: {error.get('message', '')}",
            file=sys.stderr,
        )
        return 3
    result = result_from_dict(task["result"])
    _print_result(result)
    print(f"\nserved by {args.server} "
          f"(job {body['job']}, source: {task['source']}, "
          f"{task['seconds']:.2f}s server-side)")
    if args.json:
        path = save_result_json(result, args.json, include_stream=args.record_stream)
        print(f"wrote {path}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one simulation, optionally exported to JSON."""
    trace_rate, trace_path = _interpret_trace_flag(args.trace)
    if trace_path is not None and args.workload is not None:
        raise _cli_error(
            "give a workload name or --trace PATH, not both "
            f"(got {args.workload!r} and --trace {trace_path!r})"
        )
    if trace_path is None and args.workload is None:
        raise _cli_error("a workload name (or --trace PATH) is required")
    if trace_path is not None and not Path(trace_path).exists():
        raise _cli_error(f"--trace: no such file: {trace_path!r}")
    if args.server:
        return _run_via_server(args)
    config = _apply_seed(resolve_config(args.config), args.seed)
    policy = resolve_policy(args.policy)
    try:
        # Parsed eagerly so a typo in the plan fails before the run starts.
        faults = FaultPlan.parse(args.faults) if args.faults is not None else None
    except FaultPlanError as exc:
        raise _cli_error(str(exc)) from None
    if faults is not None and faults.runner_specs():
        sites = ", ".join(s.site for s in faults.runner_specs())
        raise _cli_error(
            f"--faults: {sites} are runner-level chaos sites; use "
            "`repro bench --chaos` instead"
        )
    telemetry = _telemetry_config(trace_rate, args.timeline)
    ingest_stats = None
    if trace_path is not None and Path(trace_path).suffix != ".npz":
        # Ingested directly (not via resolve_workload) so the stats can
        # stamp the result with trace provenance, like run_trace does.
        try:
            ingested = ingest_trace(
                trace_path, config=config, split=args.split, scale=args.scale
            )
        except TraceFormatError as exc:
            raise _cli_error(str(exc)) from None
        workload, ingest_stats = ingested.workload, ingested.stats
    else:
        workload = resolve_workload(
            trace_path if trace_path is not None else args.workload,
            config, args.scale, args.seed, split=args.split,
        )

    system: MultiGPUSystem | None = None
    if args.backend == "functional":
        from repro.sim.backends import BackendUnsupported, run_functional

        def execute() -> SimulationResult:
            try:
                return run_functional(
                    config, workload, policy,
                    max_cycles=args.max_cycles,
                    max_events=args.max_events,
                    record_iommu_stream=args.record_stream,
                    snapshot_interval=args.snapshot_interval,
                    faults=faults,
                    check_invariants=args.check_invariants,
                    telemetry=telemetry,
                )
            except BackendUnsupported as exc:
                raise _cli_error(f"--backend {args.backend}: {exc}") from None
    else:
        # Built as a system (not via ``simulate``) so the telemetry hub
        # stays reachable for the Chrome-trace export after the run.
        system = MultiGPUSystem(
            config, workload, policy,
            record_iommu_stream=args.record_stream,
            snapshot_interval=args.snapshot_interval,
            faults=faults,
            check_invariants=args.check_invariants,
            telemetry=telemetry,
        )

        def execute() -> SimulationResult:
            return system.run(args.max_cycles, max_events=args.max_events)

    try:
        if args.profile:
            result = _profiled(execute, dump=args.profile_dump)
        else:
            result = execute()
    except SimulationStalledError as exc:
        print(f"error: simulation stalled: {exc}", file=sys.stderr)
        for key, value in sorted(exc.diagnostics.items()):
            print(f"  {key}: {value}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if ingest_stats is not None:
        result.metadata["trace"] = {
            "digest": ingest_stats.digest,
            "split": ingest_stats.split,
            "format": ingest_stats.format,
            "records": ingest_stats.records,
            "unique_pages": ingest_stats.unique_pages,
            "path": str(trace_path),
        }
    _print_result(result)
    if args.check_invariants:
        print(f"invariants OK ({result.metadata.get('invariant_checks', 0)} checks)")
    if system is not None and system.telemetry is not None:
        _print_telemetry(system.telemetry)
    if system is not None and trace_rate is not None:
        out = args.trace_out or DEFAULT_TRACE_OUT
        path = export_chrome_trace(
            system.telemetry.traces, out,
            run_info={
                "workload": result.workload_name,
                "policy": result.policy_name,
                "sample_rate": trace_rate,
            },
        )
        print(f"wrote Chrome trace {path} "
              f"({len(system.telemetry.traces)} traces)")
    if args.json:
        path = save_result_json(result, args.json, include_stream=args.record_stream)
        print(f"\nwrote {path}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: a traced run, Chrome-trace export, flame summary."""
    config = _apply_seed(resolve_config(args.config), args.seed)
    policy = resolve_policy(args.policy)
    telemetry = _telemetry_config(args.rate, args.timeline)
    assert telemetry is not None  # --rate always set (default 0.05)
    if telemetry.stride == 0:
        raise _cli_error("--rate must be > 0 to collect traces")
    workload = resolve_workload(args.workload, config, args.scale, args.seed)
    system = MultiGPUSystem(config, workload, policy, telemetry=telemetry)
    try:
        result = system.run(max_events=args.max_events)
    except SimulationStalledError as exc:
        print(f"error: simulation stalled: {exc}", file=sys.stderr)
        return 3
    hub = system.telemetry
    print(f"workload {result.workload_name}, policy {result.policy_name}: "
          f"{result.total_cycles:,} cycles, {len(hub.traces)} traces sampled "
          f"at rate {args.rate}")
    print()
    print(flame_summary(hub.traces))
    _print_telemetry(hub)
    _write_output(
        lambda: export_chrome_trace(
            hub.traces, args.out,
            run_info={
                "workload": result.workload_name,
                "policy": result.policy_name,
                "sample_rate": args.rate,
            },
        ),
        args.out,
    )
    print(f"\nwrote Chrome trace {args.out} — open in chrome://tracing or "
          "https://ui.perfetto.dev")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: run several policies and chart the speedups."""
    config = _apply_seed(resolve_config(args.config), args.seed)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise _cli_error("no policies given")
    for policy in policies:
        resolve_policy(policy)
    results = {}
    for policy in policies:
        workload = resolve_workload(args.workload, config, args.scale, args.seed)
        results[policy] = simulate(config, workload, policy)
    base = results[policies[0]]
    print(f"workload {args.workload}, normalized to {policies[0]}:\n")
    print(bar_chart(
        [(policy, results[policy].speedup_vs(base)) for policy in policies],
        baseline=1.0,
    ))
    print()
    rows = [
        [policy, r.exec_cycles,
         sum(a.iommu_hit_rate for a in r.apps.values()) / len(r.apps),
         sum(a.remote_hit_rate for a in r.apps.values()) / len(r.apps)]
        for policy, r in results.items()
    ]
    print(comparison_table(rows, ["policy", "exec cycles", "IOMMU hit", "remote hit"]))
    if args.json:
        payload = {
            "workload": args.workload,
            "scale": args.scale,
            "reference": policies[0],
            "policies": {
                policy: {
                    "exec_cycles": r.exec_cycles,
                    "total_cycles": r.total_cycles,
                    "speedup": r.speedup_vs(base),
                    "mean_iommu_hit_rate": r.mean_over_apps("iommu_hit_rate"),
                    "mean_remote_hit_rate": r.mean_over_apps("remote_hit_rate"),
                    "mean_l2_hit_rate": r.mean_over_apps("l2_hit_rate"),
                    "mean_translation_latency":
                        r.mean_over_apps("mean_translation_latency"),
                }
                for policy, r in results.items()
            },
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    """``repro characterize``: hit rates, MPKI, reuse-distance CDF."""
    config = _apply_seed(resolve_config(args.config), args.seed)
    workload = resolve_workload(args.workload, config, args.scale, args.seed)
    result = simulate(config, workload, "baseline", record_iommu_stream=True)
    _print_result(result)
    distances = reuse_distances(result.iommu_stream)
    finite = (distances >= 0).sum()
    print(f"\nIOMMU reuse distances ({finite:,} reuses of "
          f"{len(result.iommu_stream):,} requests):")
    capacity = config.iommu.tlb.num_entries
    print(cdf_chart(reuse_cdf(distances), markers={capacity: "IOMMU TLB capacity"}))
    captured = fraction_within(distances, capacity)
    print(f"\ncapturable by the {capacity}-entry IOMMU TLB: {captured:.1%}")
    if args.json:
        payload = {
            "workload": args.workload,
            "scale": args.scale,
            "iommu_requests": len(result.iommu_stream),
            "finite_reuses": int(finite),
            "iommu_tlb_capacity": capacity,
            "capturable_fraction": captured,
            "apps": {
                str(a.pid): {
                    "app_name": a.app_name,
                    "mpki": a.mpki,
                    "l1_hit_rate": a.l1_hit_rate,
                    "l2_hit_rate": a.l2_hit_rate,
                    "iommu_hit_rate": a.iommu_hit_rate,
                }
                for a in result.apps.values()
            },
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """``repro ingest``: stream a k6/mase trace in and calibrate it.

    The calibration report places the foreign trace against the paper's
    applications — footprint, MPKI class, sharing degree, read/write mix,
    reuse-distance capture — so it can be slotted into the fig02–fig26
    bench harness (``repro bench --trace``) with known characteristics.
    """
    import math

    from repro.metrics.sharing import shared_fraction, sharing_degrees

    config = _apply_seed(resolve_config(args.config), args.seed)
    try:
        ingested = ingest_trace(
            args.trace, config=config, split=args.split, fmt=args.format,
            scale=args.scale, name=args.name,
        )
    except (TraceFormatError, ValueError) as exc:
        raise _cli_error(str(exc)) from None
    stats = ingested.stats
    workload = ingested.workload

    compression = ", gzip" if stats.compressed else ""
    print(f"ingested {stats.path} ({stats.format}{compression}, "
          f"{_human_bytes(stats.file_bytes)})")
    rows = [
        ["records", f"{stats.records:,}"],
        ["page runs", f"{stats.runs:,}"],
        ["unique pages", f"{stats.unique_pages:,} "
                         f"({_human_bytes(stats.unique_pages * stats.page_size)})"],
        ["read fraction", f"{stats.read_fraction:.1%}"],
        ["cycle span", f"{stats.min_cycle:,} – {stats.max_cycle:,}"],
        ["split", f"{stats.split} over {len(workload.gpus_for(1))} GPU(s)"],
        ["digest", f"sha256:{stats.digest[:16]}…"],
    ]
    if stats.non_monotonic:
        rows.append(["non-monotonic cycles", f"{stats.non_monotonic:,} (clamped)"])
    print(comparison_table(rows, ["property", "value"]))

    calibration: dict | None = None
    if not args.no_calibrate:
        result = simulate(config, workload, "baseline", record_iommu_stream=True)
        mean_mpki = result.mean_over_apps("mpki")
        mpki_class = classify_mpki(mean_mpki)
        # Closest Table 3 application by log-MPKI distance (MPKI spans
        # three orders of magnitude, so ratio distance, not absolute).
        def log_distance(paper_mpki: float) -> float:
            return abs(math.log(mean_mpki + 1e-6) - math.log(paper_mpki + 1e-6))

        closest_name, closest = min(
            sorted(APPLICATIONS.items()),
            key=lambda item: log_distance(item[1].paper_mpki),
        )
        degrees = sharing_degrees(workload)
        shared = shared_fraction(workload)
        distances = reuse_distances(result.iommu_stream)
        capacity = config.iommu.tlb.num_entries
        captured = fraction_within(distances, capacity)

        print("\ncalibration (baseline policy):")
        print(f"  MPKI {mean_mpki:.3f} -> class {mpki_class} "
              f"(closest paper app: {closest_name}, "
              f"paper MPKI {closest.paper_mpki:.3f}, class {closest.mpki_class})")
        print(f"  pages shared by >=2 GPUs: {shared:.1%}  "
              f"(degrees: "
              + ", ".join(f"{k}:{f:.1%}" for k, f in sorted(degrees.items()))
              + ")")
        print(f"  IOMMU hit rate {result.mean_over_apps('iommu_hit_rate'):.1%}, "
              f"L2 hit rate {result.mean_over_apps('l2_hit_rate'):.1%}")
        print(f"  capturable by the {capacity}-entry IOMMU TLB: {captured:.1%}")
        calibration = {
            "mean_mpki": mean_mpki,
            "mpki_class": mpki_class,
            "closest_app": closest_name,
            "closest_app_paper_mpki": closest.paper_mpki,
            "closest_app_class": closest.mpki_class,
            "shared_fraction": shared,
            "sharing_degrees": {str(k): f for k, f in sorted(degrees.items())},
            "mean_iommu_hit_rate": result.mean_over_apps("iommu_hit_rate"),
            "mean_l2_hit_rate": result.mean_over_apps("l2_hit_rate"),
            "iommu_requests": len(result.iommu_stream),
            "iommu_tlb_capacity": capacity,
            "capturable_fraction": captured,
        }

    if args.out:
        _write_output(lambda: save_workload(workload, args.out), args.out)
        print(f"\nwrote workload archive {args.out}")
    if args.json:
        payload = {"trace": stats.to_dict(), "calibration": calibration}
        _write_output(
            lambda: Path(args.json).write_text(json.dumps(payload, indent=2) + "\n"),
            args.json,
        )
        print(f"wrote {args.json}")
    return 0


def _bench_via_server(args: argparse.Namespace) -> int:
    """``repro bench --server``: run the matrix on a daemon."""
    from repro.serve.client import ServeClient, ServeClientError

    for flag, unsupported in (
        ("--chaos", args.chaos is not None),
        ("--profile", args.profile),
        ("--resume", args.resume),
        ("--clear-cache", args.clear_cache),
        ("--no-cache", args.no_cache),
        ("--cache-dir", args.cache_dir is not None),
        ("--jobs", args.jobs is not None),
    ):
        if unsupported:
            raise _cli_error(
                f"{flag} is a local-runner flag; the daemon owns its own "
                "cache and worker pool in --server mode"
            )
    payload: dict = {
        "benches": [args.only or "*"],
        "scale": args.scale,
        "backend": args.backend,
    }
    if args.seed is not None:
        payload["seed"] = args.seed

    client = ServeClient(args.server, client_name=args.client)
    start = time.perf_counter()
    try:
        submitted = client.submit(payload)
        if args.verbose:
            for event in client.events(submitted["job"]):
                print(f"  {event.get('event')}: "
                      f"{event.get('label', event.get('state', ''))}",
                      file=sys.stderr)
        body = client.wait(submitted["job"], timeout=args.wait_timeout)
    except ServeClientError as exc:
        if exc.status == 400:
            raise _cli_error(str(exc)) from None
        if exc.status == 429:
            retry = exc.retry_after
            print(
                f"error: server over capacity: {exc}"
                + (f" (retry after {retry:.0f}s)" if retry else ""),
                file=sys.stderr,
            )
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start

    status = client.job(submitted["job"])
    rows = [
        [t["label"], t["state"], t["source"],
         f"{t.get('seconds', 0.0):.2f}s" if t["state"] in ("done", "failed") else "-"]
        for t in status["tasks"]
    ]
    print(comparison_table(rows, ["job", "state", "source", "time"]))
    dedup = status["dedup"]
    counts = status["counts"]
    print(
        f"\nserved by {args.server}: {counts['total']} unique jobs "
        f"({dedup['cache']} cache hits, {dedup['inflight']} joined in-flight, "
        f"{dedup['matrix']} matrix dups, {dedup['new']} executed) "
        f"in {wall:.2f}s wall"
    )
    if args.json:
        _write_output(
            lambda: Path(args.json).write_text(
                json.dumps({"status": status, "results": body}, indent=2) + "\n"
            ),
            args.json,
        )
        print(f"wrote {args.json}")
    failed = counts["failed"]
    if failed:
        print(f"error: {failed} served job(s) failed", file=sys.stderr)
        return 3
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: the parallel, cached, resilient matrix runner.

    Exit codes: 0 on success (including degraded runs with partial
    failures), 2 on usage errors, 3 when a bench family ends with zero
    usable results, 130 on Ctrl-C (workers killed, journal flushed —
    rerun with ``--resume``).
    """
    # Imported here so plain ``repro run`` never pays for the runner.
    import fnmatch

    from repro.faults.plan import FaultPlan, FaultPlanError
    from repro.sim.cache import ResultCache
    from repro.sim.parallel import (
        BENCH_MATRIX,
        default_workers,
        expand_matrix,
        families_without_results,
        matrix_summary,
        run_matrix,
        select_benches,
        trace_bench_pairs,
        trace_family,
    )
    from repro.sim.resilience import ChaosState, ResiliencePolicy, SweepJournal

    family = None
    if args.trace:
        if args.server:
            raise _cli_error(
                "--trace is a local-runner flag (the file lives on this "
                "machine); submit one trace job with "
                "`repro run --server URL --trace PATH` instead"
            )
        if not Path(args.trace).is_file():
            raise _cli_error(f"--trace: no such file: {args.trace!r}")
        try:
            sniff_format(args.trace)
        except TraceFormatError as exc:
            raise _cli_error(str(exc)) from None
        family = trace_family(args.trace)

    def matches_only(name: str) -> bool:
        # select_benches' matching rule, applied to the dynamic family.
        return (args.only is None or fnmatch.fnmatch(name, args.only)
                or args.only in name)

    try:
        benches = select_benches(args.only)
    except KeyError:
        if family is not None and matches_only(family):
            benches = []  # --only selects the trace family alone
        else:
            choices = list(BENCH_MATRIX) + ([family] if family else [])
            raise _cli_error(
                f"--only {args.only!r} matches no bench; choose from "
                f"{', '.join(choices)}"
            ) from None
    include_trace = family is not None and matches_only(family)

    if args.list:
        rows = [
            [name, len(BENCH_MATRIX[name](args.scale, args.seed))]
            for name in benches
        ]
        if include_trace:
            rows.append([
                family,
                len(trace_bench_pairs(args.trace, scale=args.scale,
                                      seed=args.seed, split=args.split)),
            ])
        print(comparison_table(rows, ["bench", "jobs"]))
        return 0

    if args.server:
        return _bench_via_server(args)

    if args.jobs is not None and args.jobs < 1:
        raise _cli_error(f"--jobs must be >= 1, got {args.jobs}")
    if args.retries < 0:
        raise _cli_error(f"--retries must be >= 0, got {args.retries}")
    if args.job_timeout is not None and args.job_timeout <= 0:
        raise _cli_error(f"--job-timeout must be positive, got {args.job_timeout:g}")
    if args.resume and args.no_cache:
        raise _cli_error("--resume needs the result cache (drop --no-cache)")
    try:
        chaos = ChaosState.from_plan(FaultPlan.parse(args.chaos)) if args.chaos else None
    except FaultPlanError as exc:
        raise _cli_error(f"--chaos: {exc}") from None
    if args.profile and chaos is not None and chaos.needs_subprocess():
        raise _cli_error(
            "--profile runs in-process; kill-worker/slow-worker chaos needs "
            "worker processes"
        )

    cache = ResultCache.from_env(args.cache_dir)
    if args.no_cache:
        cache.enabled = False
    if args.clear_cache:
        removed = cache.clear()
        print(f"cleared {removed} cache entries from {cache.cache_dir}")

    pairs = expand_matrix(
        benches, scale=args.scale, seed=args.seed, backend=args.backend
    )
    if include_trace:
        pairs = pairs + trace_bench_pairs(
            args.trace, scale=args.scale, seed=args.seed, split=args.split,
            backend=args.backend,
        )
    workers = args.jobs if args.jobs is not None else default_workers()
    if args.profile:
        workers = 1  # keep the whole run in-process so the profile sees it

    policy = ResiliencePolicy(
        retries=args.retries,
        hard_timeout=args.job_timeout,
        backoff_seed=args.seed if args.seed is not None else 0,
    )
    journal = SweepJournal.for_cache(cache) if cache.enabled else None

    def note(message: str) -> None:
        if args.verbose:
            print(message, file=sys.stderr)

    start = time.perf_counter()

    def execute():
        return run_matrix(
            pairs, workers=workers, cache=cache, progress=note,
            policy=policy, chaos=chaos, journal=journal, resume=args.resume,
        )

    from repro.sim.backends import BackendUnsupported

    try:
        if args.profile:
            outcomes = _profiled(execute, dump=args.profile_dump)
        else:
            outcomes = execute()
    except BackendUnsupported as exc:
        raise _cli_error(f"--backend {args.backend}: {exc}") from None
    except KeyboardInterrupt:
        print(
            "\ninterrupted: workers stopped, journal flushed — rerun with "
            "`repro bench --resume` to continue this sweep",
            file=sys.stderr,
        )
        return 130
    wall = time.perf_counter() - start

    summary = matrix_summary(outcomes)
    rows = [
        [
            o.spec.label,
            ("hit" if o.cached
             else f"{o.seconds:.2f}s" if o.result is not None
             else o.status),
            o.events,
            f"{o.events_per_sec:,.0f}" if not o.cached and o.result is not None else "-",
            ",".join(o.benches[:2]) + ("…" if len(o.benches) > 2 else ""),
        ]
        for o in sorted(outcomes, key=lambda o: o.spec.label)
    ]
    print(comparison_table(rows, ["job", "time", "events", "events/s", "benches"]))
    print(
        f"\nmatrix: {len(pairs)} jobs -> {summary['unique_jobs']} unique "
        f"({summary['cache_hits']} cache hits, {summary['simulated']} simulated, "
        f"{summary['failed']} failed) in {wall:.2f}s wall"
    )
    if summary["simulated"]:
        print(
            f"simulated {summary['simulated_events']:,} events at "
            f"{summary['events_per_sec']:,.0f} events/s aggregate "
            f"({workers} workers)"
        )
    if summary["retries"] or summary["timed_out"] or summary["soft_timeouts"]:
        print(
            f"resilience: {summary['retries']} retries, "
            f"{summary['worker_crashes']} worker crashes, "
            f"{summary['timed_out']} timed out, "
            f"{summary['soft_timeouts']} past soft deadline"
        )
    for failure in summary["failed_jobs"]:
        print(
            f"failed: {failure['label']} [{failure['status']}] "
            f"{failure['error_class']}: {failure['error']} "
            f"({failure['attempts']} attempts)",
            file=sys.stderr,
        )
    print(f"cache: {cache.describe()}")
    if args.json:
        payload = {
            "wall_seconds": wall,
            "workers": workers,
            "jobs": len(pairs),
            **summary,
            "chaos": {
                "plan": chaos.plan.describe() if chaos is not None else None,
                "injected": dict(chaos.injected) if chaos is not None else {},
            },
            "outcomes": [
                {
                    "label": o.spec.label,
                    "digest": o.digest,
                    "cached": o.cached,
                    "status": o.status,
                    "attempts": o.attempts,
                    "soft_timed_out": o.soft_timed_out,
                    "seconds": o.seconds,
                    "events": o.events,
                    "total_cycles": o.total_cycles,
                    "benches": list(o.benches),
                }
                for o in outcomes
            ],
        }
        _write_output(
            lambda: Path(args.json).write_text(json.dumps(payload, indent=2) + "\n"),
            args.json,
        )
        print(f"wrote {args.json}")
    empty = families_without_results(pairs, outcomes)
    if empty:
        print(
            f"error: no usable results for {len(empty)} bench "
            f"famil{'y' if len(empty) == 1 else 'ies'}: {', '.join(sorted(empty))}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the async job daemon (see docs/service.md).

    Runs until SIGTERM/SIGINT or ``POST /v1/admin/drain``, then drains
    gracefully: running jobs finish, queued jobs are journalled, exit 0.
    """
    from repro.serve.api import run_server
    from repro.serve.app import ServeSettings

    if args.workers < 1:
        raise _cli_error(f"--workers must be >= 1, got {args.workers}")
    if args.max_pending < 1:
        raise _cli_error(f"--max-pending must be >= 1, got {args.max_pending}")
    if args.retries < 0:
        raise _cli_error(f"--retries must be >= 0, got {args.retries}")
    if args.job_timeout is not None and args.job_timeout <= 0:
        raise _cli_error(f"--job-timeout must be positive, got {args.job_timeout:g}")
    if args.default_weight <= 0:
        raise _cli_error(f"--default-weight must be > 0, got {args.default_weight:g}")
    weights: dict[str, float] = {}
    for spec in args.weight or []:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            raise _cli_error(f"--weight expects CLIENT=WEIGHT, got {spec!r}")
        try:
            weight = float(value)
        except ValueError:
            raise _cli_error(f"--weight {spec!r}: {value!r} is not a number") from None
        if weight <= 0:
            raise _cli_error(f"--weight {spec!r}: weight must be > 0")
        weights[name] = weight

    settings = ServeSettings(
        host=args.host, port=args.port, workers=args.workers,
        cache_dir=args.cache_dir, max_pending=args.max_pending,
        default_weight=args.default_weight, weights=weights,
        retries=args.retries, job_timeout=args.job_timeout,
        verbose=args.verbose,
    )
    try:
        return run_server(settings)
    except OSError as exc:
        detail = exc.strerror or str(exc)
        raise _cli_error(f"cannot serve on {args.host}:{args.port}: {detail}") from None


def _human_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{int(value):,} B"
        value /= 1024
    return f"{int(value):,} B"  # pragma: no cover - unreachable


def cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache``: inspect and maintain the persistent result cache."""
    from repro.sim.cache import ResultCache, cache_stats

    cache = ResultCache.from_env(args.cache_dir)

    if args.cache_command == "stats":
        if args.stamp:
            cache.stamp_stats()
        stats = cache_stats(cache)
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        state = "enabled" if stats["enabled"] else "disabled (REPRO_NO_CACHE)"
        print(f"cache {stats['dir']} ({state})")
        print(f"  entries: {stats['entries']} ({_human_bytes(stats['bytes'])})")
        print(f"  quarantined (*.corrupt): {stats['corrupt_entries']}")
        print(f"  stale temp files: {stats['stale_tmp_files']}")
        since = stats["since_stamp"]
        rate = since["hit_rate"]
        print(
            f"  since last stamp: {since['hits']} hits / "
            f"{since['lookups']} lookups"
            + (f" ({rate:.1%} hit rate)" if rate is not None else "")
            + f", {since['stores']} stores, {since['corruptions']} corruptions"
        )
        if args.stamp:
            print("  counters stamped: a new measurement window starts now")
        return 0

    if args.cache_command == "prune":
        if args.older_than is None and args.max_bytes is None:
            raise _cli_error(
                "prune needs --older-than DAYS and/or --max-bytes N"
            )
        if args.older_than is not None and args.older_than < 0:
            raise _cli_error(
                f"--older-than must be >= 0 days, got {args.older_than:g}"
            )
        if args.max_bytes is not None and args.max_bytes < 0:
            raise _cli_error(f"--max-bytes must be >= 0, got {args.max_bytes}")
        summary = cache.prune(
            older_than_days=args.older_than, max_bytes=args.max_bytes
        )
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        print(
            f"pruned {summary['removed']} entries "
            f"({_human_bytes(summary['bytes_freed'])} freed), "
            f"kept {summary['kept']} ({_human_bytes(summary['bytes_kept'])})"
        )
        if summary["corrupt_removed"] or summary["tmp_removed"]:
            print(
                f"also removed {summary['corrupt_removed']} quarantined and "
                f"{summary['tmp_removed']} stale temp file(s)"
            )
        return 0

    raise _cli_error(f"unknown cache command {args.cache_command!r}")


def _git_changed_python_files() -> list[str]:
    """Python files changed vs HEAD (staged + unstaged + untracked).

    The ``repro lint --changed`` pre-commit fast path: lint only what
    the commit touches instead of the whole tree.  Files the full-tree
    pass would never visit (rule fixtures, caches — the runner's skip
    set) are excluded here too, since git names them explicitly.
    """
    import subprocess

    from repro.staticcheck.runner import _SKIP_DIRS

    names: set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", "--diff-filter=d", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError) as exc:
            raise _cli_error(
                f"--changed requires a git checkout with at least one "
                f"commit: {exc}"
            ) from None
        names.update(line.strip() for line in proc.stdout.splitlines())
    return sorted(
        name for name in names
        if name.endswith(".py") and Path(name).exists()
        and not any(part in _SKIP_DIRS for part in Path(name).parts)
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: the determinism/protocol static analysis pass.

    Exit codes follow the repo convention: 0 clean (or every finding
    baselined), 1 new violations found, 2 usage error (unknown path,
    rule, or format).
    """
    # Imported here so simulation commands never pay for the analyzer.
    from repro.staticcheck import all_rules, check_units, get_rule
    from repro.staticcheck.baseline import Baseline, DEFAULT_BASELINE_NAME
    from repro.staticcheck.runner import (
        iter_python_files,
        render_json_text,
        render_text,
    )
    from repro.staticcheck.sarif import render_sarif_text

    if args.list_rules:
        rows = [[rule.id, rule.name, rule.description] for rule in all_rules()]
        print(comparison_table(rows, ["id", "name", "description"]))
        return 0

    paths: list[str] = list(args.paths)
    if args.changed:
        if paths:
            raise _cli_error("--changed and explicit paths are mutually exclusive")
        paths = _git_changed_python_files()
        if not paths:
            print("0 file(s) checked: clean (no changed Python files)")
            return 0
    if not paths:
        raise _cli_error("no paths given (try `repro lint src/`)")

    rules = None
    if args.rules is not None:
        ids = [part.strip() for part in args.rules.split(",") if part.strip()]
        if not ids:
            raise _cli_error("--rules given but no rule ids parsed")
        rules = []
        for rule_id in ids:
            try:
                rules.append(get_rule(rule_id))
            except KeyError:
                known = ", ".join(rule.id for rule in all_rules())
                raise _cli_error(
                    f"unknown rule {rule_id!r}; choose from {known}"
                ) from None

    try:
        files = iter_python_files(paths)
    except FileNotFoundError as exc:
        raise _cli_error(f"no such file or directory: {exc}") from None
    sources = {
        str(file_path): file_path.read_text(encoding="utf-8")
        for file_path in files
    }
    violations = check_units(sorted(sources.items()), rules)

    if args.update_baseline:
        target = args.baseline or DEFAULT_BASELINE_NAME
        Baseline.from_violations(violations, sources).save(target)
        print(
            f"wrote {len(violations)} baseline entr"
            f"{'y' if len(violations) == 1 else 'ies'} to {target}",
            file=sys.stderr,
        )
        return 0

    baselined: list = []
    stale: list = []
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except OSError as exc:
            raise _cli_error(f"cannot read baseline: {exc}") from None
        except ValueError as exc:
            raise _cli_error(str(exc)) from None
        violations, baselined, stale = baseline.split(violations, sources)

    if args.format == "json":
        report = render_json_text(
            violations, len(files), rules,
            baselined=baselined, stale_baseline_entries=len(stale),
        )
    elif args.format == "sarif":
        active = list(rules) if rules is not None else all_rules()
        report = render_sarif_text(violations, active)
    else:
        report = render_text(violations, len(files), len(baselined)) + "\n"
    if args.output:
        Path(args.output).write_text(report)
        print(f"wrote {args.output}", file=sys.stderr)
    print(report, end="")
    if stale:
        print(
            f"note: {len(stale)} stale baseline entr"
            f"{'y' if len(stale) == 1 else 'ies'} "
            f"(fixed findings — re-run with --update-baseline to shrink)",
            file=sys.stderr,
        )
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="least-TLB multi-GPU address-translation simulator (MICRO'21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications, workloads, policies").set_defaults(
        func=cmd_list
    )

    def add_common(
        p: argparse.ArgumentParser, *, optional_workload: bool = False
    ) -> None:
        """Arguments shared by every simulation subcommand."""
        workload_help = (
            "application, workload name, .npz path, or k6/mase trace path"
        )
        if optional_workload:
            p.add_argument("workload", nargs="?", default=None,
                           help=workload_help)
        else:
            p.add_argument("workload", help=workload_help)
        p.add_argument("--scale", type=float, default=0.3,
                       help="trace-length scale (default 0.3)")
        p.add_argument("--config", default="baseline",
                       help=f"config preset ({', '.join(sorted(CONFIG_PRESETS))})")
        p.add_argument("--seed", type=int, default=None,
                       help="override the workload/config random seed")

    run = sub.add_parser("run", help="run one simulation")
    add_common(run, optional_workload=True)
    run.add_argument("--policy", default="baseline",
                     help=f"translation policy ({', '.join(policy_names())})")
    run.add_argument("--backend", choices=("event", "functional"),
                     default="event",
                     help="simulation backend: the discrete-event engine or "
                          "the bit-exact functional replay (see docs/backends.md)")
    run.add_argument("--json", help="write the result to this JSON file")
    run.add_argument("--record-stream", action="store_true",
                     help="record the IOMMU request stream")
    run.add_argument("--snapshot-interval", type=int, default=0,
                     help="TLB-content snapshot interval in cycles")
    run.add_argument("--faults", default=None,
                     help="fault-injection plan, e.g. drop-remote:0.01,flip-tlb:0.0001 "
                          "(see docs/robustness.md)")
    run.add_argument("--check-invariants", action="store_true",
                     help="audit translation-hierarchy invariants while running")
    run.add_argument("--max-cycles", type=int, default=None,
                     help="stop the simulation at this cycle")
    run.add_argument("--max-events", type=int, default=None,
                     help="safety cap: fail as stalled if this many events execute "
                          "without completing the workload")
    run.add_argument("--profile", action="store_true",
                     help="run under cProfile and print the top-25 report to stderr")
    run.add_argument("--profile-dump", default=None, metavar="FILE",
                     help="with --profile: also write the raw pstats dump here")
    run.add_argument("--trace", nargs="?", const="0.05", default=None,
                     metavar="RATE|PATH",
                     help="a number samples translation requests for span "
                          "tracing (default rate 0.05, Chrome trace output); "
                          "a file path replays that k6/mase trace instead of "
                          "a named workload (see docs/traces.md)")
    run.add_argument("--split", choices=SPLIT_POLICIES, default="round-robin",
                     help="per-GPU splitting policy for ingested traces "
                          "(default round-robin)")
    run.add_argument("--trace-out", default=None, metavar="FILE",
                     help=f"Chrome trace output path (default {DEFAULT_TRACE_OUT})")
    run.add_argument("--timeline", type=int, default=0, metavar="CYCLES",
                     help="record an interval-timeline epoch every N cycles")
    run.add_argument("--server", default=None, metavar="URL",
                     help="submit to a `repro serve` daemon instead of "
                          "simulating locally (see docs/service.md)")
    run.add_argument("--client", default=None, metavar="NAME",
                     help="client identity for --server fairness accounting")
    run.add_argument("--wait-timeout", type=float, default=3600.0,
                     metavar="SECONDS",
                     help="with --server: give up waiting after this long "
                          "(default 3600)")
    run.set_defaults(func=cmd_run)

    trace = sub.add_parser(
        "trace", help="trace a run and export Chrome trace_event JSON"
    )
    add_common(trace)
    trace.add_argument("--policy", default="least-tlb",
                       help=f"translation policy ({', '.join(policy_names())})")
    trace.add_argument("--rate", type=float, default=0.05,
                       help="span-sampling rate in (0, 1] (default 0.05)")
    trace.add_argument("--timeline", type=int, default=0, metavar="CYCLES",
                       help="record an interval-timeline epoch every N cycles")
    trace.add_argument("--out", default=DEFAULT_TRACE_OUT, metavar="FILE",
                       help=f"Chrome trace output path (default {DEFAULT_TRACE_OUT})")
    trace.add_argument("--max-events", type=int, default=None,
                       help="safety cap: fail as stalled past this many events")
    trace.set_defaults(func=cmd_trace)

    bench = sub.add_parser(
        "bench",
        help="run the experiment matrix in parallel with persistent caching",
    )
    bench.add_argument("--list", action="store_true",
                       help="list bench families and their job counts, then exit")
    bench.add_argument("--only", default=None, metavar="PATTERN",
                       help="run only bench families matching this glob/substring")
    bench.add_argument("--trace", default=None, metavar="PATH",
                       help="add a dynamic trace-backed bench family from this "
                            "k6/mase trace file (see docs/traces.md)")
    bench.add_argument("--split", choices=SPLIT_POLICIES, default="round-robin",
                       help="per-GPU splitting policy for --trace "
                            "(default round-robin)")
    bench.add_argument("--scale", type=float, default=0.3,
                       help="trace-length scale for every job (default 0.3)")
    bench.add_argument("--seed", type=int, default=None,
                       help="override the workload/config random seed")
    bench.add_argument("--backend", choices=("event", "functional"),
                       default="event",
                       help="simulation backend for every job (functional = "
                            "the bit-exact fast path, see docs/backends.md)")
    bench.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: one per core)")
    bench.add_argument("--retries", type=int, default=1, metavar="N",
                       help="re-run a crashed/failed job up to N times with "
                            "seeded exponential backoff (default 1)")
    bench.add_argument("--job-timeout", type=float, default=None, metavar="SECONDS",
                       help="hard per-job deadline: kill the worker and mark the "
                            "job timed_out (soft warning at half; default is "
                            "derived from --scale and --backend)")
    bench.add_argument("--resume", action="store_true",
                       help="skip jobs already recorded in the sweep journal "
                            "next to the result cache")
    bench.add_argument("--chaos", default=None, metavar="PLAN",
                       help="orchestration fault plan, e.g. "
                            "'kill-worker:2,corrupt-cache:1' or "
                            "'slow-worker:1:30000' (see docs/robustness.md)")
    bench.add_argument("--no-cache", action="store_true",
                       help="ignore the persistent result cache entirely")
    bench.add_argument("--clear-cache", action="store_true",
                       help="delete every cached result before running")
    bench.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro-sim)")
    bench.add_argument("--profile", action="store_true",
                       help="serial in-process run under cProfile (implies --jobs 1)")
    bench.add_argument("--profile-dump", default=None, metavar="FILE",
                       help="with --profile: also write the raw pstats dump here")
    bench.add_argument("--json", default=None, metavar="FILE",
                       help="write the matrix summary to this JSON file")
    bench.add_argument("--verbose", action="store_true",
                       help="stream per-job progress to stderr")
    bench.add_argument("--server", default=None, metavar="URL",
                       help="submit the matrix to a `repro serve` daemon "
                            "instead of running locally (see docs/service.md)")
    bench.add_argument("--client", default=None, metavar="NAME",
                       help="client identity for --server fairness accounting")
    bench.add_argument("--wait-timeout", type=float, default=3600.0,
                       metavar="SECONDS",
                       help="with --server: give up waiting after this long "
                            "(default 3600)")
    bench.set_defaults(func=cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service daemon (see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8177,
                       help="bind port (default 8177; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="concurrent simulation worker processes (default 2)")
    serve.add_argument("--max-pending", type=int, default=64, metavar="N",
                       help="per-client queued-job limit before 429 "
                            "backpressure (default 64)")
    serve.add_argument("--default-weight", type=float, default=1.0,
                       metavar="W",
                       help="fair-share weight for unlisted clients (default 1)")
    serve.add_argument("--weight", action="append", default=None,
                       metavar="CLIENT=W",
                       help="fair-share weight for one client (repeatable)")
    serve.add_argument("--retries", type=int, default=1, metavar="N",
                       help="per-job crash/failure retries (default 1)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="hard per-job deadline (default: derived from "
                            "each job's scale and backend)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache location (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro-sim)")
    serve.add_argument("--verbose", action="store_true",
                       help="log per-job lifecycle lines to stderr")
    serve.set_defaults(func=cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect and maintain the persistent result cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats_p = cache_sub.add_parser(
        "stats", help="entries, bytes, hit rate since last stamp"
    )
    cache_stats_p.add_argument("--cache-dir", default=None, metavar="DIR",
                               help="cache location (default: $REPRO_CACHE_DIR "
                                    "or ~/.cache/repro-sim)")
    cache_stats_p.add_argument("--json", action="store_true",
                               help="machine-readable output")
    cache_stats_p.add_argument("--stamp", action="store_true",
                               help="zero the persistent counters, starting a "
                                    "new hit-rate measurement window")
    cache_stats_p.set_defaults(func=cmd_cache)
    cache_prune_p = cache_sub.add_parser(
        "prune", help="bound the cache by age and/or total size"
    )
    cache_prune_p.add_argument("--cache-dir", default=None, metavar="DIR",
                               help="cache location (default: $REPRO_CACHE_DIR "
                                    "or ~/.cache/repro-sim)")
    cache_prune_p.add_argument("--older-than", type=float, default=None,
                               metavar="DAYS",
                               help="remove entries older than this many days")
    cache_prune_p.add_argument("--max-bytes", type=int, default=None,
                               metavar="N",
                               help="then remove oldest entries until the "
                                    "cache fits in N bytes")
    cache_prune_p.add_argument("--json", action="store_true",
                               help="machine-readable output")
    cache_prune_p.set_defaults(func=cmd_cache)

    lint = sub.add_parser(
        "lint",
        help="determinism- and protocol-aware static analysis "
             "(see docs/static-analysis.md)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to analyse (e.g. src/)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="report format (default text; sarif for "
                           "code-scanning upload)")
    lint.add_argument("--rules", default=None, metavar="IDS",
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the rule catalog and exit")
    lint.add_argument("--output", default=None, metavar="FILE",
                      help="also write the report to this file (CI artifact)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="accepted-findings file: baselined findings do "
                           "not fail the run (see docs/static-analysis.md)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="(re)write the baseline file from this run's "
                           "findings and exit 0")
    lint.add_argument("--changed", action="store_true",
                      help="lint only Python files changed vs HEAD "
                           "(pre-commit fast path)")
    lint.set_defaults(func=cmd_lint)

    compare = sub.add_parser("compare", help="run several policies and compare")
    add_common(compare)
    compare.add_argument("--policies", default="baseline,least-tlb",
                         help="comma-separated policy list (first = reference)")
    compare.add_argument("--json", default=None, metavar="FILE",
                         help="write the comparison summary to this JSON file")
    compare.set_defaults(func=cmd_compare)

    characterize = sub.add_parser(
        "characterize", help="hit rates, MPKI, and reuse-distance CDF"
    )
    add_common(characterize)
    characterize.add_argument("--json", default=None, metavar="FILE",
                              help="write the characterization to this JSON file")
    characterize.set_defaults(func=cmd_characterize)

    ingest = sub.add_parser(
        "ingest",
        help="stream a k6/mase memory trace in and calibrate it against "
             "the paper's applications (see docs/traces.md)",
    )
    ingest.add_argument("trace", help="trace file path (plain text or .gz)")
    ingest.add_argument("--config", default="baseline",
                        help=f"config preset ({', '.join(sorted(CONFIG_PRESETS))})")
    ingest.add_argument("--seed", type=int, default=None,
                        help="override the config random seed for calibration")
    ingest.add_argument("--scale", type=float, default=1.0,
                        help="truncate every CU stream to this fraction of its "
                             "runs (default 1.0 = the full trace)")
    ingest.add_argument("--split", choices=SPLIT_POLICIES, default="round-robin",
                        help="per-GPU splitting policy (default round-robin)")
    ingest.add_argument("--format", choices=("k6", "mase"), default=None,
                        help="force the trace format (default: sniff from the "
                             "file name or first data line)")
    ingest.add_argument("--name", default=None,
                        help="workload name (default: derived from the file name)")
    ingest.add_argument("--out", default=None, metavar="FILE.npz",
                        help="also save the ingested workload as a reloadable "
                             ".npz archive")
    ingest.add_argument("--no-calibrate", action="store_true",
                        help="skip the calibration simulation (ingest and "
                             "report trace statistics only)")
    ingest.add_argument("--json", default=None, metavar="FILE",
                        help="write the ingest + calibration report to this "
                             "JSON file")
    ingest.set_defaults(func=cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
