"""Benchmark of the least-TLB simulator: host throughput of both replay
backends on three paper workloads, plus a ``repro serve`` request mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload st-least-tlb --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer row instead, from a separate traced
run.  Human-readable lines come first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metric table.

Each measurement runs in a fresh interpreter (``worker.py``), so set-up
time includes importing ``repro`` and peak RSS belongs to one workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed used when ``--seed`` is not given.
DEFAULT_SEED = 1

#: Held out: never used while tuning the benchmark or a change, so a
#: later speed claim can be confirmed on a seed it was not fitted to.
HELD_OUT_SEED = 4099

#: Extra set-up-only processes per untraced run; ``setup_s`` is the
#: median of these and the measuring process.
SETUP_PROBES = 4

#: Every run, set-up probes included, ends within this many seconds.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(role: str, args: argparse.Namespace, deadline: float) -> dict[str, Any]:
    """Run one ``worker.py`` process to completion; returns its JSON."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale-factor", str(args.scale_factor),
    ]
    t0 = time.monotonic()
    command += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process exceeded the {RUN_BUDGET_S:.0f}s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} process printed no result")
    return json.loads(lines[-1])


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(args: argparse.Namespace) -> tuple[dict[str, Any], dict[str, Any]]:
    """``(worker result, metric samples)`` for one run."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        return run_worker("trace", args, deadline), {}
    setups = [run_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    result = run_worker("measure", args, deadline)
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["metrics"]["peak_rss_mb"] = result["peak_rss_mb"]
    samples = dict(result["samples"], setup_s=len(setups), peak_rss_mb=1)
    return result, samples


def report(args: argparse.Namespace, spec: dict[str, Any], result: dict[str, Any],
           samples: dict[str, Any]) -> dict[str, Any]:
    """Print the human-readable lines; return the final JSON object."""
    stamp = result["stamp"]
    print(f"perfbench  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={int(args.trace)}  "
          f"scale_factor={args.scale_factor:g}")
    print(f"machine    platform={stamp['platform']}  python={stamp['python']}  "
          f"nproc={stamp['nproc']}  code_version={stamp['code_version']}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for row in wanted:
        name = row["name"]
        if name not in result["metrics"]:
            raise BenchError(f"the worker did not measure {name}")
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": row["unit"]}
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:<34} {value:>16.6g} {row['unit']}{count}")
    for backend, runs in result.get("runs", {}).items():
        for kind, times in zip(("host", "scaled"), zip(*runs)):
            q1, q2, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                          if len(times) > 1 else times * 3)
            print(f"{backend + '_run_' + kind + '_s':<34} min {min(times):.4f}  "
                  f"q1 {q1:.4f}  median {q2:.4f}  q3 {q3:.4f}  max {max(times):.4f}  "
                  f"(n={len(times)})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'error_rate':<34} {failed / attempted:>16.6g} failed/attempted"
          f"  ({failed}/{attempted})")
    print(f"{'sim_digest':<34} {result['sim_digest']:>16}")
    for failure in result["failures"][:10]:
        print(f"FAILED     {failure}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="multiply every workload's trace scale (the "
                             "benchmark's own tests use a tiny size)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.scale_factor <= 0:
        parser.error("--seed must be >= 0, --seconds >= 1, --scale-factor > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, samples = measure(args)
        final = report(args, spec, result, samples)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
