"""Cross-backend equivalence: the fast path must be bit-identical to the
event engine.

The functional backend (:mod:`repro.sim.backends`) is only allowed to
exist because every observable it produces — hit/miss/
eviction/spill counters, sharing degrees, latency means,
``total_cycles``, ``events_executed`` — equals the event engine's
exactly.  These tests pin that contract over randomized workloads, GPU
counts, seeds, and both supported policies, plus real traced
applications; ``scripts/check_fidelity.py`` extends the same check to
the full bench families.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import baseline_config
from repro.config.system import (
    GPUConfig,
    IOMMUConfig,
    InterconnectConfig,
    SystemConfig,
    TLBLevelConfig,
    TrackerConfig,
)
from repro.sim.backends import BackendUnsupported, run_functional
from repro.sim.driver import run_multi_app, run_single_app, simulate
from repro.workloads.multi_app import build_single_app_workload
from repro.workloads.trace import CUStream, Placement, Workload


def tiny_config(num_gpus=2, seed=1):
    return SystemConfig(
        num_gpus=num_gpus,
        gpu=GPUConfig(
            num_cus=2,
            slots_per_cu=2,
            l1_tlb=TLBLevelConfig(num_entries=2, associativity=2, lookup_latency=1),
            l2_tlb=TLBLevelConfig(num_entries=8, associativity=4, lookup_latency=3),
        ),
        iommu=IOMMUConfig(
            tlb=TLBLevelConfig(num_entries=16, associativity=4, lookup_latency=10),
            num_walkers=2,
            walker_threads=2,
            walk_latency=40,
        ),
        tracker=TrackerConfig(total_entries=32, kind="cuckoo"),
        interconnect=InterconnectConfig(host_link_latency=15, peer_link_latency=5),
        seed=seed,
    )


def build_workload(gpu_vpns, kind):
    placements = []
    footprint = set()
    for gpu_id, vpns in enumerate(gpu_vpns):
        if not vpns:
            continue
        n = len(vpns)
        placements.append(
            Placement(
                gpu_id=gpu_id, pid=1, app_name="rand", cu_ids=[0],
                streams=[CUStream(
                    np.array(vpns, dtype=np.int64),
                    np.full(n, 37, dtype=np.int64),
                    np.ones(n, dtype=np.int64),
                )],
            )
        )
        footprint.update(vpns)
    return Workload(
        name="rand", kind=kind, placements=placements, app_names={1: "rand"},
        footprints={1: np.array(sorted(footprint), dtype=np.int64)},
    )


@st.composite
def scenarios(draw):
    num_gpus = draw(st.integers(2, 4))
    gpu_vpns = [
        draw(st.lists(st.integers(0, 30), min_size=0, max_size=40))
        for _ in range(num_gpus)
    ]
    if not any(gpu_vpns):
        gpu_vpns[0] = [0]
    seed = draw(st.integers(0, 3))
    return num_gpus, gpu_vpns, seed


@pytest.mark.parametrize("backend", ["functional"])
@pytest.mark.parametrize("policy", ["baseline", "least-tlb"])
@pytest.mark.parametrize("kind", ["single", "multi"])
@given(scenario=scenarios())
@settings(max_examples=20, deadline=None)
def test_fast_backends_are_bit_identical(backend, policy, kind, scenario):
    num_gpus, gpu_vpns, seed = scenario
    workload = build_workload(gpu_vpns, kind)
    config = tiny_config(num_gpus=num_gpus, seed=seed)
    ref = simulate(config, workload, policy, max_cycles=5_000_000)
    fast = simulate(
        config, workload, policy, backend=backend, max_cycles=5_000_000
    )
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


@pytest.mark.parametrize("backend", ["functional"])
@pytest.mark.parametrize("policy", ["baseline", "least-tlb"])
def test_real_trace_is_bit_identical(backend, policy):
    ref = run_single_app("MM", policy=policy, scale=0.02)
    fast = run_single_app("MM", policy=policy, scale=0.02, backend=backend)
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


@pytest.mark.parametrize(
    "runner, name, policy",
    [
        (run_single_app, "MM", "least-tlb"),
        (run_single_app, "FIR", "baseline"),
        (run_multi_app, "W10", "least-tlb"),
    ],
    ids=["MM-least-tlb", "FIR-baseline", "W10-least-tlb"],
)
def test_faulted_walks_are_bit_identical(runner, name, policy):
    # Nothing is pre-faulted, so first touches fault: this pins the walk
    # depth billed for a fault and the PRI path in both backends.
    kwargs = dict(policy=policy, scale=0.005, seed=1, prefault=False)
    ref = runner(name, **kwargs)
    fast = runner(name, backend="functional", **kwargs)
    assert ref.walker_counters["walks_faulted"] > 0
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


class TestScopeRejections:
    """Everything outside the replayed scope must refuse loudly, never
    silently diverge."""

    def _workload(self):
        return build_workload([[0, 1], [2]], "single")

    def test_unsupported_policy(self):
        with pytest.raises(BackendUnsupported, match="policy 'tlb-probing'"):
            run_functional(tiny_config(), self._workload(), "tlb-probing")

    def test_local_page_tables(self):
        config = dataclasses.replace(tiny_config(), local_page_tables=True)
        with pytest.raises(BackendUnsupported, match="local page tables"):
            run_functional(config, self._workload(), "baseline")

    def test_non_lru_replacement(self):
        base = tiny_config()
        config = dataclasses.replace(
            base,
            gpu=dataclasses.replace(
                base.gpu,
                l2_tlb=TLBLevelConfig(
                    num_entries=8, associativity=4, lookup_latency=3,
                    replacement="fifo",
                ),
            ),
        )
        with pytest.raises(BackendUnsupported, match="only LRU"):
            run_functional(config, self._workload(), "baseline")

    def test_unknown_system_option(self):
        with pytest.raises(BackendUnsupported, match="system option"):
            run_functional(
                tiny_config(), self._workload(), "baseline", shields="up"
            )

    def test_non_default_system_option(self):
        with pytest.raises(BackendUnsupported, match="snapshot_interval"):
            run_functional(
                tiny_config(), self._workload(), "baseline",
                snapshot_interval=100,
            )

    def test_default_valued_options_accepted(self):
        result = run_functional(
            tiny_config(), self._workload(), "baseline",
            faults=None, check_invariants=False, watchdog=False,
        )
        assert result.events_executed > 0

    def test_baseline_config_in_scope(self):
        # The paper's default configuration must stay inside the fast
        # path's scope — the benchmarks rely on it.
        workload = build_single_app_workload("FIR", baseline_config(), scale=0.02)
        result = run_functional(baseline_config(), workload, "least-tlb")
        assert result.events_executed > 0
