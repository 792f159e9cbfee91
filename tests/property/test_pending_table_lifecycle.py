"""Interleaving tests for the pending-table protocol.

One translation key can have up to four responders racing: the page walk,
its hardening timeout, the remote-L2 probe, and the probe's timeout.  The
protocol must deliver **exactly one** response to the waiters and reap
the pending entry no matter which order those events land in.  These
tests drive the policy's handlers directly, in *every* permutation of
the racing completions, and assert both properties after the event queue
drains.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from repro.config.system import (
    GPUConfig,
    IOMMUConfig,
    InterconnectConfig,
    SystemConfig,
    TLBLevelConfig,
    TrackerConfig,
)
from repro.faults import HardeningConfig
from repro.gpu.ats import ATSRequest
from repro.sim.system import MultiGPUSystem
from repro.structures.page_table import WalkResult
from repro.structures.tlb import TLBEntry
from repro.workloads.trace import CUStream, Placement, Workload

PID = 1
VPN = 77
PPN = 4242

RESPONSE_SOURCES = ("iommu", "walk", "pending", "remote", "fault")


def _tiny_config() -> SystemConfig:
    return SystemConfig(
        num_gpus=2,
        gpu=GPUConfig(
            num_cus=1,
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
        tracker=TrackerConfig(total_entries=32, kind="perfect"),
        interconnect=InterconnectConfig(host_link_latency=15, peer_link_latency=5),
        seed=3,
    )


def _tiny_workload() -> Workload:
    streams = []
    placements = []
    for gpu_id in (0, 1):
        stream = CUStream(
            np.array([VPN], dtype=np.int64),
            np.full(1, 37, dtype=np.int64),
            np.ones(1, dtype=np.int64),
        )
        streams.append(stream)
        placements.append(
            Placement(
                gpu_id=gpu_id, pid=PID, app_name="race", cu_ids=[gpu_id * 4],
                streams=[stream],
            )
        )
    return Workload(
        name="race", kind="single", placements=placements,
        app_names={PID: "race"},
    )


def _make_system(*, remote_entry: bool) -> tuple[MultiGPUSystem, ATSRequest]:
    """A system with one pending entry racing a walk and a remote probe.

    ``remote_entry`` controls whether GPU 1's L2 actually holds the
    translation (probe hit) or not (tracker false positive)."""
    system = MultiGPUSystem(
        _tiny_config(),
        _tiny_workload(),
        "least-tlb",
        hardening=HardeningConfig(
            walk_timeout=500, probe_timeout=200, retry_backoff_base=50
        ),
        watchdog=False,
    )
    system.page_tables.install(PID, VPN, PPN)
    if remote_entry:
        system.gpus[1].l2_tlb.insert(TLBEntry(PID, VPN, PPN))
    request = ATSRequest(gpu_id=0, pid=PID, vpn=VPN, issue_time=0, measured=True)
    pending = system.iommu.pending.create(request)
    pending.walk_pending = True
    pending.walk_attempts = 1
    pending.walk_generation = 1
    pending.remote_pending = True
    pending.remote_generation = 1
    return system, request


def _responses_delivered(system: MultiGPUSystem) -> int:
    return sum(
        system.iommu.stats[f"responses_{source}"] for source in RESPONSE_SOURCES
    )


def _assert_exactly_once(system: MultiGPUSystem) -> None:
    system.queue.run()
    assert (PID, VPN) not in system.iommu.pending, "pending entry leaked"
    assert _responses_delivered(system) == 1, (
        f"waiter served {_responses_delivered(system)} times"
    )


def _event_set(system: MultiGPUSystem, request: ATSRequest, *, walk_faulted: bool):
    policy = system.policy
    result = (
        WalkResult(ppn=None, levels_touched=4, faulted=True)
        if walk_faulted
        else WalkResult(ppn=PPN, levels_touched=4, faulted=False)
    )
    serial = system.iommu.pending.get((PID, VPN)).serial
    return {
        "walk-response": lambda: policy._walk_complete(request, result),
        "walk-timeout": lambda: policy._walk_timed_out(request, serial, 1),
        "probe-response": lambda: policy._remote_probe(request, 1, serial),
        "probe-timeout": lambda: policy._probe_timed_out(request, serial, 1),
    }


class TestEveryInterleaving:
    @pytest.mark.parametrize("remote_entry", [True, False])
    def test_all_orders_of_all_four_racers(self, remote_entry):
        events = ["walk-response", "walk-timeout", "probe-response", "probe-timeout"]
        for order in permutations(events):
            system, request = _make_system(remote_entry=remote_entry)
            handlers = _event_set(system, request, walk_faulted=False)
            for name in order:
                handlers[name]()
            _assert_exactly_once(system)

    @pytest.mark.parametrize("remote_entry", [True, False])
    def test_faulting_walk_orders(self, remote_entry):
        """A faulting walk must fall back to the PRI path (or lose to the
        probe) without double service."""
        events = ["walk-response", "probe-response", "probe-timeout"]
        for order in permutations(events):
            system, request = _make_system(remote_entry=remote_entry)
            handlers = _event_set(system, request, walk_faulted=True)
            for name in order:
                handlers[name]()
            _assert_exactly_once(system)

    def test_timeouts_alone_recover_the_request(self):
        """Both responses lost: the timeouts alone must re-drive the key
        to completion via a retried walk."""
        for order in permutations(["walk-timeout", "probe-timeout"]):
            system, request = _make_system(remote_entry=False)
            handlers = _event_set(system, request, walk_faulted=False)
            for name in order:
                handlers[name]()
            _assert_exactly_once(system)

    def test_stale_generation_timeouts_are_ignored(self):
        """Timeouts armed for generation 1 must not fire against a retried
        generation-2 walk."""
        system, request = _make_system(remote_entry=False)
        pending = system.iommu.pending.get((PID, VPN))
        pending.walk_generation = 2
        pending.remote_generation = 2
        before = pending.walk_pending, pending.remote_pending
        system.policy._walk_timed_out(request, pending.serial, 1)
        system.policy._probe_timed_out(request, pending.serial, 1)
        assert (pending.walk_pending, pending.remote_pending) == before
        assert system.iommu.stats["walk_timeouts"] == 0
        assert system.iommu.stats["probe_timeouts"] == 0
        # Resolve the entry cleanly via the current generation.
        system.policy._walk_complete(
            request, WalkResult(ppn=PPN, levels_touched=4, faulted=False)
        )
        system.policy._probe_timed_out(request, pending.serial, 2)
        _assert_exactly_once(system)

    def test_stale_serial_timeouts_ignore_reincarnated_entry(self):
        """A timeout armed against a dead incarnation of the key must not
        cancel the live one — generations restart at 0 on re-creation, so
        the serial is the only thing separating them (this exact aliasing
        once cancelled a live walk and leaked its telemetry span)."""
        system, request = _make_system(remote_entry=False)
        old = system.iommu.pending.get((PID, VPN))
        old_serial = old.serial
        # First incarnation resolves and is reaped.
        old.remote_pending = False
        system.policy._walk_complete(
            request, WalkResult(ppn=PPN, levels_touched=4, faulted=False)
        )
        assert (PID, VPN) not in system.iommu.pending
        # Same key misses again: new incarnation, same generation numbers.
        retry = ATSRequest(gpu_id=0, pid=PID, vpn=VPN, issue_time=50, measured=True)
        fresh = system.iommu.pending.create(retry)
        fresh.walk_pending = True
        fresh.walk_attempts = 1
        fresh.walk_generation = 1
        fresh.remote_pending = True
        fresh.remote_generation = 1
        assert fresh.serial != old_serial
        # The dead incarnation's timeouts fire: they must be no-ops.
        system.policy._walk_timed_out(request, old_serial, 1)
        system.policy._probe_timed_out(request, old_serial, 1)
        assert fresh.walk_pending and fresh.remote_pending
        assert system.iommu.stats["walk_timeouts"] == 0
        assert system.iommu.stats["probe_timeouts"] == 0
        # And its late probe response is stale, not a serve.
        system.policy._remote_probe(request, 1, old_serial)
        assert system.iommu.stats["stale_probe_responses"] == 1
        assert not fresh.served

    def test_stale_responses_after_reap_are_counted_not_fatal(self):
        system, request = _make_system(remote_entry=False)
        pending = system.iommu.pending.get((PID, VPN))
        pending.remote_pending = False
        system.policy._walk_complete(
            request, WalkResult(ppn=PPN, levels_touched=4, faulted=False)
        )
        assert (PID, VPN) not in system.iommu.pending
        # Late echoes of every kind against the reaped key:
        system.policy._walk_complete(
            request, WalkResult(ppn=PPN, levels_touched=4, faulted=False)
        )
        system.policy._remote_probe(request, 1, 0)
        system.policy._fault_serviced(request, PPN)
        assert system.iommu.stats["stale_walk_responses"] == 1
        assert system.iommu.stats["stale_probe_responses"] == 1
        assert system.iommu.stats["stale_fault_responses"] == 1
        _assert_exactly_once(system)
