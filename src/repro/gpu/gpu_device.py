"""The GPU device model: CUs, per-CU L1 TLBs, the shared L2 TLB, and the
GPU side of the translation protocol.

Timing follows Section 2.2: a coalesced access looks up its CU's private
L1 TLB (1 cycle); a miss proceeds to the GPU-shared L2 TLB (10 cycles);
an L2 miss allocates an MSHR (merging concurrent requests for the same
page) and emits an ATS packet toward the IOMMU.  What happens beyond that
point is owned by the active :class:`~repro.policies.base.TranslationPolicy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config.system import SystemConfig
from repro.gpu.ats import ATSRequest
from repro.gpu.compute_unit import ComputeUnit
from repro.structures.tlb import SetAssociativeTLB, TLBEntry
from repro.workloads.trace import Placement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import MultiGPUSystem


class GPUDevice:
    """One GPU: compute units, TLBs, MSHRs, and issue/completion logic."""

    def __init__(self, gpu_id: int, config: SystemConfig, system: "MultiGPUSystem") -> None:
        self.gpu_id = gpu_id
        self.config = config
        self.system = system
        self.l2_tlb = SetAssociativeTLB(
            num_entries=config.gpu.l2_tlb.num_entries,
            associativity=config.gpu.l2_tlb.associativity,
            replacement=config.gpu.l2_tlb.replacement,
            name=f"gpu{gpu_id}-l2",
            seed=config.seed + gpu_id,
        )
        self.l1_tlbs: dict[int, SetAssociativeTLB] = {}
        self.cus: list[ComputeUnit] = []
        # MSHR: translation key -> (CU, measured, trace) waiters for the
        # in-flight fill.  The trace slot is None unless the request was
        # telemetry-sampled.
        self.mshr: dict[tuple[int, int], list] = {}
        self._l1_config = config.gpu.l1_tlb
        self._l2_latency = config.gpu.l2_tlb.lookup_latency
        self._l1_latency = config.gpu.l1_tlb.lookup_latency
        # Figure 23 variant: a device-memory page table walked locally,
        # with only local faults escalating to the IOMMU.
        self.local_tables = None
        self.local_walkers = None
        self._started = False

    # -- construction -------------------------------------------------------

    def add_placement(self, placement: Placement, *, rerun: bool) -> None:
        """Attach one application's CU streams to this GPU."""
        for cu_id, stream in zip(placement.cu_ids, placement.streams):
            if cu_id in self.l1_tlbs:
                raise ValueError(
                    f"CU {cu_id} on GPU {self.gpu_id} assigned twice"
                )
            self.l1_tlbs[cu_id] = SetAssociativeTLB(
                num_entries=self._l1_config.num_entries,
                associativity=self._l1_config.associativity,
                replacement=self._l1_config.replacement,
                name=f"gpu{self.gpu_id}-cu{cu_id}-l1",
                seed=self.config.seed + cu_id,
            )
            self.cus.append(
                ComputeUnit(
                    gpu_id=self.gpu_id,
                    cu_id=cu_id,
                    pid=placement.pid,
                    stream=stream,
                    slots=self.config.gpu.slots_per_cu,
                    rerun=rerun,
                )
            )

    def attach_local_translation(self, tables, walkers) -> None:
        """Enable the Figure 23 variant: local page table + walker pool."""
        self.local_tables = tables
        self.local_walkers = walkers

    def start(self) -> None:
        """Schedule the first issue of every CU.  Idempotent, so tests can
        drive the queue manually before calling ``MultiGPUSystem.run``."""
        if self._started:
            return
        self._started = True
        for cu in self.cus:
            if cu.stream.num_runs:
                self.system.queue.schedule(cu.current_gap(), self._issue, cu)

    # -- issue path ----------------------------------------------------------

    def _issue(self, cu: ComputeUnit) -> None:
        if self.system.halted:
            return
        queue = self.system.queue
        now = queue.now
        pid = cu.pid
        vpn = cu.current_vpn()
        measured = cu.measured
        repeats = cu.current_repeats()
        stats = self.system.stats_for(pid) if measured else None

        entry = self.l1_tlbs[cu.cu_id].lookup(pid, vpn)
        if stats is not None:
            if pid not in self.system.measure_start:
                self.system.note_measure_start(pid)
            stats.inc("runs")
            stats.inc("accesses", repeats)
            if entry is not None:
                # The whole burst hits the just-touched L1 entry.
                stats.inc("l1_hit", repeats)
            else:
                stats.inc("l1_miss")
                stats.inc("l1_hit", repeats - 1)

        # Telemetry: sample this issue for span tracing.  Every hook in
        # this file is guarded on the hub — a system without telemetry
        # takes the exact pre-telemetry path (pinned by the goldens).
        hub = self.system.telemetry
        trace = None
        if hub is not None and measured:
            trace = hub.maybe_sample(self.gpu_id, cu.cu_id, pid, vpn, now)

        if entry is not None:
            if hub is not None and measured:
                hub.record_latency("l1_hit", self._l1_latency)
            if trace is not None:
                trace.add_complete("l1_lookup", now, now + self._l1_latency,
                                   outcome="hit")
                trace.close_root(now + self._l1_latency, outcome="l1_hit")
                hub.complete(trace)
            self._finish_run(cu, measured)
        else:
            if trace is not None:
                trace.add_complete("l1_lookup", now, now + self._l1_latency,
                                   outcome="miss")
            cu.outstanding += 1
            queue.schedule_after(
                self._l1_latency + self._l2_latency,
                self._l2_lookup, cu, pid, vpn, measured, trace,
            )

        if cu.advance():
            cu.ready_time = now + cu.current_gap()
            if cu.outstanding < cu.slots:
                queue.schedule(cu.ready_time, self._issue, cu)
            else:
                cu.waiting_for_slot = True

    def _l2_lookup(
        self, cu: ComputeUnit, pid: int, vpn: int, measured: bool, trace=None
    ) -> None:
        stats = self.system.stats_for(pid) if measured else None
        hub = self.system.telemetry
        now = self.system.queue.now
        entry = self.l2_tlb.lookup(pid, vpn)
        faults = self.system.faults
        if entry is not None and faults is not None and faults.tlb_parity():
            # Parity-error model at the L2: the entry is dropped and the
            # access degrades to a miss.  The tracker keeps a now-stale
            # fingerprint — exactly the false-positive noise the tracker
            # is designed to absorb.
            self.l2_tlb.remove(pid, vpn)
            entry = None
        if entry is not None:
            if stats is not None:
                stats.inc("l2_hit")
            if hub is not None and measured:
                hub.record_latency("l2_hit", self._l1_latency + self._l2_latency)
            if trace is not None:
                trace.add_complete("l2_lookup", now - self._l2_latency, now,
                                   outcome="hit")
                trace.close_root(now, outcome="l2_hit")
                hub.complete(trace)
            self._fill_l1(cu, entry)
            self._translation_done(cu, measured)
            return
        if stats is not None:
            stats.inc("l2_miss")
        if trace is not None:
            trace.add_complete("l2_lookup", now - self._l2_latency, now,
                               outcome="miss")
        key = (pid, vpn)
        waiters = self.mshr.get(key)
        if waiters is not None:
            waiters.append((cu, measured, trace))
            if stats is not None:
                stats.inc("l2_mshr_merge")
            if trace is not None:
                trace.begin("mshr_wait", now)
            return
        self.mshr[key] = [(cu, measured, trace)]
        request = ATSRequest(
            gpu_id=self.gpu_id,
            pid=pid,
            vpn=vpn,
            issue_time=now,
            measured=measured,
            trace=trace,
        )
        if self.local_walkers is not None:
            if stats is not None:
                stats.inc("local_walks")
            if trace is not None:
                trace.begin("local_walk", now)
            self.local_walkers.request(
                pid, vpn, 0, lambda result: self._local_walk_done(request, result)
            )
        else:
            self.system.policy.on_l2_miss(self, request)

    def _local_walk_done(self, request: ATSRequest, result) -> None:
        """A device-memory page-table walk finished (Figure 23 variant)."""
        if request.trace is not None:
            request.trace.end(
                "local_walk",
                self.system.queue.now,
                outcome="hit" if result.hit else "miss",
            )
        if result.hit:
            self.receive_fill(
                request.pid, request.vpn, result.ppn, self.config.spill_budget
            )
            return
        # Local page fault: only now does the request travel to the IOMMU.
        if request.measured:
            self.system.stats_for(request.pid).inc("local_faults")
        self.system.policy.on_l2_miss(self, request)

    # -- fill / completion path ----------------------------------------------

    def _fill_l1(self, cu: ComputeUnit, entry: TLBEntry) -> None:
        self.l1_tlbs[cu.cu_id].insert(
            TLBEntry(entry.pid, entry.vpn, entry.ppn)
        )

    def receive_fill(self, pid: int, vpn: int, ppn: int, spill_budget: int) -> None:
        """A translation response arrived (from the IOMMU TLB, a remote L2,
        or a page walk).  Fill L2 per policy, then wake every MSHR waiter."""
        key = (pid, vpn)
        if self.local_tables is not None:
            # Install the mapping in the device-memory page table so future
            # misses resolve locally (Figure 23 variant).
            self.local_tables.install(pid, vpn, ppn)
        entry = TLBEntry(pid, vpn, ppn, spill_budget=spill_budget, owner_gpu=self.gpu_id)
        self._insert_l2(entry)
        waiters = self.mshr.pop(key, [])
        hub = self.system.telemetry
        now = self.system.queue.now
        for cu, measured, trace in waiters:
            self._fill_l1(cu, entry)
            if measured:
                stats = self.system.stats_for(pid)
                stats.inc("translations_filled")
            if trace is not None:
                trace.end("mshr_wait", now)
                trace.close_root(now, outcome="filled")
                hub.complete(trace)
            self._translation_done(cu, measured)

    def receive_spill(self, entry: TLBEntry) -> None:
        """An IOMMU TLB victim spilled into this GPU's L2 (multi-app mode).

        No CU is waiting: the insertion (and any eviction it causes) is the
        whole effect."""
        self._insert_l2(entry)

    def _insert_l2(self, entry: TLBEntry) -> None:
        policy = self.system.policy
        refresh = self.l2_tlb.contains(entry.pid, entry.vpn)
        victim = self.l2_tlb.insert(entry)
        if not refresh:
            # Refreshes must not re-register with the tracker: the filter
            # stores one fingerprint per resident translation.
            policy.on_l2_fill(self, entry)
        if victim is not None:
            policy.on_l2_eviction(self, victim)

    def _translation_done(self, cu: ComputeUnit, measured: bool) -> None:
        cu.outstanding -= 1
        self._finish_run(cu, measured)
        if cu.waiting_for_slot and cu.outstanding < cu.slots:
            cu.waiting_for_slot = False
            if not self.system.halted:
                now = self.system.queue.now
                self.system.queue.schedule(max(now, cu.ready_time), self._issue, cu)

    def _finish_run(self, cu: ComputeUnit, measured: bool) -> None:
        # Every retired run is forward progress; the watchdog stalls out
        # only when this marker stops moving.
        self.system.progress_marker += 1
        if measured:
            cu.measured_remaining -= 1
            if cu.measured_remaining == 0:
                self.system.note_cu_first_run_done(cu)

    # -- services for policies ------------------------------------------------

    def probe_l2(self, pid: int, vpn: int, *, remove_on_hit: bool) -> TLBEntry | None:
        """A remote probe against this GPU's L2 TLB.

        Does not perturb the application's own hit/miss statistics.  In
        multi-application mode the hit entry migrates to the requester
        (``remove_on_hit=True``); in single-application mode it stays and is
        refreshed, since shared translations are kept in both L2s."""
        entry = self.l2_tlb.peek(pid, vpn)
        if entry is None:
            return None
        if remove_on_hit:
            self.l2_tlb.remove(pid, vpn)
        else:
            self.l2_tlb.touch(pid, vpn)
        return entry

    def invalidate(self, pid: int, vpn: int) -> bool:
        """Back-invalidation (strictly-inclusive ablation / TLB shootdown).
        Removes the translation from the L2 and every CU's L1."""
        found = self.l2_tlb.remove(pid, vpn) is not None
        for l1 in self.l1_tlbs.values():
            found = (l1.remove(pid, vpn) is not None) or found
        return found

    def shootdown(self, pid: int | None = None) -> None:
        """Full local TLB shootdown (Section 4.4)."""
        if pid is None:
            self.l2_tlb.invalidate_all()
            for l1 in self.l1_tlbs.values():
                l1.invalidate_all()
        else:
            self.l2_tlb.invalidate_pid(pid)
            for l1 in self.l1_tlbs.values():
                l1.invalidate_pid(pid)
        self.system.policy.on_gpu_shootdown(self.gpu_id, pid)
