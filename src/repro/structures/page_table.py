"""Per-process page tables: flat storage, radix walk depth derived for latency.

The baseline system keeps all page tables in CPU memory under IOMMU control
(Section 2.1); the Figure 23 variant additionally gives each GPU a local page
table in device memory.  Both variants, and both replay backends, use
:class:`PageTableManager`.

Storage is one ``{vpn: ppn}`` dict per process.  The page-walker latency
model still needs the number of radix levels a walk touched (x86-64-style:
4 levels of 9 bits for 4 KB pages).  A hit touches every level.  A fault
stops at the first level with a hole, and the intermediate nodes of a radix
tree are exactly the level-``k`` VPN prefixes of the mapped pages, since
nothing ever removes a mapping.  Those prefix sets are built on the first
fault per process (a fully pre-faulted run never faults) and kept up to date
by every later mapping.

A VPN is the whole integer: unlike a radix tree, whose per-level indices are
masked, a VPN at or above ``2 ** (levels * bits_per_level)`` does not alias a
lower page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(slots=True)
class WalkResult:
    """Outcome of one page-table walk."""

    ppn: int | None
    levels_touched: int
    faulted: bool

    @property
    def hit(self) -> bool:
        """True when the walk found a mapping."""
        return self.ppn is not None


class PageTableManager:
    """Per-process page tables plus a trivial physical frame allocator.

    The manager is the "operating system" of the simulation: workloads ask
    it to map their footprints (pre-faulted before measurement, as the
    paper's steady-state methodology implies) and the PRI path asks it to
    service demand faults.  ``levels`` and ``bits_per_level`` fix the radix
    geometry the walk latency is billed by; the defaults model 4-level
    x86-64 paging for 4 KB pages.  Large (2 MB) pages are modelled by the
    workload layer dividing the footprint into larger pages (fewer VPNs)
    and the config shortening the walk by one level.
    """

    __slots__ = ("levels", "bits_per_level", "maps", "next_ppn", "_shifts", "_prefixes")

    def __init__(self, levels: int = 4, bits_per_level: int = 9) -> None:
        if levels <= 0:
            raise ValueError(f"levels must be positive, got {levels}")
        if bits_per_level <= 0:
            raise ValueError(f"bits_per_level must be positive, got {bits_per_level}")
        self.levels = levels
        self.bits_per_level = bits_per_level
        self.maps: dict[int, dict[int, int]] = {}
        self.next_ppn = 1  # PPN 0 reserved so a 0 result is never ambiguous
        # Right shift giving a VPN's level-k prefix, for k = 1 .. levels-1.
        self._shifts = [bits_per_level * (levels - k) for k in range(1, levels)]
        self._prefixes: dict[int, list[set[int]]] = {}

    def map_page(self, pid: int, vpn: int) -> int:
        """Allocate a frame for ``(pid, vpn)`` and install the mapping.

        Idempotent: re-mapping an existing page returns the existing frame.
        """
        mapping = self.maps.setdefault(pid, {})
        existing = mapping.get(vpn)
        if existing is not None:
            return existing
        ppn = self.next_ppn
        self.next_ppn += 1
        mapping[vpn] = ppn
        self._note_prefixes(pid, vpn)
        return ppn

    def install(self, pid: int, vpn: int, ppn: int) -> None:
        """Install a given ``vpn → ppn`` mapping, replacing any existing one.

        The Figure 23 device-memory tables copy translations the IOMMU
        resolved; the frame allocator is not consulted.
        """
        self.maps.setdefault(pid, {})[vpn] = ppn
        self._note_prefixes(pid, vpn)

    def prefault(self, pid: int, vpns: Iterable[int]) -> int:
        """Map every VPN in ``vpns``; returns the number of new mappings."""
        mapping = self.maps.setdefault(pid, {})
        first = nxt = self.next_ppn
        for vpn in vpns:
            if vpn not in mapping:
                mapping[vpn] = nxt
                nxt += 1
        self.next_ppn = nxt
        self._prefixes.pop(pid, None)  # rebuilt by the next fault, if any
        return nxt - first

    def walk(self, pid: int, vpn: int) -> WalkResult:
        """Walk ``pid``'s table; an unknown PID faults at the first level."""
        ppn = self.translate(pid, vpn)
        if ppn is not None:
            return WalkResult(ppn=ppn, levels_touched=self.levels, faulted=False)
        return WalkResult(ppn=None, levels_touched=self.fault_levels(pid, vpn), faulted=True)

    def fault_levels(self, pid: int, vpn: int) -> int:
        """``levels_touched`` of a walk that faults on ``(pid, vpn)``: the
        index of the first radix level with a hole."""
        prefixes = self._prefixes.get(pid)
        if prefixes is None:
            mapping = self.maps.get(pid)
            if mapping is None:
                return 1
            prefixes = [{v >> shift for v in mapping} for shift in self._shifts]
            self._prefixes[pid] = prefixes
        for level, (shift, present) in enumerate(zip(self._shifts, prefixes), 1):
            if vpn >> shift not in present:
                return level
        return self.levels

    def translate(self, pid: int, vpn: int) -> int | None:
        """The PPN of ``(pid, vpn)``, or ``None`` if unmapped."""
        mapping = self.maps.get(pid)
        return None if mapping is None else mapping.get(vpn)

    @property
    def total_mapped_pages(self) -> int:
        """Mapped pages across every process."""
        return sum(len(mapping) for mapping in self.maps.values())

    def _note_prefixes(self, pid: int, vpn: int) -> None:
        prefixes = self._prefixes.get(pid)
        if prefixes is not None:
            for shift, present in zip(self._shifts, prefixes):
                present.add(vpn >> shift)
