"""The Local TLB Tracker (Section 4.1).

A hardware structure in the IOMMU recording which translations currently
live in which GPU's L2 TLB, so the least-inclusive hierarchy can still
support cross-GPU translation sharing: an IOMMU TLB miss that hits the
tracker is forwarded to the indicated GPU's L2 instead of paying a walk.

The paper implements the tracker as a 2048-entry cuckoo filter divided
equally among the GPUs (≈1.08 KB, ≈0.2 false-positive probability).  The
``kind`` knob also offers a counting-Bloom-filter variant and a ``perfect``
oracle for the tracker ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.system import TrackerConfig
from repro.structures.bloom_filter import CountingBloomFilter
from repro.structures.cuckoo_filter import PartitionedCuckooFilter


class _PerfectFilter:
    """Oracle membership: exact set semantics, zero hardware realism."""

    __slots__ = ("_keys",)

    def __init__(self) -> None:
        self._keys: set[tuple[int, int]] = set()

    def insert(self, pid: int, vpn: int) -> bool:
        self._keys.add((pid, vpn))
        return True

    def contains(self, pid: int, vpn: int) -> bool:
        return (pid, vpn) in self._keys

    def delete(self, pid: int, vpn: int) -> bool:
        try:
            self._keys.remove((pid, vpn))
            return True
        except KeyError:
            return False

    def clear(self) -> None:
        self._keys.clear()

    def __len__(self) -> int:
        return len(self._keys)

    def size_bytes(self) -> float:
        return float("inf")


class _FilterPartitions:
    """One filter per GPU behind :class:`PartitionedCuckooFilter`'s
    interface (the bloom and perfect ablations)."""

    __slots__ = ("_filters",)

    def __init__(self, filters: list[CountingBloomFilter | _PerfectFilter]) -> None:
        self._filters = filters

    def insert(self, partition: int, pid: int, vpn: int) -> bool:
        return self._filters[partition].insert(pid, vpn)

    def delete(self, partition: int, pid: int, vpn: int) -> bool:
        return self._filters[partition].delete(pid, vpn)

    def query(self, pid: int, vpn: int) -> list[int]:
        return [p for p, filt in enumerate(self._filters) if filt.contains(pid, vpn)]

    def clear(self, partition: int | None = None) -> None:
        for filt in self._filters if partition is None else [self._filters[partition]]:
            filt.clear()

    def occupancy(self, partition: int) -> int:
        return len(self._filters[partition])

    def size_bytes(self) -> float:
        return sum(filt.size_bytes() for filt in self._filters)


@dataclass(slots=True)
class TrackerStats:
    """Aggregate operation counts across all tracker partitions."""

    registrations: int = 0
    unregistrations: int = 0
    queries: int = 0
    positives: int = 0
    multi_positives: int = 0


class LocalTLBTracker:
    """Per-GPU membership filters over L2 TLB contents."""

    def __init__(self, config: TrackerConfig, num_gpus: int, seed: int = 0) -> None:
        if num_gpus <= 0:
            raise ValueError(f"num_gpus must be positive: {num_gpus}")
        self.config = config
        self.num_gpus = num_gpus
        per_gpu = max(config.bucket_size, config.total_entries // num_gpus)
        # Round down to a bucket multiple so the cuckoo geometry is valid.
        per_gpu -= per_gpu % config.bucket_size
        self._filters: PartitionedCuckooFilter | _FilterPartitions
        if config.kind == "cuckoo":
            self._filters = PartitionedCuckooFilter(
                num_gpus, per_gpu, config.bucket_size, config.fingerprint_bits, seed=seed
            )
        else:
            self._filters = _FilterPartitions([
                CountingBloomFilter(num_cells=per_gpu * 2, num_hashes=2)
                if config.kind == "bloom" else _PerfectFilter()
                for _ in range(num_gpus)
            ])
        self.stats = TrackerStats()

    # -- protocol operations ---------------------------------------------------

    def register(self, gpu_id: int, pid: int, vpn: int) -> None:
        """A translation entered ``gpu_id``'s L2 TLB."""
        self.stats.registrations += 1
        self._filters.insert(gpu_id, pid, vpn)

    def unregister(self, gpu_id: int, pid: int, vpn: int) -> None:
        """A translation left ``gpu_id``'s L2 TLB."""
        self.stats.unregistrations += 1
        self._filters.delete(gpu_id, pid, vpn)

    def query(self, pid: int, vpn: int) -> list[int]:
        """GPUs whose filter reports the translation resident.

        May contain false positives (fingerprint aliasing) — the protocol
        tolerates this by racing the walk with the remote probe.
        """
        self.stats.queries += 1
        positives = self._filters.query(pid, vpn)
        if positives:
            self.stats.positives += 1
            if len(positives) > 1:
                self.stats.multi_positives += 1
        return positives

    def clear(self, gpu_id: int | None = None) -> None:
        """Shootdown handling: reset one GPU's partition or all of them."""
        self._filters.clear(gpu_id)

    # -- introspection -------------------------------------------------------------

    def occupancy(self, gpu_id: int) -> int:
        return self._filters.occupancy(gpu_id)

    def size_bytes(self) -> float:
        """Total tracker storage (the paper reports 1.08 KB)."""
        return self._filters.size_bytes()
