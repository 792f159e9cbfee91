"""Hardware state structures: TLBs, trackers' filters, and page tables."""

from repro.structures.bloom_filter import CountingBloomFilter
from repro.structures.cuckoo_filter import CuckooFilter, PartitionedCuckooFilter
from repro.structures.page_table import PageTableManager, WalkResult
from repro.structures.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.structures.tlb import (
    InfiniteTLB,
    SetAssociativeTLB,
    TLBEntry,
    TLBStats,
    TranslationKey,
)

__all__ = [
    "CountingBloomFilter",
    "CuckooFilter",
    "PartitionedCuckooFilter",
    "PageTableManager",
    "WalkResult",
    "FIFOPolicy",
    "LRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "make_policy",
    "InfiniteTLB",
    "SetAssociativeTLB",
    "TLBEntry",
    "TLBStats",
    "TranslationKey",
]
