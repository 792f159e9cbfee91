"""Unit and differential tests for the flat page tables.

The oracle is a real multi-level radix tree, whose walk reports the level
where it found a hole.  The flat table must agree with it on every PPN,
walk depth and fault, and on the frame allocator, for VPNs inside the
radix range.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.page_table import PageTableManager, WalkResult


class RadixPageTable:
    """Reference radix page table of one address space."""

    def __init__(self, levels: int = 4, bits_per_level: int = 9) -> None:
        self.levels = levels
        self.bits_per_level = bits_per_level
        self._root: dict = {}
        self._mapped = 0

    def _indices(self, vpn: int) -> list[int]:
        mask = (1 << self.bits_per_level) - 1
        shifts = range((self.levels - 1) * self.bits_per_level, -1, -self.bits_per_level)
        return [(vpn >> s) & mask for s in shifts]

    def map(self, vpn: int, ppn: int) -> None:
        node = self._root
        indices = self._indices(vpn)
        for index in indices[:-1]:
            node = node.setdefault(index, {})
        if indices[-1] not in node:
            self._mapped += 1
        node[indices[-1]] = ppn

    def walk(self, vpn: int) -> WalkResult:
        node = self._root
        indices = self._indices(vpn)
        touched = 0
        for index in indices[:-1]:
            touched += 1
            child = node.get(index)
            if child is None:
                return WalkResult(ppn=None, levels_touched=touched, faulted=True)
            node = child
        touched += 1
        ppn = node.get(indices[-1])
        if ppn is None:
            return WalkResult(ppn=None, levels_touched=touched, faulted=True)
        return WalkResult(ppn=ppn, levels_touched=touched, faulted=False)

    def translate(self, vpn: int) -> int | None:
        return self.walk(vpn).ppn


class RadixPageTableManager:
    """Reference per-process radix tables plus the frame allocator."""

    def __init__(self, levels: int = 4, bits_per_level: int = 9) -> None:
        self.levels = levels
        self.bits_per_level = bits_per_level
        self._tables: dict[int, RadixPageTable] = {}
        self._next_ppn = 1

    def table_for(self, pid: int) -> RadixPageTable:
        table = self._tables.get(pid)
        if table is None:
            table = RadixPageTable(self.levels, self.bits_per_level)
            self._tables[pid] = table
        return table

    def map_page(self, pid: int, vpn: int) -> int:
        table = self.table_for(pid)
        existing = table.translate(vpn)
        if existing is not None:
            return existing
        ppn = self._next_ppn
        self._next_ppn += 1
        table.map(vpn, ppn)
        return ppn

    def prefault(self, pid: int, vpns) -> int:
        table = self.table_for(pid)
        created = 0
        for vpn in vpns:
            if table.translate(vpn) is None:
                table.map(vpn, self._next_ppn)
                self._next_ppn += 1
                created += 1
        return created

    def walk(self, pid: int, vpn: int) -> WalkResult:
        table = self._tables.get(pid)
        if table is None:
            return WalkResult(ppn=None, levels_touched=1, faulted=True)
        return table.walk(vpn)

    @property
    def total_mapped_pages(self) -> int:
        return sum(t._mapped for t in self._tables.values())


def _run_against_oracle(levels: int, bits: int, ops: list[tuple]) -> None:
    """Apply ``ops`` to a flat table and the radix oracle; after every step,
    compare the step's result, the probe walk (if any), the mapped-page
    count and the allocator position.

    A probe that misses builds the prefix sets, so ``None`` probes keep a
    later install ahead of the first fault."""
    flat = PageTableManager(levels, bits)
    oracle = RadixPageTableManager(levels, bits)
    for op, pid, arg, probe in ops:
        if op == "prefault":
            assert flat.prefault(pid, arg) == oracle.prefault(pid, arg)
        elif op == "map":
            assert flat.map_page(pid, arg) == oracle.map_page(pid, arg)
        elif op == "install":
            vpn, ppn = arg
            flat.install(pid, vpn, ppn)
            oracle.table_for(pid).map(vpn, ppn)
        else:
            assert flat.walk(pid, arg) == oracle.walk(pid, arg)
        if probe is not None:
            assert flat.walk(pid, probe) == oracle.walk(pid, probe)
        assert flat.total_mapped_pages == oracle.total_mapped_pages
        assert flat.next_ppn == oracle._next_ppn


@st.composite
def _table_ops(draw):
    levels = draw(st.integers(2, 4))
    bits = draw(st.integers(2, 9))
    mask = (1 << bits) - 1
    # Each radix index is one of three values, so drawn VPNs share prefixes
    # (and leave holes) at every level.
    index = st.sampled_from(sorted({0, 1, mask}))
    vpn = st.lists(index, min_size=levels, max_size=levels).map(
        lambda idx: sum(i << (bits * (levels - 1 - k)) for k, i in enumerate(idx))
    )
    pid = st.integers(1, 3)
    probe = st.none() | vpn
    op = st.one_of(
        st.tuples(st.just("prefault"), pid, st.lists(vpn, max_size=6), probe),
        st.tuples(st.just("map"), pid, vpn, probe),
        st.tuples(st.just("install"), pid, st.tuples(vpn, st.integers(1, 50)), probe),
        st.tuples(st.just("walk"), pid, vpn, probe),
    )
    return levels, bits, draw(st.lists(op, max_size=25))


class TestFlatMatchesRadix:
    @given(case=_table_ops())
    @settings(max_examples=300, deadline=None)
    def test_interleaved_ops_match_radix_oracle(self, case):
        levels, bits, ops = case
        _run_against_oracle(levels, bits, ops)

    def test_install_before_first_fault(self):
        # The install lands before any fault builds the prefix sets.
        _run_against_oracle(3, 2, [
            ("prefault", 1, [0b000000], None),
            ("install", 1, (0b010000, 9), None),
            ("walk", 1, 0b010100, 0b100000),
        ])

    def test_install_after_first_fault(self):
        # The first fault builds the prefix sets; the install must update them.
        _run_against_oracle(3, 2, [
            ("prefault", 1, [0b000000], None),
            ("walk", 1, 0b010000, None),
            ("install", 1, (0b010000, 9), 0b010001),
            ("map", 1, 0b100000, 0b100100),
            ("walk", 1, 0b100001, 0b110000),
        ])


class TestPageTable:
    def test_map_translate(self):
        table = PageTableManager()
        table.install(1, 0x1234, 99)
        assert table.translate(1, 0x1234) == 99
        assert table.translate(1, 0x1235) is None

    def test_walk_full_depth_on_hit(self):
        table = PageTableManager(levels=4)
        table.install(1, 7, 1)
        result = table.walk(1, 7)
        assert result.hit
        assert result.levels_touched == 4
        assert not result.faulted

    def test_walk_fault_reports_partial_depth(self):
        table = PageTableManager(levels=4, bits_per_level=9)
        table.install(1, 0, 1)
        # A vpn differing at the top level faults at level 1.
        far_vpn = 1 << (3 * 9)
        result = table.walk(1, far_vpn)
        assert result.faulted
        assert result.levels_touched == 1

    def test_walk_fault_at_leaf(self):
        table = PageTableManager(levels=4, bits_per_level=9)
        table.install(1, 0, 1)
        result = table.walk(1, 1)  # same intermediate path, missing leaf
        assert result.faulted
        assert result.levels_touched == 4

    def test_remap_does_not_double_count(self):
        table = PageTableManager()
        table.install(1, 5, 1)
        table.install(1, 5, 2)
        assert table.total_mapped_pages == 1
        assert table.translate(1, 5) == 2

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PageTableManager(levels=0)
        with pytest.raises(ValueError):
            PageTableManager(bits_per_level=0)

    def test_distinct_vpns_distinct_frames(self):
        table = PageTableManager(levels=2, bits_per_level=4)
        for vpn in range(256):
            table.install(1, vpn, vpn + 1)
        assert table.total_mapped_pages == 256
        assert all(table.translate(1, v) == v + 1 for v in range(256))

    def test_vpn_beyond_radix_range_does_not_alias(self):
        # 2 levels of 2 bits cover VPNs 0..15; 16 is its own page, not VPN 0.
        table = PageTableManager(levels=2, bits_per_level=2)
        table.install(1, 0, 1)
        assert table.translate(1, 16) is None
        assert table.walk(1, 16).levels_touched == 1


class TestPageTableManager:
    def test_per_pid_isolation(self):
        manager = PageTableManager()
        ppn_a = manager.map_page(1, 100)
        ppn_b = manager.map_page(2, 100)
        assert ppn_a != ppn_b
        assert manager.walk(1, 100).ppn == ppn_a
        assert manager.walk(2, 100).ppn == ppn_b

    def test_map_is_idempotent(self):
        manager = PageTableManager()
        first = manager.map_page(1, 5)
        second = manager.map_page(1, 5)
        assert first == second

    def test_unknown_pid_faults_at_first_level(self):
        manager = PageTableManager()
        result = manager.walk(42, 0)
        assert result.faulted
        assert result.levels_touched == 1

    def test_prefault(self):
        manager = PageTableManager()
        created = manager.prefault(1, range(100))
        assert created == 100
        assert manager.prefault(1, range(100)) == 0
        assert manager.total_mapped_pages == 100

    def test_frames_never_zero(self):
        manager = PageTableManager()
        assert manager.map_page(1, 0) >= 1
