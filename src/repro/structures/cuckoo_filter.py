"""Cuckoo filter (Fan et al., CoNEXT'14) used by the Local TLB Tracker.

The paper's tracker stores *fingerprints* of the translations resident in
each GPU's L2 TLB (Section 4.1).  A cuckoo filter supports the three
operations the tracker needs — insert, membership test, and delete — in a
fixed hardware budget (2048 entries total, ~1.08 KB, ≈0.2 false-positive
probability in the paper's configuration).

Two imperfections of the structure are deliberately modelled because the
paper's protocol depends on them being tolerable:

* **False positives** — distinct keys can share a fingerprint and bucket
  pair, so a membership test may wrongly report presence.  The protocol
  hides the cost by racing the remote lookup with the page-table walk.
* **False negatives after overflow or aliased deletes** — when both candidate
  buckets are full and the relocation chain exceeds ``max_kicks``, a resident
  fingerprint is displaced (the victim key is silently forgotten); deleting a
  key may likewise remove an aliased twin's fingerprint.  A tracker miss only
  costs a page-table walk, so correctness is unaffected.

:class:`CuckooFilter` is the single-filter reference model; every backend's
tracker runs on :class:`PartitionedCuckooFilter`, bit-identical to one per GPU.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


#: Relocation-chain bound, shared so the tracker and the reference agree.
MAX_KICKS = 64


def _splitmix64(x: int) -> int:
    """A strong, seedable 64-bit mixer (deterministic across runs, unlike
    Python's builtin ``hash`` for strings)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _check_geometry(num_entries: int, bucket_size: int, fingerprint_bits: int) -> None:
    if num_entries <= 0 or num_entries % bucket_size != 0:
        raise ValueError(
            f"num_entries {num_entries} must be a positive multiple of "
            f"bucket_size {bucket_size}"
        )
    if not 2 <= fingerprint_bits <= 32:
        raise ValueError(f"fingerprint_bits out of range: {fingerprint_bits}")


@dataclass(slots=True)
class CuckooFilterStats:
    """Operation accounting for one filter instance."""

    insertions: int = 0
    deletions: int = 0
    failed_deletions: int = 0
    displaced: int = 0  # fingerprints lost to overflow (false-negative risk)
    queries: int = 0
    positives: int = 0


class CuckooFilter:
    """A bucketised cuckoo filter over ``(pid, vpn)`` translation keys.

    Parameters
    ----------
    num_entries:
        Total fingerprint slots (buckets × bucket_size).  The paper uses 2048
        slots split evenly across GPUs.
    bucket_size:
        Slots per bucket (4 in the canonical design).
    fingerprint_bits:
        Width of the stored fingerprint.  Smaller fingerprints save area but
        raise the false-positive probability; 6 bits lands near the paper's
        0.2 figure under high occupancy.
    """

    __slots__ = (
        "num_buckets",
        "bucket_size",
        "fingerprint_bits",
        "max_kicks",
        "_fp_mask",
        "_buckets",
        "_rng",
        "stats",
    )

    def __init__(
        self,
        num_entries: int = 512,
        bucket_size: int = 4,
        fingerprint_bits: int = 6,
        max_kicks: int = MAX_KICKS,
        seed: int = 0,
    ) -> None:
        _check_geometry(num_entries, bucket_size, fingerprint_bits)
        self.num_buckets = num_entries // bucket_size
        self.bucket_size = bucket_size
        self.fingerprint_bits = fingerprint_bits
        self.max_kicks = max_kicks
        self._fp_mask = (1 << fingerprint_bits) - 1
        self._buckets: list[list[int]] = [[] for _ in range(self.num_buckets)]
        self._rng = random.Random(seed)
        self.stats = CuckooFilterStats()

    # -- hashing -----------------------------------------------------------

    def _key_hash(self, pid: int, vpn: int) -> int:
        return _splitmix64((pid << 48) ^ vpn)

    def _fingerprint(self, pid: int, vpn: int) -> int:
        # Drawn from the HIGH bits of the key hash while the bucket index
        # uses the low bits — deriving both from the same bits would
        # correlate fingerprint with bucket and break the false-positive
        # bound.  A fingerprint of zero is avoided so hardware-faithful
        # encodings remain possible.
        fp = (self._key_hash(pid, vpn) >> 40) & self._fp_mask
        return fp if fp != 0 else 1

    def _index_pair(self, pid: int, vpn: int, fp: int) -> tuple[int, int]:
        i1 = self._key_hash(pid, vpn) % self.num_buckets
        i2 = (i1 ^ _splitmix64(fp)) % self.num_buckets
        return i1, i2

    def _alt_index(self, index: int, fp: int) -> int:
        return (index ^ _splitmix64(fp)) % self.num_buckets

    # -- operations ---------------------------------------------------------

    def insert(self, pid: int, vpn: int) -> bool:
        """Insert a key.  Returns ``False`` when an unrelated fingerprint had
        to be displaced to make room (a future false negative for its key);
        the new key itself is always stored."""
        fp = self._fingerprint(pid, vpn)
        i1, i2 = self._index_pair(pid, vpn, fp)
        self.stats.insertions += 1
        for index in (i1, i2):
            if len(self._buckets[index]) < self.bucket_size:
                self._buckets[index].append(fp)
                return True
        # Both buckets full: relocate resident fingerprints cuckoo-style.
        index = self._rng.choice((i1, i2))
        for _ in range(self.max_kicks):
            slot = self._rng.randrange(self.bucket_size)
            fp, self._buckets[index][slot] = self._buckets[index][slot], fp
            index = self._alt_index(index, fp)
            if len(self._buckets[index]) < self.bucket_size:
                self._buckets[index].append(fp)
                return True
        # Relocation chain exhausted: drop the orphaned fingerprint.  Its
        # original key becomes a false negative, which the translation
        # protocol tolerates (the PTW path always races the tracker).
        self.stats.displaced += 1
        return False

    def contains(self, pid: int, vpn: int) -> bool:
        """Membership test (may return false positives)."""
        fp = self._fingerprint(pid, vpn)
        i1, i2 = self._index_pair(pid, vpn, fp)
        self.stats.queries += 1
        found = fp in self._buckets[i1] or fp in self._buckets[i2]
        if found:
            self.stats.positives += 1
        return found

    def delete(self, pid: int, vpn: int) -> bool:
        """Remove one copy of the key's fingerprint.

        Returns ``False`` if no matching fingerprint was present (the key was
        never inserted, or its fingerprint was displaced earlier).
        """
        fp = self._fingerprint(pid, vpn)
        i1, i2 = self._index_pair(pid, vpn, fp)
        for index in (i1, i2):
            bucket = self._buckets[index]
            if fp in bucket:
                bucket.remove(fp)
                self.stats.deletions += 1
                return True
        self.stats.failed_deletions += 1
        return False

    def clear(self) -> None:
        """Reset the filter (IOMMU TLB shootdown path, Section 4.4)."""
        for bucket in self._buckets:
            bucket.clear()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets)

    @property
    def capacity(self) -> int:
        """Total fingerprint slots."""
        return self.num_buckets * self.bucket_size

    def load_factor(self) -> float:
        """Occupied fraction of the fingerprint slots."""
        return len(self) / self.capacity

    def size_bytes(self) -> float:
        """Storage cost in bytes (fingerprints only, as the paper counts)."""
        return self.capacity * self.fingerprint_bits / 8


class PartitionedCuckooFilter:
    """``num_partitions`` cuckoo filters of one geometry (the tracker's
    per-GPU partitions).  Partition ``p`` is bit-identical to
    ``CuckooFilter(num_entries, bucket_size, fingerprint_bits, seed=seed + p)``:
    buckets in the same order, RNG draws, ``displaced`` and
    ``failed_deletions``.  It is faster because:

    * a key's ``(fingerprint, i1, i2)`` depends only on the key and the
      shared bucket count, so it is hashed once per key for all partitions;
    * ``_splitmix64(fp)`` in the alternate index is mixed once per
      fingerprint, then looked up;
    * ``Random.choice(seq)`` and ``Random.randrange(n)`` both reduce to
      ``_randbelow(n)``: ``getrandbits(n.bit_length())`` redrawn while
      ``>= n``.  The kick loop replays those draws on ``getrandbits``;
      ``tests/backends/test_flat_tracker.py`` pins this against the
      reference, so a change to ``_randbelow`` fails there.
    """

    __slots__ = ("num_partitions", "num_buckets", "bucket_size", "fingerprint_bits",
                 "buckets", "displaced", "failed_deletions",
                 "_fp_mask", "_slot_bits", "_rngs", "_alt", "_memo")

    def __init__(self, num_partitions: int, num_entries: int = 512, bucket_size: int = 4,
                 fingerprint_bits: int = 6, seed: int = 0) -> None:
        _check_geometry(num_entries, bucket_size, fingerprint_bits)
        self.num_partitions = num_partitions
        self.num_buckets = num_entries // bucket_size
        self.bucket_size = bucket_size
        self.fingerprint_bits = fingerprint_bits
        self.buckets: list[list[list[int]]] = [
            [[] for _ in range(self.num_buckets)] for _ in range(num_partitions)
        ]
        # Per-partition overflow accounting, as in CuckooFilterStats.
        self.displaced = [0] * num_partitions
        self.failed_deletions = [0] * num_partitions
        self._fp_mask = (1 << fingerprint_bits) - 1
        self._slot_bits = bucket_size.bit_length()
        self._rngs = [random.Random(seed + p) for p in range(num_partitions)]
        self._alt: dict[int, int] = {}
        self._memo: dict[int, tuple[int, int, int]] = {}

    def _locate(self, key: int) -> tuple[int, int, int]:
        key_hash = _splitmix64(key)
        fp = (key_hash >> 40) & self._fp_mask or 1
        # Every fingerprint in a bucket came through here, so the kick
        # loop finds its alternate-index mix in this table.
        alt = self._alt.get(fp)
        if alt is None:
            alt = self._alt[fp] = _splitmix64(fp)
        i1 = key_hash % self.num_buckets
        entry = self._memo[key] = (fp, i1, (i1 ^ alt) % self.num_buckets)
        return entry

    def insert(self, partition: int, pid: int, vpn: int) -> bool:
        """:meth:`CuckooFilter.insert` on one partition."""
        key = (pid << 48) ^ vpn
        fp, i1, i2 = self._memo.get(key) or self._locate(key)
        buckets = self.buckets[partition]
        size = self.bucket_size
        bucket = buckets[i1]
        if len(bucket) < size:
            bucket.append(fp)
            return True
        other = buckets[i2]
        if len(other) < size:
            other.append(fp)
            return True
        grb = self._rngs[partition].getrandbits
        draw = grb(2)  # choice((i1, i2))
        while draw >= 2:
            draw = grb(2)
        index, bucket = (i2, other) if draw else (i1, bucket)
        alt = self._alt
        num_buckets = self.num_buckets
        slot_bits = self._slot_bits
        for _ in range(MAX_KICKS):
            slot = grb(slot_bits)  # randrange(bucket_size)
            while slot >= size:
                slot = grb(slot_bits)
            fp, bucket[slot] = bucket[slot], fp
            index = (index ^ alt[fp]) % num_buckets
            bucket = buckets[index]
            if len(bucket) < size:
                bucket.append(fp)
                return True
        self.displaced[partition] += 1
        return False

    def delete(self, partition: int, pid: int, vpn: int) -> bool:
        """:meth:`CuckooFilter.delete` on one partition."""
        key = (pid << 48) ^ vpn
        fp, i1, i2 = self._memo.get(key) or self._locate(key)
        buckets = self.buckets[partition]
        for bucket in (buckets[i1], buckets[i2]):
            if fp in bucket:
                bucket.remove(fp)
                return True
        self.failed_deletions[partition] += 1
        return False

    def query(self, pid: int, vpn: int) -> list[int]:
        """Partitions that contain the key (false positives included)."""
        key = (pid << 48) ^ vpn
        fp, i1, i2 = self._memo.get(key) or self._locate(key)
        return [p for p, buckets in enumerate(self.buckets)
                if fp in buckets[i1] or fp in buckets[i2]]

    def clear(self, partition: int | None = None) -> None:
        """Reset one partition, or all of them."""
        for buckets in self.buckets if partition is None else (self.buckets[partition],):
            for bucket in buckets:
                bucket.clear()

    def occupancy(self, partition: int) -> int:
        return sum(len(bucket) for bucket in self.buckets[partition])

    def size_bytes(self) -> float:
        """Storage cost of all partitions (fingerprints only)."""
        slots = self.num_partitions * self.num_buckets * self.bucket_size
        return slots * self.fingerprint_bits / 8
