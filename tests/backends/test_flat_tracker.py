"""Differential equivalence of the shared partitioned cuckoo tracker.

Both replay backends run the Local TLB Tracker on
:class:`repro.structures.cuckoo_filter.PartitionedCuckooFilter`: memoised
hash geometry shared by all partitions, a ``_splitmix64(fp)`` table, and
direct ``getrandbits`` draws in place of ``Random.choice`` /
``Random.randrange``.  That last substitution leans on CPython's
``_randbelow_with_getrandbits`` rejection loop, so these tests pin the full
equivalence — bucket-for-bucket contents, query results, tracker counters
and per-partition overflow counters — against one reference
:class:`CuckooFilter` per partition under randomized operation streams.
An interpreter that changed ``_randbelow`` would fail here rather than
silently diverge.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import TrackerConfig
from repro.core.tracker import LocalTLBTracker
from repro.structures.cuckoo_filter import CuckooFilter, PartitionedCuckooFilter

NUM_GPUS = 2

ops_st = st.lists(
    st.tuples(
        # Registers dominate and streams are long, so partitions fill and
        # relocate; rare clears hit the shootdown paths (one partition, or
        # all of them).
        st.sampled_from(["register"] * 8 + ["unregister", "query"] * 2
                        + ["clear", "clear_all"]),
        st.integers(0, NUM_GPUS - 1),  # gpu_id
        st.integers(1, 2),      # pid
        st.integers(0, 40),     # vpn
    ),
    min_size=40,
    max_size=160,
)


def small_config(bucket_size: int) -> TrackerConfig:
    """Deliberately tiny partitions (4 buckets each) so register streams
    overflow buckets and exercise the cuckoo relocation (RNG) path, not
    just direct inserts.  ``_randbelow(n)`` draws ``n.bit_length()`` bits
    and redraws values ``>= n``: half the slot draws for bucket sizes 2
    and 4 (the paper's), a quarter for size 3, which is not a power of
    two."""
    return TrackerConfig(total_entries=NUM_GPUS * 4 * bucket_size,
                         bucket_size=bucket_size, fingerprint_bits=4, kind="cuckoo")


class ReferenceTracker:
    """The tracker protocol over one reference :class:`CuckooFilter` per
    partition, seeded ``seed + gpu`` as the shared class documents."""

    def __init__(self, config: TrackerConfig, seed: int):
        per_gpu = config.total_entries // NUM_GPUS
        self.filters = [
            CuckooFilter(per_gpu, config.bucket_size, config.fingerprint_bits, seed=seed + g)
            for g in range(NUM_GPUS)
        ]
        self.registrations = self.unregistrations = 0
        self.queries = self.positives = self.multi_positives = 0

    def apply(self, op, gpu_id, pid, vpn):
        if op == "register":
            self.registrations += 1
            self.filters[gpu_id].insert(pid, vpn)
        elif op == "unregister":
            self.unregistrations += 1
            self.filters[gpu_id].delete(pid, vpn)
        elif op == "clear":
            self.filters[gpu_id].clear()
        elif op == "clear_all":
            for filt in self.filters:
                filt.clear()
        else:
            return self.query(pid, vpn)

    def query(self, pid, vpn):
        self.queries += 1
        found = [g for g, filt in enumerate(self.filters) if filt.contains(pid, vpn)]
        if found:
            self.positives += 1
            self.multi_positives += len(found) > 1
        return found


def apply(tracker: LocalTLBTracker, op, gpu_id, pid, vpn):
    if op == "register":
        tracker.register(gpu_id, pid, vpn)
    elif op == "unregister":
        tracker.unregister(gpu_id, pid, vpn)
    elif op == "clear":
        tracker.clear(gpu_id)
    elif op == "clear_all":
        tracker.clear()
    else:
        return tracker.query(pid, vpn)


def assert_equivalent(tracker: LocalTLBTracker, ref: ReferenceTracker):
    filters = tracker._filters
    assert isinstance(filters, PartitionedCuckooFilter)
    # Bucket contents, order included — it decides future kicks and deletes.
    for gpu_id, filt in enumerate(ref.filters):
        assert filters.buckets[gpu_id] == filt._buckets
        assert filters.displaced[gpu_id] == filt.stats.displaced
        assert filters.failed_deletions[gpu_id] == filt.stats.failed_deletions
        assert tracker.occupancy(gpu_id) == len(filt)
    assert tracker.stats.registrations == ref.registrations
    assert tracker.stats.unregistrations == ref.unregistrations
    assert tracker.stats.queries == ref.queries
    assert tracker.stats.positives == ref.positives
    assert tracker.stats.multi_positives == ref.multi_positives


@given(ops=ops_st, seed=st.integers(0, 7), bucket_size=st.sampled_from([2, 3, 4]))
@settings(max_examples=100, deadline=None)
def test_flat_tracker_matches_object_model(ops, seed, bucket_size):
    config = small_config(bucket_size)
    tracker = LocalTLBTracker(config, num_gpus=NUM_GPUS, seed=seed)
    ref = ReferenceTracker(config, seed)
    for op in ops:
        assert apply(tracker, *op) == ref.apply(*op)
    assert_equivalent(tracker, ref)
    # Post-state queries agree across the whole key domain.
    for pid in (1, 2):
        for vpn in range(41):
            assert tracker.query(pid, vpn) == ref.query(pid, vpn)


def test_relocation_exhaustion_matches_reference():
    # Filling every partition far past capacity takes the kick loop to
    # its bound (displaced > 0); deleting everything afterwards misses
    # the displaced fingerprints (failed_deletions > 0).
    for bucket_size in (2, 3, 4):
        config = small_config(bucket_size)
        tracker = LocalTLBTracker(config, num_gpus=NUM_GPUS, seed=5)
        ref = ReferenceTracker(config, seed=5)
        keys = [(pid, vpn) for pid in (1, 2) for vpn in range(41)]
        for op in ("register", "unregister"):
            for gpu_id in range(NUM_GPUS):
                for pid, vpn in keys:
                    apply(tracker, op, gpu_id, pid, vpn)
                    ref.apply(op, gpu_id, pid, vpn)
        assert_equivalent(tracker, ref)
        assert min(tracker._filters.displaced) > 0
        assert min(tracker._filters.failed_deletions) > 0


def test_partition_sizing_matches_tracker():
    # 100 entries over 3 GPUs with bucket size 4 → 32 per partition
    # (rounded down to a bucket multiple) → 8 buckets each.
    config = TrackerConfig(total_entries=100, bucket_size=4,
                           fingerprint_bits=6, kind="cuckoo")
    tracker = LocalTLBTracker(config, num_gpus=3, seed=0)
    filters = tracker._filters
    assert isinstance(filters, PartitionedCuckooFilter)
    assert filters.num_partitions == 3
    assert filters.num_buckets == 8
    assert filters.bucket_size == config.bucket_size
    assert tracker.size_bytes() == 3 * CuckooFilter(32, 4, 6).size_bytes()
