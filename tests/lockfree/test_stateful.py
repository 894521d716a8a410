"""Hypothesis stateful (model-based) tests for the lock-free
structures — arbitrary operation sequences against reference models —
plus seeded *concurrent* property tests: real thread interleavings
driven by :func:`repro.util.rng.seeded_rng` schedules, checking the
invariants that matter under contention (bounded capacity, per-producer
FIFO order, no lost/duplicated items, exclusive slot ownership, and
safe slot reuse-after-free)."""

import threading
import time

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.request_pool import OffloadError, OffloadRequest, \
    OffloadRequestPool
from repro.lockfree.freelist import FreeList, FreeListExhausted
from repro.lockfree.mpsc_queue import MPSCQueue, QueueFull
from repro.util.rng import seeded_rng

pytestmark = pytest.mark.deadline(150)

CAP = 8


class FreeListMachine(RuleBasedStateMachine):
    """alloc/free in any order must behave like a set of slots."""

    def __init__(self):
        super().__init__()
        self.fl = FreeList(CAP)
        self.live: set[int] = set()

    @rule()
    def alloc(self):
        if len(self.live) < CAP:
            idx = self.fl.alloc()
            assert idx not in self.live
            assert 0 <= idx < CAP
            self.live.add(idx)
        else:
            with pytest.raises(FreeListExhausted):
                self.fl.alloc()

    @rule(data=st.data())
    def free(self, data):
        if self.live:
            idx = data.draw(st.sampled_from(sorted(self.live)))
            self.fl.free(idx)
            self.live.discard(idx)

    @invariant()
    def counts_consistent(self):
        assert self.fl.free_count() == CAP - len(self.live)
        assert self.fl.allocated == len(self.live)


class QueueMachine(RuleBasedStateMachine):
    """Sequential MPSC queue vs a bounded FIFO list model."""

    def __init__(self):
        super().__init__()
        self.q = MPSCQueue(CAP)
        self.model: list[int] = []
        self.counter = 0

    @rule()
    def enqueue(self):
        if len(self.model) < CAP:
            self.q.enqueue(self.counter)
            self.model.append(self.counter)
        else:
            with pytest.raises(QueueFull):
                self.q.enqueue(self.counter)
        self.counter += 1

    @rule()
    def dequeue(self):
        ok, item = self.q.try_dequeue()
        if self.model:
            assert ok and item == self.model.pop(0)
        else:
            assert not ok

    @invariant()
    def occupancy_matches(self):
        assert len(self.q) == len(self.model)


TestFreeListStateful = FreeListMachine.TestCase
TestQueueStateful = QueueMachine.TestCase

for cls in (TestFreeListStateful, TestQueueStateful):
    cls.settings = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# Seeded concurrent property tests: real threads, randomized interleavings
# ---------------------------------------------------------------------------

def _jitter(rng, every: float = 0.05, upto: float = 2e-4) -> None:
    """Occasionally yield/sleep to shake up the thread interleaving."""
    p = rng.random()
    if p < every:
        time.sleep(rng.random() * upto)
    elif p < 3 * every:
        time.sleep(0)  # bare yield


class TestQueueConcurrentProperties:
    """MPSCQueue under N real producers + 1 consumer.

    Invariants: nothing lost, nothing duplicated, items from any one
    producer dequeue in that producer's order (per-producer FIFO), and
    the occupancy high-water mark never exceeds capacity.
    """

    NPRODUCERS = 4
    ITEMS = 400

    @pytest.mark.parametrize("test_seed", [0, 1, 2], indirect=True)
    def test_no_loss_no_dup_fifo_per_producer(self, test_seed):
        seed = test_seed
        q: MPSCQueue = MPSCQueue(16)
        consumed: list[tuple[int, int]] = []
        stop = threading.Event()

        def producer(tid: int) -> None:
            rng = seeded_rng("mpsc-prop", seed, tid)
            for i in range(self.ITEMS):
                while True:
                    try:
                        q.enqueue((tid, i))
                        break
                    except QueueFull:
                        time.sleep(1e-5)  # backpressure
                _jitter(rng)

        def consumer() -> None:
            rng = seeded_rng("mpsc-prop-consumer", seed)
            while not (stop.is_set() and q.empty()):
                ok, item = q.try_dequeue()
                if ok:
                    consumed.append(item)
                else:
                    time.sleep(1e-5)
                _jitter(rng)
            consumed.extend(q.drain())

        threads = [
            threading.Thread(target=producer, args=(t,))
            for t in range(self.NPRODUCERS)
        ]
        ct = threading.Thread(target=consumer)
        ct.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "producer hung"
        stop.set()
        ct.join(timeout=60)
        assert not ct.is_alive(), "consumer hung"

        expected = self.NPRODUCERS * self.ITEMS
        assert len(consumed) == expected  # nothing lost
        assert len(set(consumed)) == expected  # nothing duplicated
        per_producer: dict[int, list[int]] = {
            t: [] for t in range(self.NPRODUCERS)
        }
        for tid, i in consumed:
            per_producer[tid].append(i)
        for tid, seqs in per_producer.items():
            assert seqs == sorted(seqs), f"producer {tid} reordered"
        assert 1 <= q.occupancy_hwm <= q.capacity
        assert q.empty()


class TestFreeListConcurrentProperties:
    """FreeList under allocation contention.

    An owner array makes a double-allocation visible: if two threads
    ever hold the same slot at once, the second to claim it observes a
    non-None owner.  After the storm the list must be whole again.
    """

    NTHREADS = 4
    CYCLES = 300
    CAPACITY = 8

    @pytest.mark.parametrize("test_seed", [0, 1], indirect=True)
    def test_no_double_alloc_and_full_recovery(self, test_seed):
        seed = test_seed
        fl: FreeList = FreeList(self.CAPACITY)
        owner: list[int | None] = [None] * self.CAPACITY
        violations: list[str] = []

        def worker(tid: int) -> None:
            rng = seeded_rng("freelist-prop", seed, tid)
            held: list[int] = []
            for _ in range(self.CYCLES):
                if held and (
                    len(held) >= self.CAPACITY // 2 or rng.random() < 0.5
                ):
                    idx = held.pop(int(rng.integers(len(held))))
                    if owner[idx] != tid:
                        violations.append(
                            f"slot {idx}: freed by {tid}, "
                            f"owned by {owner[idx]}"
                        )
                    owner[idx] = None
                    fl.free(idx)
                else:
                    try:
                        idx = fl.alloc()
                    except FreeListExhausted:
                        continue
                    if owner[idx] is not None:
                        violations.append(
                            f"slot {idx}: allocated to {tid} while "
                            f"owned by {owner[idx]}"
                        )
                    owner[idx] = tid
                    held.append(idx)
                _jitter(rng)
            for idx in held:
                owner[idx] = None
                fl.free(idx)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(self.NTHREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "worker hung"

        assert violations == []
        assert fl.free_count() == self.CAPACITY
        assert fl.allocated == 0
        assert owner == [None] * self.CAPACITY


class TestPoolSlotReuse:
    """Slot reuse-after-free must be safe *for the new owner* and
    loudly rejected for the stale handle (generation guard)."""

    def test_stale_handle_rejected_after_slot_reuse(self):
        pool = OffloadRequestPool(capacity=1)
        idx = pool.alloc()
        old = OffloadRequest(pool, idx)
        pool.complete(idx, None)
        assert old.test()[0]  # completes and releases slot 0
        # slot 0 is recycled to a new request with a bumped generation
        idx2 = pool.alloc()
        assert idx2 == idx
        new = OffloadRequest(pool, idx2)
        with pytest.raises(OffloadError):
            old.done  # stale: generation mismatch
        with pytest.raises(OffloadError):
            old.test()
        with pytest.raises(OffloadError):
            old.wait(timeout=0.1)
        # the new handle is unaffected by the stale accesses
        pool.complete(idx2, None)
        assert new.wait(timeout=5) is not None

    def test_completed_twice_guard(self):
        pool = OffloadRequestPool(capacity=2)
        idx = pool.alloc()
        req = OffloadRequest(pool, idx)
        pool.complete(idx, None)
        req.wait(timeout=5)
        with pytest.raises(OffloadError):
            req.wait(timeout=5)

    @pytest.mark.parametrize("test_seed", [0], indirect=True)
    def test_concurrent_recycling_keeps_generations_distinct(
        self, test_seed
    ):
        """Threads hammer a tiny pool through alloc/complete/release
        cycles; every retained stale handle must raise, and the pool
        must end fully free."""
        seed = test_seed
        pool = OffloadRequestPool(capacity=2)
        stale: list[OffloadRequest] = []
        stale_lock = threading.Lock()

        def worker(tid: int) -> None:
            rng = seeded_rng("pool-prop", seed, tid)
            for _ in range(200):
                try:
                    idx = pool.alloc()
                except FreeListExhausted:
                    time.sleep(1e-5)
                    continue
                req = OffloadRequest(pool, idx)
                pool.complete(idx, None)
                req.wait(timeout=10)  # releases the slot
                if rng.random() < 0.2:
                    with stale_lock:
                        stale.append(req)
                _jitter(rng)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "worker hung"

        assert pool.allocated == 0
        assert len(stale) > 0
        for req in stale:
            with pytest.raises(OffloadError):
                req.test()
