"""Unit tests for the offload request pool and handles."""

import threading

import pytest

from repro.core.request_pool import (
    OffloadError,
    OffloadRequest,
    OffloadRequestPool,
)
from repro.lockfree.freelist import DoubleFree, FreeListExhausted
from repro.mpisim.status import Status


class TestPool:
    def test_alloc_release_cycle(self):
        pool = OffloadRequestPool(4)
        idx = pool.alloc()
        assert pool.allocated == 1
        pool.release(idx)
        assert pool.allocated == 0

    def test_exhaustion(self):
        pool = OffloadRequestPool(2)
        pool.alloc()
        pool.alloc()
        with pytest.raises(FreeListExhausted):
            pool.alloc()

    def test_complete_sets_flag_payload(self):
        pool = OffloadRequestPool(2)
        idx = pool.alloc()
        st = Status(1, 2, 3)
        pool.complete(idx, st)
        assert pool.slot(idx).flag.payload is st

    def test_double_release_raises_typed_error(self):
        # The freelist's live-set guard surfaces through the pool: the
        # second release of one slot fails at its own call site instead
        # of corrupting the free list into a cycle.
        pool = OffloadRequestPool(4)
        idx = pool.alloc()
        pool.release(idx)
        with pytest.raises(DoubleFree):
            pool.release(idx)
        # pool still fully usable afterwards
        got = {pool.alloc() for _ in range(4)}
        assert len(got) == 4
        for i in got:
            pool.release(i)
        assert pool.allocated == 0

    def test_double_release_with_cache_disabled(self):
        pool = OffloadRequestPool(4, cache_size=0)
        idx = pool.alloc()
        pool.release(idx)
        with pytest.raises(DoubleFree):
            pool.release(idx)


class TestThreadCache:
    def test_cached_slots_counted_free(self):
        # Refill leftovers parked in the thread cache must not count
        # as allocated — exhaustion/leak accounting is cache-invisible.
        pool = OffloadRequestPool(8, cache_size=4)
        idx = pool.alloc()
        assert pool.allocated == 1
        pool.release(idx)
        assert pool.allocated == 0

    def test_exhaustion_with_cache(self):
        pool = OffloadRequestPool(2, cache_size=8)
        a = pool.alloc()
        b = pool.alloc()
        assert {a, b} == {0, 1}
        with pytest.raises(FreeListExhausted):
            pool.alloc()

    def test_hit_miss_counters(self):
        """One refill per chunk: a miss moves ``cache_size`` slots into
        the thread's cache, the next three allocations hit it."""
        pool = OffloadRequestPool(16, cache_size=4)
        first = pool.alloc()  # miss: refills the cache
        rest = [pool.alloc() for _ in range(3)]  # hits
        assert pool.refills == 1
        assert pool.allocated == 4
        pool.alloc()  # the cache is empty again: a second chunk
        assert pool.refills == 2
        for i in [first, *rest]:
            pool.release(i)
        assert pool.allocated == 1

    def test_cache_spills_back_to_shared_list(self):
        pool = OffloadRequestPool(32, cache_size=2)
        held = [pool.alloc() for _ in range(16)]
        for i in held:
            pool.release(i)
        assert pool.allocated == 0
        # spills returned slots to the shared list: another thread can
        # allocate far more than what one cache could hold
        out = []

        def other():
            try:
                while True:
                    out.append(pool.alloc())
            except FreeListExhausted:
                pass

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert len(out) >= 32 - 2 * 2 - 1
        assert len(set(out)) == len(out)

    def test_concurrent_churn_leaks_nothing(self):
        pool = OffloadRequestPool(64, cache_size=4)
        errors = []

        def churn():
            try:
                for _ in range(300):
                    idx = pool.alloc()
                    pool.release(idx)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert pool.allocated == 0


class TestHandle:
    def test_wait_returns_status(self):
        pool = OffloadRequestPool(2)
        idx = pool.alloc()
        handle = OffloadRequest(pool, idx)
        pool.complete(idx, Status(0, 5, 8))
        st = handle.wait(timeout=1)
        assert st.tag == 5 and st.count == 8
        # slot was recycled
        assert pool.allocated == 0

    def test_test_before_and_after(self):
        pool = OffloadRequestPool(2)
        idx = pool.alloc()
        handle = OffloadRequest(pool, idx)
        done, st = handle.test()
        assert not done and st is None
        pool.complete(idx, None)
        done, st = handle.test()
        assert done

    def test_error_propagates(self):
        pool = OffloadRequestPool(2)
        idx = pool.alloc()
        handle = OffloadRequest(pool, idx)
        pool.fail(idx, RuntimeError("inner"))
        with pytest.raises(OffloadError, match="inner"):
            handle.wait(timeout=1)

    def test_wait_timeout(self):
        pool = OffloadRequestPool(2)
        handle = OffloadRequest(pool, pool.alloc())
        with pytest.raises(TimeoutError):
            handle.wait(timeout=0.01)

    def test_stale_handle_detected(self):
        """Using a handle after its slot was recycled must raise, not
        silently read another operation's state (generation check)."""
        pool = OffloadRequestPool(1)
        idx = pool.alloc()
        h1 = OffloadRequest(pool, idx)
        pool.complete(idx, None)
        h1.wait(timeout=1)
        # slot 0 recycled to a new operation
        idx2 = pool.alloc()
        assert idx2 == idx
        h2 = OffloadRequest(pool, idx2)
        with pytest.raises(OffloadError):
            h1.test()
        pool.complete(idx2, None)
        assert h2.wait(timeout=1) is not None

    def test_double_finish_rejected(self):
        pool = OffloadRequestPool(2)
        idx = pool.alloc()
        handle = OffloadRequest(pool, idx)
        pool.complete(idx, None)
        handle.wait(timeout=1)
        with pytest.raises(OffloadError):
            handle.wait(timeout=1)

    def test_cross_thread_completion(self):
        pool = OffloadRequestPool(2)
        idx = pool.alloc()
        handle = OffloadRequest(pool, idx)

        def completer():
            pool.complete(idx, Status(0, 0, 1))

        t = threading.Thread(target=completer)
        t.start()
        st = handle.wait(timeout=5)
        t.join()
        assert st.count == 1
