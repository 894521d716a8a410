"""Unit and concurrency tests for the atomic primitives."""

import sys
import threading
import time

from repro.lockfree.atomics import (
    AtomicCell,
    AtomicCounter,
    AtomicFlag,
    Doorbell,
)


class TestAtomicCell:
    def test_load_store_swap(self):
        c = AtomicCell(1)
        assert c.load() == 1
        c.store(2)
        assert c.load() == 2
        assert c.swap(3) == 2
        assert c.load() == 3

    def test_cas_success_and_failure(self):
        c = AtomicCell("a")
        ok, seen = c.compare_and_swap("a", "b")
        assert ok and seen == "a"
        ok, seen = c.compare_and_swap("a", "c")
        assert not ok and seen == "b"
        assert c.cas_failures == 1

    def test_cas_compares_tuples_by_equality(self):
        c = AtomicCell((1, 2))
        ok, _ = c.compare_and_swap((1, 2), (3, 4))
        assert ok
        assert c.load() == (3, 4)

    def test_concurrent_cas_increments_exactly(self):
        c = AtomicCell(0)
        iters, nthreads = 2000, 8

        def worker():
            for _ in range(iters):
                while True:
                    cur = c.load()
                    ok, _ = c.compare_and_swap(cur, cur + 1)
                    if ok:
                        break

        threads = [threading.Thread(target=worker) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.load() == iters * nthreads


class TestAtomicCounter:
    def test_fetch_add_returns_previous(self):
        c = AtomicCounter(5)
        assert c.fetch_add(3) == 5
        assert c.load() == 8

    def test_cas(self):
        c = AtomicCounter(0)
        ok, _ = c.compare_and_swap(0, 7)
        assert ok and c.load() == 7
        ok, seen = c.compare_and_swap(0, 9)
        assert not ok and seen == 7

    def test_concurrent_fetch_add_is_exact(self):
        c = AtomicCounter(0)
        n, iters = 8, 5000

        def worker():
            for _ in range(iters):
                c.fetch_add(1)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.load() == n * iters

    def test_store(self):
        c = AtomicCounter(1)
        c.store(99)
        assert c.load() == 99


class TestAtomicFlag:
    def test_set_and_payload(self):
        f = AtomicFlag()
        assert not f.is_set()
        f.set("payload")
        assert f.is_set()
        assert f.payload == "payload"

    def test_wait_immediate(self):
        f = AtomicFlag()
        f.set()
        assert f.wait(timeout=0.01)

    def test_wait_timeout(self):
        f = AtomicFlag()
        assert not f.wait(timeout=0.01)

    def test_wait_cross_thread(self):
        f = AtomicFlag()

        def setter():
            f.set(42)

        t = threading.Thread(target=setter)
        t.start()
        assert f.wait(timeout=2.0)
        t.join()
        assert f.payload == 42

    def test_clear(self):
        f = AtomicFlag()
        f.set(1)
        f.clear()
        assert not f.is_set()
        assert f.payload is None


class TestDoorbell:
    def test_ring_is_sticky_until_cleared(self):
        bell = Doorbell()
        assert not bell.is_set()
        bell.set()
        bell.set()  # ringing twice is ringing once
        assert bell.is_set()
        assert bell.wait(0.01)
        assert bell.wait(0.01)  # waiting does not consume the ring
        bell.clear()
        assert not bell.is_set()
        assert not bell.wait(0.01)

    def test_cleared_bell_keeps_no_token(self):
        # set → clear must leave nothing behind that would cut the next
        # park short
        bell = Doorbell()
        for _ in range(3):
            bell.set()
            bell.clear()
        t0 = time.perf_counter()
        assert not bell.wait(0.05)
        assert time.perf_counter() - t0 >= 0.04

    def test_ring_wakes_a_parked_owner(self):
        bell = Doorbell()
        woke = []

        def owner():
            bell.clear()
            woke.append(bell.wait(5.0))

        t = threading.Thread(target=owner)
        t.start()
        time.sleep(0.05)  # let the owner park
        bell.set()
        t.join(5.0)
        assert not t.is_alive()
        assert woke == [True]

    def test_no_ring_is_lost_across_clear_look_park(self):
        """Ringers publish then ring; the owner clears, looks, parks.
        Every published item must be seen without relying on the park's
        timeout (set far beyond the test's deadline)."""
        bell = Doorbell()
        published: list[int] = []
        seen = 0
        n_ringers, per_ringer = 4, 500

        def ringer(base):
            for i in range(per_ringer):
                published.append(base + i)  # list.append is atomic
                bell.set()

        threads = [
            threading.Thread(target=ringer, args=(k * per_ringer,))
            for k in range(n_ringers)
        ]
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            deadline = time.perf_counter() + 30
            while seen < n_ringers * per_ringer:
                assert time.perf_counter() < deadline, "lost wake-up"
                bell.clear()
                seen = len(published)
                if seen < n_ringers * per_ringer:
                    bell.wait(60.0)
        finally:
            sys.setswitchinterval(prev)
            for t in threads:
                t.join(5.0)
        assert sorted(published) == list(range(n_ringers * per_ringer))

