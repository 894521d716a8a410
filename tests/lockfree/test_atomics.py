"""Unit and concurrency tests for the atomic primitives."""

import sys
import threading
import time

import pytest

from repro.lockfree.atomics import (
    AtomicCell,
    AtomicCounter,
    AtomicFlag,
    Doorbell,
    park_any,
)


def _until(cond, timeout=10.0):
    """Poll for a state another thread is about to reach."""
    end = time.perf_counter() + timeout
    while not cond():
        assert time.perf_counter() < end, "condition never held"
        time.sleep(1e-3)


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

    @pytest.mark.parametrize("n_waiters", [2, 8])
    def test_every_parked_waiter_wakes_and_sees_the_payload(self, n_waiters):
        f = AtomicFlag()
        seen = []

        def waiter():
            if f.wait(timeout=10.0):
                seen.append(f.payload)

        threads = [threading.Thread(target=waiter) for _ in range(n_waiters)]
        for t in threads:
            t.start()
        _until(lambda: len(f._waiters or ()) == n_waiters)
        f.set("status")
        for t in threads:
            t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert seen == ["status"] * n_waiters
        assert f._waiters is None

    def test_set_before_wait_registers_nobody(self):
        f = AtomicFlag()
        f.set(7)
        assert f.wait() and f.park()
        assert f._waiters is None

    def test_set_between_register_and_second_look(self):
        """The completer stores the word after the waiter's first look
        and before its registration is visible to it: the second look
        must catch it, without blocking and without leaving the
        registration behind."""

        class SetsWhileRegistering(AtomicFlag):
            __slots__ = ()

            def _register(self, token):
                self.set("late")  # finds no waiter to wake
                super()._register(token)

        f = SetsWhileRegistering()
        assert f.wait() is True  # no timeout: a lost wake-up hangs here
        assert f.payload == "late"
        assert f._waiters is None

    def test_timed_out_waiter_deregisters_itself(self):
        f = AtomicFlag()
        for _ in range(50):  # timed parks
            assert f.wait(timeout=1e-4) is False
        assert f._waiters is None
        f.set()
        assert f.wait(timeout=1e-4) is True

    def test_stray_wake_from_a_previous_generation_is_absorbed(self):
        """`clear()` may run while the previous completer is still
        between its store and its look; that completer then wakes the
        *next* generation's waiter, which must park again."""
        f = AtomicFlag()
        woke = []
        t = threading.Thread(target=lambda: woke.append(f.wait(10.0)))
        t.start()
        _until(lambda: f._waiters is not None)
        f._wake()  # the late look of a completer of the last generation
        time.sleep(0.05)
        assert woke == [] and t.is_alive()
        f.set()
        t.join(10.0)
        assert woke == [True]

    def test_clear_and_reuse_across_slot_generations(self):
        """One flag, 10 000 operations: a waiter of generation g never
        returns on generation g-1's set and never misses its own."""
        f = AtomicFlag()
        turn = AtomicFlag()  # hands the flag back to the completer
        n = 10_000
        got = []

        def completer():
            for g in range(n):
                f.set(g)
                turn.wait()
                turn.clear()

        t = threading.Thread(target=completer)
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            t.start()
            for g in range(n):
                assert f.wait(timeout=10.0)
                got.append(f.payload)
                f.clear()
                turn.set()
            t.join(10.0)
        finally:
            sys.setswitchinterval(prev)
        assert not t.is_alive()
        assert got == list(range(n))
        assert f._waiters is None and turn._waiters is None


class TestParkAny:
    """One park on several words (`recovery_wait`, `offload_waitany`)."""

    @pytest.mark.parametrize("which", [0, 1])
    def test_a_word_set_between_registration_and_look_wakes_it(self, which):
        """Word ``which`` is set while the bell registers on the first
        word: after its registration (the set rings the bell) or before
        it (only the look after the registrations can catch it)."""
        words = [None, AtomicFlag()]

        class SetsWhileRegistering(AtomicFlag):
            __slots__ = ()

            def _register(self, token):
                super()._register(token)
                words[which].set()

        words[0] = SetsWhileRegistering()
        t0 = time.perf_counter()
        assert park_any(words, 10.0) is True  # a lost wake-up waits 10 s
        assert time.perf_counter() - t0 < 1.0
        assert [w._waiters for w in words] == [None, None]

    def test_timed_out_park_deregisters_from_every_word(self):
        words = [AtomicFlag(), AtomicFlag()]
        assert park_any(words, 0.01) is False
        assert [w._waiters for w in words] == [None, None]
        words[1].set()
        assert park_any(words, 0.01) is True

    @pytest.mark.parametrize("which", [0, 1])
    def test_either_word_wakes_a_parked_thread(self, which):
        words = [AtomicFlag(), AtomicFlag()]
        woke = []
        t = threading.Thread(target=lambda: woke.append(park_any(words)))
        t.start()
        _until(lambda: all(w._waiters for w in words))
        words[which].set()
        t.join(10.0)
        assert woke == [True]
        assert [w._waiters for w in words] == [None, None]


class TestRequestWake:
    def test_foreign_completion_wakes_a_waiter_in_one_wake(self, monkeypatch):
        """`Request.wait` parks between progress pumps on a doorbell
        its engine rings; a completion from another thread must end the
        park itself, not wait for the tick to run out (stretched here
        to make the difference unmistakable)."""
        from repro.mpisim import requests as rq

        class _IdleEngine:
            _doorbells = ()  # nobody drives this rank's progress

            def progress(self):
                return 0

            def add_doorbell(self, bell):
                self._doorbells += (bell,)

            def remove_doorbell(self, bell):
                self._doorbells = ()

        monkeypatch.setattr(rq, "TICK", 5.0)
        engine = _IdleEngine()
        req = rq.Request(engine)
        status = rq.Status(0, 0, 0)
        done_at = []

        def complete():
            _until(lambda: engine._doorbells)  # the waiter's bell is up
            done_at.append(time.perf_counter())
            req._complete(status)

        t = threading.Thread(target=complete)
        t.start()
        assert req.wait(timeout=10.0) is status
        woke_at = time.perf_counter()
        t.join(10.0)
        assert woke_at - done_at[0] < 1.0  # one wake, not one 5 s slice
        assert req._waiters is None

    def test_born_complete_request_builds_no_waiter_state(self):
        from repro.mpisim.requests import CompletedRequest

        req = CompletedRequest()
        assert req.done and req._waiters is None
        assert req.wait() is req.status


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

    def test_a_bell_parked_on_two_words_survives_both_completers(self):
        """`offload_waitany` parks one bell as the token on every
        handle's done word; two completing together release it twice,
        which a plain lock would answer with a RuntimeError."""
        first, second = AtomicFlag(), AtomicFlag()
        bell = Doorbell()
        first._register(bell)
        second._register(bell)
        first.set()
        second.set()
        assert bell.wait(0)
        assert first._waiters is None and second._waiters is None

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

