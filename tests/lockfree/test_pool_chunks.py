"""The request pool's chunk moves under real threads.

Slots travel between the shared free list and the per-thread stashes
in chunks, one CAS each way (``FreeList.pop_batch`` / ``push_batch``),
and the ownership ledger flips exactly once per ``alloc`` and once per
``release``.  These tests drive that with seeded thread interleavings
on a pool small enough that refills and spills happen all the time, and
pin the thread-exit leak: a stash lives in ``threading.local``, and the
slots parked in it must survive their thread.  A slot is built the
first time its index leaves the shared list: racing refills of a fresh
pool build each slot once, and a built slot never moves.
"""

import sys
import threading
import time

import pytest

from repro.core import request_pool
from repro.core.request_pool import OffloadRequestPool, _Slot
from repro.lockfree.freelist import DoubleFree, FreeListExhausted
from repro.util.rng import seeded_rng

pytestmark = pytest.mark.deadline(150)


def _counting(pool, name: str, calls: list) -> None:
    """Count the pool's uses of one free-list chunk primitive."""
    real = getattr(pool._freelist, name)

    def counted(arg):
        calls.append(name)
        return real(arg)

    setattr(pool._freelist, name, counted)


class TestChunkMovesUnderContention:
    CAPACITY = 48
    CACHE = 2
    NTHREADS = 4
    BURSTS = 120

    @pytest.mark.parametrize("test_seed", [0, 1, 2], indirect=True)
    def test_no_slot_in_two_hands_and_none_lost(self, test_seed):
        """Threads take and give back bursts of slots: a burst of
        allocs runs the stash dry (refill), a burst of releases takes
        it past twice the cache size (spill).  No index is ever in two
        hands, and when everything is quiescent every slot is listed,
        live or parked — exactly once."""
        pool = OffloadRequestPool(self.CAPACITY, cache_size=self.CACHE)
        moves: list[str] = []
        _counting(pool, "pop_batch", moves)
        _counting(pool, "push_batch", moves)
        owner: list = [None] * self.CAPACITY
        violations: list[str] = []

        def worker(tid: int) -> None:
            rng = seeded_rng("pool-chunks", test_seed, tid)
            held: list[int] = []
            for _ in range(self.BURSTS):
                # never more than the pool can give every thread at once
                for _ in range(int(rng.integers(1, 9))):
                    try:
                        idx = pool.alloc()
                    except FreeListExhausted:
                        break
                    if owner[idx] is not None:
                        violations.append(
                            f"slot {idx} handed to {tid} while held by "
                            f"{owner[idx]}"
                        )
                    owner[idx] = tid
                    held.append(idx)
                rng.shuffle(held)
                for _ in range(int(rng.integers(0, len(held) + 1))):
                    idx = held.pop()
                    if owner[idx] != tid:
                        violations.append(
                            f"slot {idx} released by {tid}, held by "
                            f"{owner[idx]}"
                        )
                    owner[idx] = None
                    pool.release(idx)
            for idx in held:
                owner[idx] = None
                pool.release(idx)

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
        assert "pop_batch" in moves and "push_batch" in moves
        assert pool.allocated == 0
        # what the dead threads had parked is with the orphans (unless a
        # thread that ran dry later put it back on the list): not lost
        parked = sum(len(chunk) for chunk in pool._orphans)
        assert pool._freelist.free_count() + parked == self.CAPACITY
        # ... and every slot can still be handed out, exactly once
        got = {pool.alloc() for _ in range(self.CAPACITY)}
        assert got == set(range(self.CAPACITY))
        with pytest.raises(FreeListExhausted):
            pool.alloc()

    def test_racing_double_release_raises_exactly_once(self):
        """Two threads release one slot at the same moment, over and
        over: of each pair exactly one passes and the other gets
        ``DoubleFree`` — the flip is ``set.remove``, made inline on the
        fast path as atomically as through ``mark_free``."""
        # room for what two racers' stashes can park, and one to hand out
        pool = OffloadRequestPool(16, cache_size=self.CACHE)
        rounds = 300
        start, done = threading.Barrier(3), threading.Barrier(3)
        current = [-1]
        outcomes: list[list[str]] = [[] for _ in range(rounds)]

        def racer() -> None:
            for r in range(rounds):
                start.wait(timeout=30)
                try:
                    pool.release(current[0])
                except DoubleFree:
                    outcomes[r].append("double")
                else:
                    outcomes[r].append("ok")
                done.wait(timeout=30)

        threads = [threading.Thread(target=racer) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for _ in range(rounds):
                current[0] = pool.alloc()
                start.wait(timeout=30)
                done.wait(timeout=30)
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive(), "racer hung"
        finally:
            sys.setswitchinterval(interval)
        wrong = [o for o in outcomes if sorted(o) != ["double", "ok"]]
        assert not wrong, wrong[:3]
        assert pool.allocated == 0


class TestThreadExit:
    def test_slots_parked_by_dead_threads_come_back(self):
        """A 64-slot pool serves 100 one-shot threads.  Each leaves up
        to a chunk parked in a stash that dies with it; at the parent
        commit those slots were on no list and in no ledger, and the
        ninth thread found the pool exhausted with nothing allocated."""
        pool = OffloadRequestPool(64)

        def one_shot() -> None:
            pool.release(pool.alloc())

        for _ in range(100):
            t = threading.Thread(target=one_shot)
            t.start()
            t.join(timeout=30)
            assert not t.is_alive()
        assert pool.allocated == 0
        got: list[int] = []

        def take_all() -> None:
            got.extend(pool.alloc() for _ in range(64))

        t = threading.Thread(target=take_all)
        t.start()
        t.join(timeout=30)
        assert sorted(got) == list(range(64))
        assert pool.allocated == 64


class TestSlotsBuiltOnHandOut:
    @pytest.mark.parametrize("cache_size", [8, 0])
    def test_racing_refills_build_each_slot_once(
        self, cache_size, monkeypatch
    ):
        """Two threads take slots from fresh pools at the same moment:
        every index handed out has exactly one slot, the one it was
        handed out with, and nothing past the highest index is built.
        Building a slot gives the GIL away, so refills overlap."""

        class _YieldingSlot(_Slot):
            __slots__ = ()

            def __init__(self) -> None:
                super().__init__()
                time.sleep(0)

        monkeypatch.setattr(request_pool, "_Slot", _YieldingSlot)
        per_thread = 400
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                pool = OffloadRequestPool(4096, cache_size=cache_size)
                start = threading.Barrier(2)
                seen: list[list] = [[], []]

                def taker(tid: int) -> None:
                    start.wait(timeout=30)
                    for _ in range(per_thread):
                        idx = pool.alloc()
                        seen[tid].append((idx, pool.slot(idx)))

                threads = [
                    threading.Thread(target=taker, args=(t,))
                    for t in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive(), "taker hung"
                got = seen[0] + seen[1]
                indices = sorted(idx for idx, _ in got)
                assert indices == list(range(2 * per_thread))
                assert len(pool._slots) == 2 * per_thread
                assert len(set(map(id, pool._slots))) == 2 * per_thread
                assert all(pool.slot(idx) is s for idx, s in got)
        finally:
            sys.setswitchinterval(interval)

    def test_a_replaced_slot_stays_in_place_across_growth(self):
        """A DST harness swaps in its own slot object after the
        hand-out; building the slots behind it must not move it."""
        pool = OffloadRequestPool(64)
        idx = pool.alloc()
        mine = pool._slots[idx] = _Slot()
        held = [pool.alloc() for _ in range(40)]
        assert len(pool._slots) > idx + 8  # grown since the swap
        assert pool.slot(idx) is mine
        assert len({id(pool.slot(i)) for i in held + [idx]}) == 41
