"""Unit, stress and property tests for the request-slot free list."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lockfree.freelist import DoubleFree, FreeList, FreeListExhausted


class TestBasics:
    def test_alloc_unique_until_exhausted(self):
        fl = FreeList(4)
        got = {fl.alloc() for _ in range(4)}
        assert got == {0, 1, 2, 3}
        with pytest.raises(FreeListExhausted):
            fl.alloc()

    def test_free_then_realloc(self):
        fl = FreeList(2)
        a = fl.alloc()
        b = fl.alloc()
        fl.free(a)
        c = fl.alloc()
        assert c == a
        fl.free(b)
        fl.free(c)
        assert fl.free_count() == 2

    def test_free_out_of_range(self):
        fl = FreeList(2)
        with pytest.raises(IndexError):
            fl.free(5)
        with pytest.raises(IndexError):
            fl.free(-1)

    def test_double_free_raises_typed_error(self):
        # Regression: a double free used to push the same index twice,
        # silently corrupting the list into a cycle that only the
        # free_count() diagnostic would catch much later.
        fl = FreeList(4)
        a = fl.alloc()
        fl.free(a)
        with pytest.raises(DoubleFree):
            fl.free(a)
        # the list survives intact: no cycle, all slots reachable
        assert fl.free_count() == 4
        assert fl.allocated == 0

    def test_free_of_never_allocated_slot_raises(self):
        fl = FreeList(4)
        fl.alloc()
        with pytest.raises(DoubleFree):
            fl.free(3)  # on the free list, never handed out

    def test_alloc_batch_pops_distinct_chunk(self):
        # the batched pop hands out owned-free slots: off the list, not
        # in the ledger
        fl = FreeList(8)
        got = fl.pop_batch(5)
        assert len(got) == len(set(got)) == 5
        assert fl.allocated == 0 and fl.free_count() == 3
        # partial chunk when nearly empty, typed error when empty
        rest = fl.pop_batch(16)
        assert len(rest) == 3
        assert set(got) | set(rest) == set(range(8))
        with pytest.raises(FreeListExhausted):
            fl.pop_batch(2)
        with pytest.raises(ValueError):
            fl.pop_batch(0)
        fl.push_batch(got)
        fl.push_batch(rest)
        assert fl.free_count() == 8

    def test_push_batch_links_the_chunk_in_order(self):
        fl = FreeList(6)
        a = fl.pop_batch(4)
        fl.push_batch([])  # nothing to return: the list is untouched
        assert fl.free_count() == 2
        fl.push_batch(a[:1])
        fl.push_batch(a[1:])
        assert fl.free_count() == 6 and fl.allocated == 0
        # LIFO by chunk: the chunk pushed last comes back first, in the
        # order it was pushed
        assert fl.pop_batch(3) == a[1:]
        # a pushed slot is owned-free, not live: freeing it is a double
        # free, handing it out through alloc() makes it live
        with pytest.raises(DoubleFree):
            fl.free(a[0])
        assert fl.alloc() == a[0] and fl.allocated == 1

    def test_alloc_batch_under_contention(self):
        fl = FreeList(256)
        taken: list[list[int]] = [[] for _ in range(8)]

        def worker(wid):
            while True:
                try:
                    got = fl.pop_batch(4)
                except FreeListExhausted:
                    return
                taken[wid].extend(got)

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flat = [i for chunk in taken for i in chunk]
        assert len(flat) == 256
        assert len(set(flat)) == 256, "batch alloc handed a slot out twice"

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FreeList(0)

    def test_allocated_counter(self):
        fl = FreeList(4)
        a = fl.alloc()
        assert fl.allocated == 1
        fl.free(a)
        assert fl.allocated == 0


class TestConcurrency:
    def test_no_double_allocation_under_contention(self):
        """The paper-critical invariant: two threads must never be
        handed the same request slot."""
        fl = FreeList(32)
        owner: list = [None] * 32  # who holds each slot right now
        iters, nthreads = 2000, 8
        errors = []

        def worker(tid):
            try:
                for _ in range(iters):
                    try:
                        idx = fl.alloc()
                    except FreeListExhausted:
                        continue
                    # claim the slot; detect double allocation
                    if owner[idx] is not None:
                        errors.append(("double-alloc", idx))
                    owner[idx] = tid
                    if owner[idx] != tid:
                        errors.append(("stolen", idx))
                    owner[idx] = None
                    fl.free(idx)
            except Exception as exc:  # pragma: no cover
                errors.append(("exception", repr(exc)))

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[:5]
        assert fl.free_count() == 32


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(st.booleans(), max_size=300))
def test_matches_set_model(ops):
    """Property: alloc/free against a set-based reference model."""
    cap = 8
    fl = FreeList(cap)
    live: list[int] = []
    for is_alloc in ops:
        if is_alloc:
            if len(live) < cap:
                idx = fl.alloc()
                assert idx not in live
                assert 0 <= idx < cap
                live.append(idx)
            else:
                with pytest.raises(FreeListExhausted):
                    fl.alloc()
        elif live:
            fl.free(live.pop())
    assert fl.free_count() == cap - len(live)
