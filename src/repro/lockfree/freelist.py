"""Array-based lock-free free list for request slots.

Paper Section 3.1: nonblocking offloaded calls must return an
``MPI_Request`` handle *before* the offload thread has issued the real
MPI call, so the library pre-allocates an array of request objects and
"maintains this pool as an array-based singly linked list in order to
minimize allocation and free time".

This is exactly that structure: slot ``i``'s ``next`` pointer lives in
an integer array; the list head is a tagged ``(index, version)`` pair
in an :class:`~repro.lockfree.atomics.AtomicCell` (a Treiber stack with
a version tag to defeat ABA).  ``alloc`` pops a slot index, ``free``
pushes one back; both are O(1) and CAS-retry only under contention.

Ownership of every slot is additionally tracked in a live set, so a
double ``free`` raises a typed :class:`DoubleFree` at the offending
call site instead of silently corrupting the list into a cycle (which
only the :meth:`FreeList.free_count` diagnostic would catch, much
later).  The live set doubles as the ownership ledger for callers that
park free slots in per-thread caches (see
:class:`repro.core.request_pool.OffloadRequestPool`): a cached slot is
*not* live, even though it is not on the shared list either.  Chunks
of such *owned-free* slots move to and from the shared list by one CAS
(``pop_batch``/``push_batch``) without touching the ledger.
"""

from __future__ import annotations

from typing import Generic, Sequence, TypeVar

from repro.dst import hooks as _dst
from repro.lockfree.atomics import AtomicCell

T = TypeVar("T")

_NIL = -1


class FreeListExhausted(Exception):
    """Raised by :meth:`FreeList.alloc` when all slots are in use."""


class DoubleFree(Exception):
    """A slot index was freed while not allocated (double free)."""


class FreeList(Generic[T]):
    """Fixed pool of ``capacity`` slot indices with lock-free
    alloc/free (what a slot *is* lives with the caller)."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        # next-pointers of the singly linked list through the array
        self._next = list(range(1, capacity)) + [_NIL]
        # tagged head: (slot index, version)
        self._head: AtomicCell[tuple[int, int]] = AtomicCell((0, 0))
        # Indices currently handed out (set.add/remove/len are single
        # C-level calls, so this is safe from many threads and `len`
        # replaces the old racy +=1/-=1 approximate counter).
        self._live: set[int] = set()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def allocated(self) -> int:
        """Number of live slots (exact when quiescent)."""
        return len(self._live)

    def alloc(self) -> int:
        """Pop a free slot index and hand it out (flip it live);
        raises :class:`FreeListExhausted`."""
        (idx,) = self.pop_batch(1)
        if _dst._scheduler is not None:
            _dst.yield_point("freelist.alloc.ledger")
        self._live.add(idx)
        return idx

    def pop_batch(self, n: int) -> list[int]:
        """Pop up to ``n`` slots with a *single* CAS, as owned-free.

        The version tag guarantees the walked ``_next`` chain is only
        committed if no other pop/push intervened (the ABA window: the
        head may be popped and pushed back under us), so a whole chunk
        costs one successful CAS — this is what the request pool's
        per-thread stashes refill through.  The ledger is not touched.
        Returns at least one index; raises :class:`FreeListExhausted`
        when empty.
        """
        if n < 1:
            raise ValueError("pop_batch needs n >= 1")
        while True:
            head = self._head.load()
            idx, version = head
            if idx == _NIL:
                raise FreeListExhausted(
                    f"request pool exhausted (capacity={self._capacity})"
                )
            chain = [idx] * n  # filled by index: no call per slot
            k = 0
            cur = idx
            while cur != _NIL and k < n:
                if _dst._scheduler is not None:
                    _dst.yield_point("freelist.pop_batch.walk")
                chain[k] = cur
                k += 1
                cur = self._next[cur]
            ok, _ = self._head.compare_and_swap(head, (cur, version + 1))
            if ok:
                del chain[k:]
                return chain

    def push_batch(self, chain: Sequence[int]) -> None:
        """Return the owned-free slots of ``chain`` (see
        :meth:`mark_free`) to the shared list with a *single* CAS.

        The caller owns them, so linking them to one another races
        nobody; only the tail's link to the current head and the head
        swing are redone when the CAS loses.
        """
        if not chain:
            return
        nxt = self._next
        first, last = chain[0], chain[-1]
        for idx, after in zip(chain, chain[1:]):
            nxt[idx] = after
        while True:
            head = self._head.load()
            cur, version = head
            if _dst._scheduler is not None:
                _dst.yield_point("freelist.push_batch.link")
            nxt[last] = cur
            ok, _ = self._head.compare_and_swap(head, (first, version + 1))
            if ok:
                return

    def mark_free(self, idx: int) -> None:
        """Release ownership of ``idx`` without pushing it on the list.

        This is where double frees are caught: exactly one of two
        racing frees finds the index live (``set.remove`` is atomic),
        the other raises :class:`DoubleFree`.  The caller either parks
        the slot in a private cache or follows up with
        :meth:`push_batch`.
        """
        if not 0 <= idx < self._capacity:
            raise IndexError(f"slot index {idx} out of range")
        if _dst._scheduler is not None:
            _dst.yield_point("freelist.mark_free")
        try:
            self._live.remove(idx)
        except KeyError:
            raise DoubleFree(
                f"slot {idx} freed while not allocated (double free)"
            ) from None

    def free(self, idx: int) -> None:
        """Push slot ``idx`` back onto the free list; raises
        :class:`DoubleFree` if it is not currently allocated."""
        self.mark_free(idx)
        self.push_batch((idx,))

    def free_count(self) -> int:
        """Walk the free list and count slots (diagnostic; not atomic)."""
        n = 0
        idx = self._head.load()[0]
        seen = set()
        while idx != _NIL:
            if idx in seen:  # pragma: no cover - corruption detector
                raise RuntimeError("cycle detected in free list")
            seen.add(idx)
            n += 1
            idx = self._next[idx]
        return n
