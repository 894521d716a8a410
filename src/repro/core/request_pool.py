"""Request slots for offloaded nonblocking calls.

Paper §3.1: a nonblocking offloaded call must return an ``MPI_Request``
to the application *before* the offload thread has invoked MPI, so no
real request exists yet.  The library therefore keeps an array of
request objects, managed as an array-based singly linked free list,
and returns the slot *index* as the application-visible request.

The free list is pre-built (its ``next`` array costs a fraction of a
millisecond at the default 4096); the slots are not.  A slot — a
Python object with a done flag and a lock — is built the first time
its index leaves the shared list, so a rank pays for the slots it
uses, not for ``capacity``.  The list hands untouched indices out in
ascending order and reuses freed ones last-in first-out, so the built
prefix tracks peak concurrency plus what the per-thread caches park.

Here the application-visible handle is :class:`OffloadRequest`, which
wraps a slot index and exposes ``test``/``wait`` that — per §3.2 —
"only need to check the appropriate *done* flag": the application
thread never pumps MPI progress itself; the offload thread's
``Testany`` loop completes the slot.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any

from repro.dst import hooks as _dst
from repro.lockfree.atomics import AtomicFlag
from repro.lockfree.freelist import DoubleFree, FreeList, FreeListExhausted

__all__ = [
    "ContinuationError",
    "DoubleFree",
    "OffloadError",
    "OffloadEngineDied",
    "OffloadRequest",
    "OffloadRequestPool",
]
from repro.mpisim.status import EMPTY_STATUS, Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import OffloadEngine
    from repro.mpisim.requests import Request


class OffloadError(Exception):
    """An offloaded MPI operation failed; carries the original error."""


class OffloadEngineDied(OffloadError):
    """The offload thread terminated with pending work outstanding."""


class ContinuationError(OffloadError):
    """Invalid continuation registration (already registered / stale)."""


class _Slot:
    """Backing record for one in-flight offloaded request."""

    __slots__ = (
        "flag",
        "inner",
        "error",
        "generation",
        "cont",
        "cont_fired",
        "cont_lock",
    )

    def __init__(self) -> None:
        self.flag = AtomicFlag()
        self.inner: "Request | None" = None
        self.error: BaseException | None = None
        #: bumped on every free; detects use of stale handles
        self.generation = 0
        #: registered continuation (at most one per in-flight op)
        self.cont = None
        #: exactly-once guard: True once a delivery claimed the cont
        self.cont_fired = False
        #: guards cont/cont_fired; never held across a yield point
        self.cont_lock = threading.Lock()


class _Stash(list):
    """One thread's parked (owned-free) slot indices.

    It lives in the pool's ``threading.local`` and is dropped when its
    thread exits, with slots then on no list and in no ledger: dropping
    it leaves them with the pool's orphans, for ``_refill`` to put back.
    (Only a ``list.append``: the dying thread may be a finished DST
    virtual thread and must not reach a yield point.)
    """

    __slots__ = ("_orphans",)

    def __init__(self, orphans: list) -> None:
        self._orphans = orphans

    def __del__(self) -> None:
        if self:
            self._orphans.append(self[:])


class OffloadRequestPool:
    """Fixed-capacity pool of slots behind a lock-free free list.

    A slot's done flag is a word (:class:`AtomicFlag`): building the
    pool allocates no condition variable per slot, completing a slot
    nobody is blocked on is a store, and a slot with no continuation
    registered is completed and released without taking a lock.

    ``cache_size`` enables per-thread slot caching: each application
    thread keeps a private stash of free slot indices, refilled from
    the shared :class:`~repro.lockfree.freelist.FreeList` in chunks of
    ``cache_size`` and spilled back in chunks once it grows past twice
    that — one CAS per chunk either way (``pop_batch``/``push_batch``).
    Alloc/free then hit the shared head only once per ``cache_size``
    operations, cutting CAS traffic — and CAS retry storms — when many
    application threads allocate concurrently.  ``cache_size=0``
    disables caching.

    Cached slots are accounted *free*: the ledger flips once per
    :meth:`alloc` and :meth:`release`, never when a chunk moves, so
    :attr:`allocated` counts only slots actually handed to callers and
    exhaustion and leak checks behave identically without caching.
    """

    def __init__(self, capacity: int = 4096, cache_size: int = 8) -> None:
        self._freelist: FreeList[None] = FreeList(capacity)
        #: the free list's ownership ledger (flipped inline when cached)
        self._live = self._freelist._live
        #: slot *i* for every index ever handed out; grown only by
        #: appending (see `_grow`), so a slot never moves
        self._slots: list[_Slot] = []
        self._grow_lock = threading.Lock()
        self._cache_size = max(0, cache_size)
        self._local = threading.local()
        #: stashes of threads that have exited (see :class:`_Stash`)
        self._orphans: list[list[int]] = []
        #: chunks moved from the shared list into a thread's cache
        self.refills = 0
        #: allocations refused with the pool empty
        self.exhausted = 0
        #: continuation accounting: the serving tier asserts
        #: exactly-once delivery on it
        self.continuation_fires = 0
        self.continuation_drops = 0

    @property
    def capacity(self) -> int:
        return self._freelist.capacity

    @property
    def allocated(self) -> int:
        return self._freelist.allocated

    def alloc(self) -> int:
        """Claim a slot index; raises :class:`FreeListExhausted`."""
        try:
            if not self._cache_size:
                idx = self._freelist.alloc()
                if idx >= len(self._slots):
                    self._grow(idx)
                return idx
            try:
                cache = self._local.cache
            except AttributeError:
                cache = self._local.cache = _Stash(self._orphans)
            if not cache:
                self._refill(cache)
            idx = cache.pop()
        except FreeListExhausted:
            self.exhausted += 1
            raise
        self._live.add(idx)  # the hand-out's one ledger flip
        return idx

    def _refill(self, cache: list[int]) -> None:
        """Move one chunk from the shared list into ``cache``; before
        exhaustion is reported, what exited threads left parked goes
        back onto the list (one CAS per dead thread)."""
        orphans = self._orphans
        try:
            chunk = self._freelist.pop_batch(self._cache_size)
            # Untouched indices sit below every freed one on the list,
            # in ascending order: a chunk's last index is its highest
            # unbuilt one, if it has any.
            if chunk[-1] >= len(self._slots):
                self._grow(chunk[-1])
            cache.extend(chunk)
            self.refills += 1
        except FreeListExhausted:
            if not orphans:
                raise
            while orphans:
                try:
                    chunk = orphans.pop()
                except IndexError:  # a racing refill took the last
                    break
                self._freelist.push_batch(chunk)
            self._refill(cache)

    def _grow(self, top: int) -> None:
        """Build the slots up to index ``top``, once: the lock makes
        two racing refills append each slot exactly once, in index
        order, so an index handed out always finds its own slot."""
        slots = self._slots
        with self._grow_lock:
            while len(slots) <= top:
                slots.append(_Slot())

    def slot(self, idx: int) -> _Slot:
        return self._slots[idx]

    def release(self, idx: int) -> None:
        """Recycle a completed slot.

        Raises :class:`~repro.lockfree.freelist.DoubleFree` when the
        slot is not currently allocated — caught here, at the offending
        call site, not when the corruption would have surfaced.
        """
        # Ownership flip first: of two racing releases exactly one
        # passes, the other raises DoubleFree before touching the slot.
        freelist = self._freelist
        if _dst._scheduler is not None:
            freelist.mark_free(idx)
        else:
            try:  # `mark_free`, inline: ``set.remove`` is the atomic step
                self._live.remove(idx)
            except KeyError:
                freelist.mark_free(idx)  # says which: range, or not live
        slot = self._slots[idx]
        # Invalidate handles first, look for a continuation second: a
        # registrant writes ``cont`` and then re-reads ``generation``
        # (see `register_continuation`), so either it notices the
        # release or this look notices the registration — and the
        # common case, no continuation, takes no lock.
        slot.generation += 1
        if slot.cont is not None:
            with slot.cont_lock:
                if slot.cont is not None and not slot.cont_fired:
                    # A waiter consumed the slot directly (wait/test)
                    # while a continuation was still pending: the
                    # registration is destroyed undelivered, and must
                    # be accounted, not silently lost.
                    slot.cont_fired = True
                    self.continuation_drops += 1
        # Owner only from here: the slot is reset for its next
        # operation and parked in this thread's cache (both inline —
        # this runs once per message on the waiter's thread).
        flag = slot.flag  # `AtomicFlag.clear`, inline
        flag.payload = None
        flag.done = False
        slot.inner = None
        slot.error = None
        slot.cont = None
        slot.cont_fired = False
        if not self._cache_size:
            freelist.push_batch((idx,))
            return
        try:
            cache = self._local.cache
        except AttributeError:
            cache = self._local.cache = _Stash(self._orphans)
        cache.append(idx)
        n = self._cache_size
        if len(cache) > 2 * n:
            chunk = cache[-n:]
            del cache[-n:]
            freelist.push_batch(chunk)

    # -- engine-side completion ------------------------------------------

    def complete(self, idx: int, payload: Any) -> None:
        """Engine: the operation finished; wake any waiter.

        ``payload`` is stored as given: a receive's status, an iprobe
        miss's ``None``, a CALL's return value."""
        slot = self._slots[idx]
        generation = slot.generation
        slot.flag.set(payload)
        if _dst._scheduler is not None:
            _dst.yield_point("pool.cont.complete")
        if slot.cont is not None:  # see `_fire`: safe without the lock
            self._fire(slot, generation)

    def fail(self, idx: int, error: BaseException) -> None:
        slot = self._slots[idx]
        generation = slot.generation
        slot.error = error
        slot.flag.set(None)
        if _dst._scheduler is not None:
            _dst.yield_point("pool.cont.complete")
        if slot.cont is not None:
            self._fire(slot, generation)

    # -- continuations ---------------------------------------------------

    def register_continuation(self, idx: int, generation: int, fn) -> None:
        """Attach ``fn()`` to run exactly once at the slot's terminal
        state — success *or* typed failure (timeout, crash, revoke,
        shrink all funnel through :meth:`fail`).

        At most one continuation per in-flight operation; a second
        registration raises :class:`ContinuationError`.  Registering
        after the operation already completed fires immediately on the
        calling thread; otherwise the completing thread (normally the
        engine) fires it.
        """
        slot = self._slots[idx]
        with slot.cont_lock:
            if slot.generation != generation:
                raise ContinuationError(
                    "continuation registered on a stale request handle"
                )
            if slot.cont is not None:
                raise ContinuationError(
                    "request already has a continuation registered"
                )
            slot.cont = fn
            if slot.generation != generation:
                # Released under us, and `release` may have looked
                # before this store: take the registration back.
                slot.cont = None
                raise ContinuationError(
                    "continuation registered on a stale request handle"
                )
        if _dst._scheduler is not None:
            _dst.yield_point("pool.cont.register")
        if slot.flag.is_set():
            # Completed before (or while) we registered: deliver from
            # here; _fire's claim resolves the race with the completer.
            self._fire(slot, generation)

    def _fire(self, slot: _Slot, generation: int) -> bool:
        """Deliver the slot's continuation exactly once.

        The claim (``cont_fired`` flip under ``cont_lock``) is what
        makes register-vs-complete races safe: both sides may reach
        here, exactly one wins, the loser returns quietly — the
        delivery *did* happen, so nothing is dropped.  (``drops``
        count only deliveries that never happen: see :meth:`release`
        and the bridge's closed-loop path.)  The generation check
        keeps a delayed completer from firing a *new* owner's
        continuation after the slot was recycled.

        Completers (:meth:`complete`, :meth:`fail`) look at ``cont``
        first and only come here when there is one.  That look is safe
        without the lock: they published the done flag before it, and
        a registrant writes ``cont`` before it reads the flag — so a
        completer that finds no continuation leaves a registrant that
        will find the flag set and deliver from its own thread.
        """
        with slot.cont_lock:
            fn = slot.cont
            if fn is None or slot.generation != generation or slot.cont_fired:
                return False
            slot.cont_fired = True
        if _dst._scheduler is not None:
            _dst.yield_point("pool.cont.fire")
        self.continuation_fires += 1
        try:
            fn()
        except BaseException:
            # A continuation must never take down its firing thread
            # (usually the engine loop); the callback owns its errors.
            pass
        return True


#: Serialises the consumption of a handle (the ``_released`` flip): of
#: two threads finishing one handle exactly one releases the slot.  One
#: lock for all handles — the section is three bytecodes, and a lock
#: per handle would be an object allocated per operation.
_consume_lock = threading.Lock()


class OffloadRequest:
    """Application-visible handle for an offloaded nonblocking call.

    ``test``/``wait`` check only the slot's done flag — O(1), no MPI
    entry, no lock — which is how the offload approach collapses
    ``MPI_Wait*`` cost (paper §3.2 and Table 1's "<1 µs" post/wait
    columns).
    """

    __slots__ = ("_pool", "_idx", "_generation", "_released", "_engine")

    def __init__(
        self,
        pool: OffloadRequestPool,
        idx: int,
        engine: "OffloadEngine | None" = None,
    ) -> None:
        self._pool = pool
        self._idx = idx
        self._generation = pool._slots[idx].generation
        self._released = False
        #: set only when the engine carries a RecoveryPolicy — enables
        #: the health-sampling wait path (None keeps the fast path)
        self._engine = engine

    @property
    def slot_index(self) -> int:
        return self._idx

    def _check_fresh(self) -> _Slot:
        slot = self._pool.slot(self._idx)
        if self._released or slot.generation != self._generation:
            raise OffloadError("request handle used after completion/free")
        return slot

    @property
    def done(self) -> bool:
        return self._check_fresh().flag.is_set()

    def add_continuation(self, fn) -> None:
        """Run ``fn()`` exactly once when this request reaches a
        terminal state (completion or typed failure).

        The callback receives no arguments and typically calls
        :meth:`test` to collect the status or raise the typed error —
        the continuation, not the registrant, then owns releasing the
        slot.  One continuation per request; re-registration raises
        :class:`ContinuationError`.  If the request already completed,
        ``fn`` runs immediately on the calling thread; otherwise it
        runs on the completing thread (the engine loop, or whichever
        thread delivers the typed failure).
        """
        self._check_fresh()
        self._pool.register_continuation(self._idx, self._generation, fn)

    def park(self, timeout: float) -> bool:
        """Block up to ``timeout`` for completion *without* consuming
        the request (the slot stays allocated); True once done."""
        return self._check_fresh().flag.wait(timeout)

    def test(self) -> tuple[bool, Status | None]:
        """Flag check only; frees the slot on completion."""
        slot = self._check_fresh()
        if not slot.flag.is_set():
            return False, None
        return True, self._finish(slot)

    def wait(self, timeout: float | None = None) -> Status:
        """Block on the done flag; frees the slot.

        One crossing when the operation already finished: freshness and
        the done word are checked here (`_check_fresh`, inline), and
        the flag's ``wait`` is only called to block.
        """
        slot = self._pool._slots[self._idx]
        if self._released or slot.generation != self._generation:
            raise OffloadError("request handle used after completion/free")
        if not slot.flag.done:
            engine = self._engine
            if engine is not None and engine.recovery is not None:
                try:
                    recovery_wait(slot, self._idx, engine, timeout)
                except OffloadEngineDied:
                    with _consume_lock:
                        self._released = True  # abandon, never recycle
                    raise
            elif not slot.flag.wait(timeout):
                raise TimeoutError(
                    f"offloaded request (slot {self._idx}) pending after "
                    f"{timeout}s"
                )
        st = self._finish(slot)
        assert st is not None
        return st

    def _finish(self, slot: _Slot) -> Status | None:
        with _consume_lock:
            if self._released:
                raise OffloadError("request handle completed twice")
            self._released = True
        error = slot.error
        payload: Any = slot.flag.payload
        self._pool.release(self._idx)
        if error is not None:
            raise_typed(error)
        return payload if payload is not None else EMPTY_STATUS


def raise_typed(error: BaseException) -> None:
    """Raise a failed slot's error as an :class:`OffloadError`."""
    if isinstance(error, OffloadError):
        raise error
    raise OffloadError(str(error)) from error


def recovery_wait(
    slot: _Slot,
    idx: int,
    engine: "OffloadEngine",
    timeout: float | None,
) -> None:
    """Wait on ``slot``'s done flag while sampling ``engine``'s health
    (the engine carries a :class:`~repro.core.recovery.RecoveryPolicy`).

    Bounded-hang guarantee: if the engine dies (or the watchdog trips
    it) with the slot pending, this raises :class:`OffloadEngineDied`
    within ``watchdog_timeout + poll_interval`` — even for a command
    the engine can no longer reach (wedged mid-dispatch).  The caller
    must then *abandon* the slot, never release it: the wedged engine
    thread may still hold a reference and complete it later, and
    recycling it could corrupt a fresh allocation.  A dead engine's
    pool is never reused, so the leak is bounded.
    """
    from repro.core.recovery import EngineWatchdog

    rec = engine.recovery
    assert rec is not None
    flag = slot.flag
    deadline = None if timeout is None else time.perf_counter() + timeout
    watchdog = (
        EngineWatchdog(engine, rec.watchdog_timeout)
        if rec.watchdog_timeout is not None
        else None
    )
    while True:
        step = rec.poll_interval
        if deadline is not None:
            step = min(step, deadline - time.perf_counter())
            if step <= 0 and not flag.is_set():
                raise TimeoutError(
                    f"offloaded request (slot {idx}) pending after "
                    f"{timeout}s"
                )
        if flag.wait(max(step, 0.0)):
            return
        if engine.dead is not None and not flag.is_set():
            raise OffloadEngineDied(
                f"offload engine terminated with slot {idx} pending: "
                f"{engine.dead}"
            )
        if watchdog is not None:
            watchdog.check()
