"""asyncio bridge: offloaded nonblocking calls as awaitables.

The continuation registry fires on the engine thread (or whichever
thread delivers a typed failure); an event loop must never be touched
from there.  So completions are *queued* and the loop is notified once
(DESIGN.md §16–§17): the continuation the bridge registers appends the
request's ``resolve`` to the landed queue of its loop (*publish*) and
rings the loop — one ``loop.call_soon_threadsafe(drain)`` — only if
the bell is not rung already (*ring; a rung bell is not rung again*).
The drain, on the loop thread, clears the bell **first** and then runs
resolves until the queue is empty (*clear, then look*): a completion
that lands after the clear schedules the next drain, one that landed
before it is seen by this one.  Each ``resolve`` consumes its handle
(:meth:`OffloadRequest.test`), collecting the status or raising the
typed error into the future.  This is the loop-handoff boundary the
``continuation-double-fire`` DST target pins down — the engine-side
fire and the loop-side consume are different threads, serialized only
by the exactly-once claim — and the ``land-vs-drain`` target steps the
queue-and-bell protocol itself.

If the loop is already closed when a completion lands, nothing queued
for it will ever be delivered: the firing thread consumes every landed
handle itself (the slots are released) and counts each as a
``continuation_drop`` — never an unhandled exception on the engine
thread.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any

from repro.mpisim.constants import ANY_SOURCE, ANY_TAG
from repro.mpisim.status import Status

__all__ = ["AsyncOffloadEngine"]


class _Landed:
    """Completions that have landed for one event loop, and its bell."""

    __slots__ = ("loop", "queue", "rung")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        #: ``resolve`` callables in completion order; appended by
        #: firing threads, popped by the loop thread
        self.queue: deque = deque()
        #: a drain is scheduled and has not started yet
        self.rung = False


class AsyncOffloadEngine:
    """Awaitable facade over an :class:`OffloadCommunicator`.

    ``await engine.offload_isend(buf, dest)`` submits the nonblocking
    command (one ring enqueue, same as the sync facade) and suspends
    the coroutine until the continuation fires; no thread ever spins
    on a done flag.  Completion cost for the waiter is a queue append;
    the loop is woken once per clear → look cycle of the drain, however
    many completions landed meanwhile (:attr:`loop_crossings`).
    """

    def __init__(
        self,
        ocomm,
        loop: asyncio.AbstractEventLoop | None = None,
    ) -> None:
        self.ocomm = ocomm
        self._loop = loop
        self._landed: _Landed | None = None
        #: drains run, i.e. ``call_soon_threadsafe`` wake-ups (self-pipe
        #: writes) this bridge cost its loops
        self.loop_crossings = 0

    @property
    def rank(self) -> int:
        return self.ocomm.rank

    @property
    def size(self) -> int:
        return self.ocomm.size

    def awaitable(self, req) -> "asyncio.Future[Status]":
        """Wrap an already-submitted :class:`OffloadRequest`.

        Must be called on the loop thread (it captures the running
        loop when none was pinned at construction).
        """
        loop = self._loop or asyncio.get_running_loop()
        landed = self._landed
        if landed is None or landed.loop is not loop:
            # A new loop gets its own queue and bell: what a closed
            # loop left rung or queued must not be taken for its.
            landed = self._landed = _Landed(loop)
        fut: "asyncio.Future[Status]" = loop.create_future()

        def resolve(abandoned: bool = False) -> None:
            # Loop thread (the firing thread when abandoned): consume
            # the handle exactly once.
            if abandoned or fut.cancelled():
                # The awaiter gave up (or its loop is gone); still
                # consume the slot so it is released, and absorb the
                # typed error if any.
                if abandoned:
                    pool = getattr(req, "_pool", None)
                    if pool is not None:
                        pool.continuation_drops += 1
                try:
                    req.test()
                except BaseException:
                    pass
                return
            try:
                done, status = req.test()
            except BaseException as exc:
                fut.set_exception(exc)
            else:
                if done:
                    fut.set_result(status)
                else:
                    # Only an inline request (below) can be pending
                    # here: a continuation fires at a terminal state.
                    loop.call_later(1e-3, resolve)

        def fire() -> None:
            # Engine thread (or typed-failure deliverer): publish,
            # then ring unless somebody's ring is still pending.
            landed.queue.append(resolve)
            if loop.is_closed():
                self._abandon(landed)
            elif not landed.rung:
                landed.rung = True
                try:
                    loop.call_soon_threadsafe(self._drain, landed)
                except RuntimeError:
                    # closed between the look and the ring
                    self._abandon(landed)

        if not hasattr(req, "add_continuation"):
            # A degraded facade (engine dead, ``RecoveryPolicy.degrade``)
            # hands back the substrate's own request: no engine will
            # ever fire a continuation for it, and ``test()`` is what
            # pumps its progress — so the loop thread drives it.
            loop.call_soon(resolve)
            return fut
        req.add_continuation(fire)
        return fut

    def _drain(self, landed: _Landed) -> None:
        """Loop thread: clear the bell, *then* look.  A completion that
        lands after the clear rings for the next drain; one that landed
        before it is in the queue this drain empties.  (Two ringers that
        both found the bell clear schedule two drains; the second finds
        nothing — harmless, like ``Doorbell.set``.)"""
        landed.rung = False
        self.loop_crossings += 1
        queue = landed.queue
        while queue:
            queue.popleft()()

    @staticmethod
    def _abandon(landed: _Landed) -> None:
        """Firing thread, loop closed: whatever is queued — including
        what landed behind a bell whose drain never ran — is consumed
        here and counted as dropped."""
        queue = landed.queue
        while queue:
            try:
                resolve = queue.popleft()
            except IndexError:  # another firing thread took the last
                return
            resolve(abandoned=True)

    async def offload_isend(
        self, buf: Any, dest: int, tag: int = 0
    ) -> Status:
        return await self.awaitable(self.ocomm.isend(buf, dest, tag))

    async def offload_irecv(
        self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Status:
        return await self.awaitable(self.ocomm.irecv(buf, source, tag))

    async def offload_isend_obj(
        self, obj: Any, dest: int, tag: int = 0
    ) -> Status:
        return await self.awaitable(self.ocomm.isend_obj(obj, dest, tag))

    def telemetry_snapshot(self) -> dict:
        """Merged engine snapshot (pool-merged when sharded), with
        ``loop_crossings`` among its ``counters``."""
        snap = self.ocomm.engine.telemetry_snapshot()
        snap["counters"]["loop_crossings"] = self.loop_crossings
        return snap

    def stats(self) -> dict:
        stats = self.ocomm.engine.stats()
        stats["loop_crossings"] = self.loop_crossings
        return stats
