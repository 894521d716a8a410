"""asyncio bridge: offloaded nonblocking calls as awaitables.

The continuation registry fires on the engine thread (or whichever
thread delivers a typed failure); an event loop must never be touched
from there.  The bridge therefore registers a continuation that does
exactly one thing — ``loop.call_soon_threadsafe(resolve)`` — and the
loop thread itself consumes the handle (:meth:`OffloadRequest.test`),
collecting the status or raising the typed error into the future.
This is the loop-handoff boundary the ``continuation-double-fire``
DST target pins down: the engine-side fire and the loop-side consume
are different threads, serialized only by the exactly-once claim.

If the loop is already closed when the completion lands, the delivery
is abandoned and counted as a ``continuation_drop`` — never an
unhandled exception on the engine thread.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.mpisim.constants import ANY_SOURCE, ANY_TAG
from repro.mpisim.status import Status

__all__ = ["AsyncOffloadEngine"]


class AsyncOffloadEngine:
    """Awaitable facade over an :class:`OffloadCommunicator`.

    ``await engine.offload_isend(buf, dest)`` submits the nonblocking
    command (one ring enqueue, same as the sync facade) and suspends
    the coroutine until the continuation fires; no thread ever spins
    on a done flag.  Completion cost for the waiter is one
    ``call_soon_threadsafe`` wakeup.
    """

    def __init__(
        self,
        ocomm,
        loop: asyncio.AbstractEventLoop | None = None,
    ) -> None:
        self.ocomm = ocomm
        self._loop = loop

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
        fut: "asyncio.Future[Status]" = loop.create_future()

        def resolve() -> None:
            # Loop thread: consume the handle exactly once.
            if fut.cancelled():
                # The awaiter gave up; still consume the slot so it is
                # released, and absorb the typed error if any.
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
            # Engine thread (or typed-failure deliverer).
            try:
                loop.call_soon_threadsafe(resolve)
            except RuntimeError:
                # Loop closed: the completion has nowhere to land.
                pool = getattr(req, "_pool", None)
                if pool is not None:
                    pool._note_drop()

        if not hasattr(req, "add_continuation"):
            # A degraded facade (engine dead, ``RecoveryPolicy.degrade``)
            # hands back the substrate's own request: no engine will
            # ever fire a continuation for it, and ``test()`` is what
            # pumps its progress — so the loop thread drives it.
            loop.call_soon(resolve)
            return fut
        req.add_continuation(fire)
        return fut

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
        """Merged engine snapshot (pool-merged when sharded)."""
        return self.ocomm.engine.telemetry_snapshot()

    def stats(self) -> dict:
        return self.ocomm.engine.stats()
