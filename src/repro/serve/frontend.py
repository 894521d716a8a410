"""Serving front-end: admission control, fair queuing, SLO reports.

The front-end sits between many concurrent awaiters and one (possibly
sharded) offload engine.  Its contract:

- **Admission control / backpressure.**  Every request is served at
  once, admitted into its tenant's bounded queue, or refused
  *immediately* with a typed error (:class:`TenantQueueFull` for a full
  tenant queue, :class:`ServeOverloadError` for the global backlog
  cap) — callers never block on admission, mirroring the command
  ring's typed ``QueueFull`` backpressure one layer down.
- **Admission with room is a call.**  The global concurrency cap
  (``max_in_flight``) bounds how many operations are outstanding on
  the engine at once.  A :meth:`~ServingFrontend.request` that finds
  room under the cap and nothing queued runs its operation in the
  caller's own task: no future, no task, no turn of the event loop is
  spent on admission.  Without room (or through
  :meth:`~ServingFrontend.submit`) the request waits in its tenant's
  queue.
- **Per-tenant fair queuing.**  Capacity is handed to the queues by a
  synchronous pump — at start, at submission, and in every completion
  — one request per non-empty tenant queue per turn of a round-robin,
  so a flood from one tenant cannot starve the others.  Nothing that
  arrives later overtakes a queued request: the inline route is closed
  while anything is queued, and a completion pumps before it returns.
- **Accounting.**  ``accepted == completed + failed + in_flight +
  queued`` at all times, on either route — nothing is silently lost;
  the loadgen and stress tiers assert this to zero after a drain.
- **SLOs.**  :meth:`ServingFrontend.slo_report` folds the recorded
  latency reservoir into p50/p99 and attaches the engine's snapshot
  counters and the front-end's own (``serve_*``), so one report carries
  both the user-visible percentiles and the engine-side evidence
  (continuation fires/drops, pool/queue behavior) behind them.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro.core.request_pool import OffloadError
from repro.serve.bridge import AsyncOffloadEngine

__all__ = [
    "SLOReport",
    "ServeOverloadError",
    "ServingFrontend",
    "TenantQueueFull",
]


class ServeOverloadError(OffloadError):
    """Typed backpressure: refused at admission (global backlog cap,
    or the front-end is stopped)."""


class TenantQueueFull(ServeOverloadError):
    """Typed backpressure: the requesting tenant's queue is full."""


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_vals:
        return 0.0
    rank = max(0, min(len(sorted_vals) - 1, int(q * len(sorted_vals))))
    return sorted_vals[rank]


@dataclass
class SLOReport:
    """p50/p99 service latency vs. targets, with engine evidence."""

    count: int
    p50_ms: float
    p99_ms: float
    target_p50_ms: float | None
    target_p99_ms: float | None
    met: bool
    #: engine-side and ``serve_*`` counters at report time
    counters: dict = field(default_factory=dict)

    def render(self) -> str:
        def tgt(v: float | None) -> str:
            return "-" if v is None else f"{v:.1f}"

        return (
            f"slo: n={self.count} p50={self.p50_ms:.2f}ms "
            f"(target {tgt(self.target_p50_ms)}) "
            f"p99={self.p99_ms:.2f}ms (target {tgt(self.target_p99_ms)}) "
            f"fires={self.counters.get('continuation_fires', 0)} "
            f"drops={self.counters.get('continuation_drops', 0)} "
            + ("MET" if self.met else "MISSED")
        )


class _TenantState:
    __slots__ = ("queue", "accepted", "completed", "failed", "rejected")

    def __init__(self) -> None:
        #: ``(op, future, arrival time)`` in arrival order
        self.queue: deque = deque()
        self.accepted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0


class ServingFrontend:
    """Single-loop serving front-end over an :class:`AsyncOffloadEngine`.

    All methods must be called on the event-loop thread; the only
    cross-thread traffic is the engine-side continuation handoff
    inside the bridge.
    """

    def __init__(
        self,
        engine: AsyncOffloadEngine,
        *,
        max_in_flight: int = 64,
        tenant_queue_depth: int = 128,
        global_queue_depth: int | None = None,
        slo_p50_ms: float | None = None,
        slo_p99_ms: float | None = None,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.engine = engine
        self.max_in_flight = max_in_flight
        self.tenant_queue_depth = tenant_queue_depth
        self.global_queue_depth = global_queue_depth
        self.slo_p50_ms = slo_p50_ms
        self.slo_p99_ms = slo_p99_ms
        self._tenants: dict[str, _TenantState] = {}
        #: the rotation: tenants whose queue is non-empty, next to be
        #: served first (a tenant enters when its queue turns non-empty
        #: and leaves when it drains)
        self._rr: deque[_TenantState] = deque()
        self._queued = 0
        self._in_flight = 0
        self._started = False
        self._closed = False
        #: resolved by the last completion after :meth:`stop`
        self._idle: "asyncio.Future[None] | None" = None
        #: strong refs: tasks with no other reference may be collected
        self._active: set = set()
        self.accepted = 0
        self.completed = 0
        self.rejected = 0
        self.failed: dict[str, int] = {}
        self.latencies_s: list[float] = []

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._started = True
        self._pump()

    async def stop(self) -> None:
        """Drain: dispatch everything queued, wait for in-flight —
        whether or not :meth:`start` ever ran."""
        self._closed = True
        self._pump()
        # What the pump left queued waits behind a full cap, so
        # ``in_flight == 0`` alone means drained.
        if self._in_flight:
            if self._idle is None:
                self._idle = asyncio.get_running_loop().create_future()
            # shielded: a cancelled stop() must not cancel the future
            # the last completion resolves (another stop() may wait)
            await asyncio.shield(self._idle)

    # -- admission -------------------------------------------------------

    def _tenant(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState()
        return state

    def _accept(self, state: _TenantState) -> None:
        state.accepted += 1
        self.accepted += 1

    def _reject(self, state: _TenantState) -> None:
        state.rejected += 1
        self.rejected += 1

    def submit(
        self, tenant: str, op: Callable[[], Awaitable[Any]]
    ) -> "asyncio.Future[Any]":
        """Admit ``op`` into its tenant's queue or raise typed
        backpressure; never blocks."""
        state = self._tenant(tenant)
        if self._closed:
            self._reject(state)
            raise ServeOverloadError("serving front-end is stopped")
        if (
            self.global_queue_depth is not None
            and self._queued >= self.global_queue_depth
        ):
            self._reject(state)
            raise ServeOverloadError(
                f"global backlog full ({self._queued} queued)"
            )
        if len(state.queue) >= self.tenant_queue_depth:
            self._reject(state)
            raise TenantQueueFull(
                f"tenant {tenant!r} queue full "
                f"({self.tenant_queue_depth} deep)"
            )
        fut: "asyncio.Future[Any]" = (
            asyncio.get_running_loop().create_future()
        )
        if not state.queue:
            self._rr.append(state)
        state.queue.append((op, fut, time.perf_counter()))
        self._queued += 1
        self._accept(state)
        if self._started:
            self._pump()
        return fut

    async def request(
        self, tenant: str, op: Callable[[], Awaitable[Any]]
    ) -> Any:
        """Serve ``op`` and return its result (or raise its error, or
        typed backpressure).  With room under the cap and nothing
        queued — nobody to overtake — the operation runs in the
        caller's own task; cancelling the caller then cancels it."""
        if (
            self._started
            and not self._closed
            and not self._queued
            and self._in_flight < self.max_in_flight
        ):
            state = self._tenant(tenant)
            self._accept(state)
            self._in_flight += 1
            return await self._serve(op, state, time.perf_counter())
        return await self.submit(tenant, op)

    # -- service ---------------------------------------------------------

    def _pump(self) -> None:
        """Hand free capacity to the queues, one request per tenant per
        turn of the rotation.  Synchronous: whoever frees or finds
        capacity calls it before anything else can run."""
        rr = self._rr
        while rr and self._in_flight < self.max_in_flight:
            state = rr.popleft()
            op, fut, t0 = state.queue.popleft()
            if state.queue:
                rr.append(state)
            self._queued -= 1
            self._in_flight += 1
            task = asyncio.ensure_future(
                self._serve_queued(op, state, t0, fut)
            )
            self._active.add(task)
            task.add_done_callback(self._active.discard)

    async def _serve_queued(self, op, state, t0: float, fut) -> None:
        """A queued request's task: the outcome goes to the future
        :meth:`submit` returned (dropped if its awaiter gave up — a
        cancelled future does not cancel an operation already taken
        from the queue)."""
        try:
            result = await self._serve(op, state, t0)
        except BaseException as exc:
            if not fut.cancelled():
                fut.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
        else:
            if not fut.cancelled():
                fut.set_result(result)

    async def _serve(self, op, state: _TenantState, t0: float) -> Any:
        """Run one accepted request that holds one unit of capacity —
        in the caller's task (inline) or in a queued request's — and
        keep the books: the outcome is counted before the capacity is
        handed on, so the accounting law holds at every await."""
        try:
            result = await op()
        except BaseException as exc:
            state.failed += 1
            name = type(exc).__name__
            self.failed[name] = self.failed.get(name, 0) + 1
            raise
        else:
            state.completed += 1
            self.completed += 1
            self.latencies_s.append(time.perf_counter() - t0)
            return result
        finally:
            self._in_flight -= 1
            self._pump()
            if self._idle is not None and not self._in_flight:
                self._idle.set_result(None)
                self._idle = None

    # -- reporting -------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def queued(self) -> int:
        return self._queued

    def per_tenant(self) -> dict[str, dict[str, int]]:
        return {
            t: {
                "accepted": s.accepted,
                "completed": s.completed,
                "failed": s.failed,
                "rejected": s.rejected,
            }
            for t, s in self._tenants.items()
        }

    def lost(self) -> int:
        """Accepted requests with no terminal outcome and no place in
        line — must be zero always; the stress tier asserts it."""
        failed = sum(self.failed.values())
        return self.accepted - (
            self.completed + failed + self._in_flight + self._queued
        )

    def slo_report(self) -> SLOReport:
        counters = {
            **self.engine.telemetry_snapshot()["counters"],
            "serve_accepted": self.accepted,
            "serve_rejected": self.rejected,
            "serve_completed": self.completed,
            "serve_failed": sum(self.failed.values()),
        }
        lat = sorted(self.latencies_s)
        p50_ms = percentile(lat, 0.50) * 1e3
        p99_ms = percentile(lat, 0.99) * 1e3
        met = (
            self.slo_p50_ms is None or p50_ms <= self.slo_p50_ms
        ) and (self.slo_p99_ms is None or p99_ms <= self.slo_p99_ms)
        return SLOReport(
            count=len(lat),
            p50_ms=p50_ms,
            p99_ms=p99_ms,
            target_p50_ms=self.slo_p50_ms,
            target_p99_ms=self.slo_p99_ms,
            met=met,
            counters=counters,
        )
