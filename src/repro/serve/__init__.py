"""Serving front-end over the offload engine (DESIGN.md §16).

The paper's completion model is a done flag the application thread
spins on; that caps how many concurrent waiters a rank can serve.
This package layers the continuation registry
(:meth:`repro.core.request_pool.OffloadRequest.add_continuation`) up
to ``asyncio``:

- :class:`~repro.serve.bridge.AsyncOffloadEngine` — awaitable
  ``offload_isend``/``offload_irecv``/``offload_isend_obj`` whose
  completions the engine thread queues for the loop, which it wakes
  once per drain (``loop.call_soon_threadsafe``), not once each;
- :class:`~repro.serve.frontend.ServingFrontend` — admission control,
  typed queue-full backpressure, per-tenant fair queuing, and p50/p99
  latency SLO reports derived from the telemetry snapshot;
- :mod:`~repro.serve.loadgen` — a seeded traffic generator
  (open/closed-loop arrivals, tenant mixes, message-size
  distributions) driving thousands of concurrent awaiters across the
  sharded pool, reused by the stress tier and the chaos harness.
"""

from repro.serve.bridge import AsyncOffloadEngine
from repro.serve.frontend import (
    ServeOverloadError,
    ServingFrontend,
    SLOReport,
    TenantQueueFull,
)
from repro.serve.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    run_loadgen,
)

__all__ = [
    "AsyncOffloadEngine",
    "LoadgenConfig",
    "LoadgenReport",
    "SLOReport",
    "ServeOverloadError",
    "ServingFrontend",
    "TenantQueueFull",
    "run_loadgen",
]
