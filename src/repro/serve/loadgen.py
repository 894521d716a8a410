"""Seeded traffic generator for the serving front-end.

One seed fixes the whole request schedule — per-request tenant,
payload size, and (open-loop) arrival offset are all drawn up front
from ``random.Random(seed)`` — so a run is replayable even though the
*service order* under asyncio is not deterministic.  The report's
accounting is exact either way:

    issued == completed + failed + rejected        (zero lost)

Two arrival processes:

- **closed loop** — ``concurrency`` workers issue back-to-back, the
  classic closed system; concurrency *is* the offered load.
- **open loop** — Poisson arrivals at ``rate``/s regardless of
  completions, the paper-serving scenario where backpressure (typed
  rejections) is the only relief valve.

Each request is a loopback echo on the local rank: post ``irecv``,
post ``isend`` with a unique tag, await both — two offloaded commands
and two continuation fires per request, driven across the sharded
pool when ``pool_size > 1``.  The chaos harness reuses this module as
its "realistic workload" (``run_chaos(workload="serve")``).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro import obs
from repro.core import offloaded
from repro.core.recovery import RecoveryPolicy
from repro.core.request_pool import OffloadError
from repro.mpisim.exceptions import MPIError
from repro.mpisim.world import World
from repro.serve.bridge import AsyncOffloadEngine
from repro.serve.frontend import (
    ServeOverloadError,
    ServingFrontend,
    SLOReport,
)

__all__ = ["LoadgenConfig", "LoadgenReport", "run_loadgen"]


@dataclass
class LoadgenConfig:
    """One seeded traffic mix; every field has a short-smoke default."""

    seed: int = 0
    #: "closed" (worker loop) or "open" (Poisson arrivals)
    mode: str = "closed"
    requests: int = 200
    #: closed-loop concurrent awaiters
    concurrency: int = 32
    #: open-loop mean arrival rate, requests/second
    rate: float = 2000.0
    #: tenant -> weight (schedule draws are weight-proportional)
    tenants: dict[str, float] = field(
        default_factory=lambda: {"gold": 3.0, "silver": 2.0, "bronze": 1.0}
    )
    #: ("fixed", n) | ("uniform", lo, hi) | ("bimodal", small, large, p_large)
    size_dist: tuple = ("bimodal", 64, 4096, 0.1)
    #: engine shards serving the loop
    pool_size: int = 2
    max_in_flight: int = 64
    tenant_queue_depth: int = 128
    slo_p50_ms: float | None = 50.0
    slo_p99_ms: float | None = 500.0
    #: per-command deadline (s) of the engines' recovery policy
    op_timeout: float | None = 5.0
    run_timeout: float = 120.0


@dataclass
class LoadgenReport:
    issued: int
    completed: int
    failed: dict[str, int]
    rejected: int
    per_tenant: dict[str, dict[str, int]]
    slo: SLOReport
    balance_ok: bool
    balance_detail: dict
    continuation_fires: int
    continuation_drops: int
    #: ``call_soon_threadsafe`` wake-ups the bridge cost the loop
    #: (one per drain of its landed queue, not one per completion)
    loop_crossings: int

    @property
    def lost(self) -> int:
        """Issued requests with no terminal outcome; the contract is 0."""
        return self.issued - (
            self.completed + sum(self.failed.values()) + self.rejected
        )

    @property
    def ok(self) -> bool:
        return self.lost == 0 and self.balance_ok

    def render(self) -> str:
        lines = [
            f"loadgen: issued={self.issued} completed={self.completed} "
            f"failed={self.failed or '{}'} rejected={self.rejected} "
            f"lost={self.lost}",
            "  " + self.slo.render(),
            f"  fires={self.continuation_fires} "
            f"drops={self.continuation_drops} "
            f"loop_crossings={self.loop_crossings} "
            f"balance={'OK' if self.balance_ok else 'IMBALANCED'}",
        ]
        for tenant, row in sorted(self.per_tenant.items()):
            lines.append(f"  tenant[{tenant}]: {row}")
        lines.append(
            "  verdict: " + ("PASS" if self.ok else "FAIL")
        )
        return "\n".join(lines)


def _draw_size(rng: random.Random, dist: tuple) -> int:
    kind = dist[0]
    if kind == "fixed":
        return int(dist[1])
    if kind == "uniform":
        return rng.randint(int(dist[1]), int(dist[2]))
    if kind == "bimodal":
        small, large, p_large = dist[1], dist[2], dist[3]
        return int(large if rng.random() < p_large else small)
    raise ValueError(f"unknown size distribution {dist!r}")


def build_schedule(config: LoadgenConfig) -> list[tuple[str, int, float]]:
    """The seeded request schedule: (tenant, payload_bytes, arrival_s).

    Drawn eagerly so the schedule depends only on the seed, never on
    completion timing."""
    rng = random.Random(f"loadgen:{config.seed}")
    names = sorted(config.tenants)
    weights = [config.tenants[t] for t in names]
    arrival = 0.0
    schedule = []
    for _ in range(config.requests):
        tenant = rng.choices(names, weights=weights, k=1)[0]
        size = _draw_size(rng, config.size_dist)
        if config.mode == "open":
            arrival += rng.expovariate(config.rate)
        schedule.append((tenant, size, arrival))
    return schedule


async def _drive(
    config: LoadgenConfig,
    frontend: ServingFrontend,
    engine: AsyncOffloadEngine,
    schedule: list[tuple[str, int, float]],
) -> int:
    """Issue the schedule through the front-end; returns issued count."""

    def echo_op(rid: int, size: int):
        async def op() -> Any:
            rbuf = np.empty(size, dtype=np.uint8)
            sbuf = np.full(size, rid % 251, dtype=np.uint8)
            # Unique tag per request: concurrent echoes never
            # cross-match even with thousands in flight.
            await asyncio.gather(
                engine.offload_irecv(rbuf, engine.rank, tag=rid),
                engine.offload_isend(sbuf, engine.rank, tag=rid),
            )
            return rbuf

        return op

    async def issue(rid: int, tenant: str, size: int) -> None:
        try:
            await frontend.request(tenant, echo_op(rid, size))
        except ServeOverloadError:
            pass  # typed rejection: terminal, counted by the frontend
        except (OffloadError, MPIError, TimeoutError):
            pass  # typed failure: terminal, counted by the frontend

    await frontend.start()
    if config.mode == "closed":
        pending = list(enumerate(schedule))
        pending.reverse()

        async def worker() -> None:
            while pending:
                rid, (tenant, size, _) = pending.pop()
                await issue(rid, tenant, size)

        await asyncio.gather(
            *(worker() for _ in range(max(1, config.concurrency)))
        )
    elif config.mode == "open":
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        tasks = []
        for rid, (tenant, size, arrival) in enumerate(schedule):
            delay = (t0 + arrival) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                asyncio.ensure_future(issue(rid, tenant, size))
            )
        await asyncio.gather(*tasks)
    else:
        raise ValueError(f"unknown loadgen mode {config.mode!r}")
    await frontend.stop()
    return len(schedule)


def run_loadgen(
    config: LoadgenConfig,
    faults: "Any | None" = None,
    recovery: RecoveryPolicy | None = None,
) -> LoadgenReport:
    """One seeded loadgen run on a private single-rank world.

    ``faults`` installs a :class:`~repro.faults.plan.FaultPlan` on the
    world (the chaos harness passes its profile plan).  The engines
    carry one :class:`~repro.core.recovery.RecoveryPolicy`: ``recovery``
    (or a default one) with ``config.op_timeout`` as its deadline.
    """
    from repro.mpisim.constants import ThreadLevel

    if config.op_timeout is not None:
        recovery = replace(
            RecoveryPolicy() if recovery is None else recovery,
            op_timeout=config.op_timeout,
        )
    world = World(1, thread_level=ThreadLevel.MULTIPLE)
    if faults is not None:
        world.install_faults(faults)
    schedule = build_schedule(config)
    out: list[LoadgenReport] = []

    def program(comm) -> None:
        with offloaded(
            comm,
            pool_size=config.pool_size if config.pool_size > 1 else None,
            recovery=recovery,
        ) as oc:
            engine = AsyncOffloadEngine(oc)
            frontend = ServingFrontend(
                engine,
                max_in_flight=config.max_in_flight,
                tenant_queue_depth=config.tenant_queue_depth,
                slo_p50_ms=config.slo_p50_ms,
                slo_p99_ms=config.slo_p99_ms,
            )
            issued = asyncio.run(
                _drive(config, frontend, engine, schedule)
            )
            try:
                oc.flush()
            except (OffloadError, MPIError):
                pass
            slo = frontend.slo_report()
            snap = engine.telemetry_snapshot()
            balance_ok, detail = obs.check_balance(snap)
            # a pool's shards each drain only their own ring: each
            # must balance on its own, not only the merged view
            for shard in oc.engine.engines:
                ok, _ = obs.check_balance(shard.telemetry_snapshot())
                balance_ok = balance_ok and ok
            stats = engine.stats()
            assert frontend.lost() == 0, frontend.lost()
            out.append(
                LoadgenReport(
                    issued=issued,
                    completed=frontend.completed,
                    failed=dict(frontend.failed),
                    rejected=frontend.rejected,
                    per_tenant=frontend.per_tenant(),
                    slo=slo,
                    balance_ok=balance_ok,
                    balance_detail=detail,
                    continuation_fires=stats.get("continuation_fires", 0),
                    continuation_drops=stats.get("continuation_drops", 0),
                    loop_crossings=engine.loop_crossings,
                )
            )

    world.run(program, timeout=config.run_timeout)
    assert out, "loadgen program produced no report"
    return out[0]
