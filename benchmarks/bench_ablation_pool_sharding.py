"""Ablation: sharded engine pool — pool width x routing policy (DESIGN.md §13).

The paper dedicates one communication thread per rank; the pool shards
that thread N ways behind a sticky router, one consumer per ring.
This benchmark drives several ordered send streams (one per
destination) through the pool and measures aggregate message rate
across the (pool_size, router) grid, attaching the pool's routing
telemetry (router_misroutes) to each run so future perf PRs have a
trajectory baseline.

No throughput-ratio assertion: the simulator's engines contend on the
GIL, so shard scaling here demonstrates the mechanism (routing
spread), not wall-clock speedup.  ``REPRO_BENCH_SMOKE=1``
shrinks the run to a crash-only CI smoke test.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.core import offloaded
from repro.mpisim.constants import THREAD_MULTIPLE
from repro.mpisim.world import World

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N_MSGS = 60 if SMOKE else 800  # per stream
NSTREAMS = 3  # rank 0 sends to ranks 1..NSTREAMS
WINDOW = 32  # in-flight isends per stream before a wait sweep

#: (pool_size, router) grid; pool=1 is the single-engine baseline.
GRID = [
    (1, "dest"),
    (2, "dest"),
    (4, "dest"),
]


def _measure(pool_size: int, router: str, n_msgs: int = N_MSGS):
    """Aggregate send rate for one knob setting.

    Rank 0 runs one producer thread per destination — with the ``dest``
    router each (comm, destination) stream is sticky to a shard —
    while ranks 1..NSTREAMS drain their stream with blocking receives.
    """

    def prog(comm):
        if comm.rank == 0:
            with offloaded(
                comm,
                pool_size=pool_size,
                router=router,
                telemetry=True,
            ) as oc:
                def sender(dest: int) -> None:
                    payload = np.array([float(dest)])
                    window = []
                    for _ in range(n_msgs):
                        window.append(oc.isend(payload, dest, tag=5))
                        if len(window) >= WINDOW:
                            for h in window:
                                h.wait(timeout=120)
                            window.clear()
                    for h in window:
                        h.wait(timeout=120)

                threads = [
                    threading.Thread(target=sender, args=(d,))
                    for d in range(1, NSTREAMS + 1)
                ]
                t0 = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                oc.flush()
                elapsed = time.perf_counter() - t0
                stats = oc.engine.stats()
            return {
                "rate": (NSTREAMS * n_msgs) / elapsed,
                "router_misroutes": stats.get("router_misroutes", 0),
                "engines": stats.get("engines", 1),
            }
        # Receiver ranks: drain one stream in program order.
        with offloaded(comm, pool_size=1) as oc:
            buf = np.empty(1)
            for _ in range(n_msgs):
                oc.recv(buf, 0, tag=5)
        return None

    world = World(NSTREAMS + 1, thread_level=THREAD_MULTIPLE)
    out = world.run(prog, timeout=300.0)
    return out[0]


@pytest.mark.parametrize("pool_size,router", GRID)
def test_pool_rate_grid(benchmark, pool_size, router):
    out = benchmark.pedantic(
        lambda: _measure(pool_size, router),
        iterations=1,
        rounds=1 if SMOKE else 3,
    )
    print(
        f"\n  pool={pool_size} router={router:4} -> "
        f"{out['rate']:9.0f} msg/s  ({out['router_misroutes']} misroutes)"
    )
    benchmark.extra_info.update(
        {
            "msgs_per_sec": round(out["rate"]),
            "pool_size": pool_size,
            "router": router,
            "router_misroutes": out["router_misroutes"],
        }
    )
    # The grid must exercise the configured width, not silently
    # collapse to one engine.
    assert out["engines"] == pool_size


@pytest.mark.skipif(SMOKE, reason="smoke run: crash-only, no ratios")
def test_sharding_trajectory_baseline(benchmark):
    """Record (never assert) the pool-vs-baseline rate ratio.

    GIL contention makes shard count a wash for wall-clock in the
    simulator; the number this test pins down is the *trajectory*
    baseline the next perf PR measures itself against.
    """

    def both():
        base = max(
            (_measure(1, "dest") for _ in range(2)),
            key=lambda o: o["rate"],
        )
        pooled = max(
            (_measure(4, "dest") for _ in range(2)),
            key=lambda o: o["rate"],
        )
        return base, pooled

    base, pooled = benchmark.pedantic(both, iterations=1, rounds=1)
    ratio = pooled["rate"] / base["rate"]
    print(
        f"\n  pool=1 dest: {base['rate']:9.0f} msg/s"
        f"\n  pool=4 dest: {pooled['rate']:9.0f} msg/s"
        f"\n  ratio:       {ratio:.2f}x"
    )
    benchmark.extra_info.update(
        {
            "rate_pool1": round(base["rate"]),
            "rate_pool4_dest": round(pooled["rate"]),
            "pool4_over_pool1": round(ratio, 2),
        }
    )
    assert ratio > 0, "degenerate measurement"
