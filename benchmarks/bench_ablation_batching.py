"""Ablation: batched command draining (DESIGN.md §11).

The engine's hot loop pays a fixed per-iteration cost (one progress
pump, one retry/deadline sweep) regardless of how many commands it
issues.  Draining the ring in batches amortizes that cost over up to
``repro.core.engine._BATCH`` commands, posted under one substrate
entry per run.  This benchmark patches that batch size, measures
small-message rate across it and asserts the headline claim: batch 16
beats the unbatched loop by >= 1.5x.

``REPRO_BENCH_SMOKE=1`` shrinks the run to a crash-only CI smoke test
(tiny message counts, no throughput assertion).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import engine as engine_mod
from repro.core.engine_pool import EnginePool
from repro.core.offload_comm import OffloadCommunicator
from repro.mpisim.constants import ANY_SOURCE, ANY_TAG, THREAD_MULTIPLE
from repro.mpisim.world import World

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N_MSGS = 100 if SMOKE else 1_500

#: batch-size grid; batch=1 is the pre-batching loop.
GRID = [1, 16, 64]


def _measure(batch_size: int, n_msgs: int = N_MSGS):
    """Message rate for one knob setting: single-rank self-send drain.

    All commands are queued *before* the engine thread starts, so the
    timed region is exactly the engine's issue loop — the thing the
    knobs change — with no app-side submit cost mixed in.  Commands
    alternate blocks of 32 wildcard receives and 32 sends: matching
    stays O(1) and the in-flight set stays bounded by one block.
    """
    block = 32

    def prog(comm):
        cap = 1 << (2 * n_msgs + 2).bit_length()
        oc = OffloadCommunicator(
            comm,
            EnginePool(
                comm, pool_capacity=cap, queue_capacity=cap, telemetry=True
            ),
        )
        (engine,) = oc.engine.engines
        bufs = [np.empty(1) for _ in range(n_msgs)]
        payload = np.array([1.0])
        handles = []
        for base in range(0, n_msgs, block):
            c = min(block, n_msgs - base)
            handles += [
                oc.irecv(bufs[base + i], ANY_SOURCE, tag=ANY_TAG)
                for i in range(c)
            ]
            handles += [oc.isend(payload, 0, tag=7) for _ in range(c)]
        t0 = time.perf_counter()
        engine.start()
        for h in handles:
            h.wait(timeout=120)
        elapsed = time.perf_counter() - t0
        stats = engine.stats()
        engine.stop()
        return {
            "rate": n_msgs / elapsed,
            "batch_size_hwm": stats["batch_size_hwm"],
            "batch_dequeues": stats["batch_dequeues"],
        }

    world = World(1, thread_level=THREAD_MULTIPLE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "_BATCH", batch_size)
        (out,) = world.run(prog, timeout=300.0)
    return out


@pytest.mark.parametrize("batch_size", GRID)
def test_message_rate_grid(benchmark, batch_size):
    out = benchmark.pedantic(
        lambda: _measure(batch_size),
        iterations=1,
        rounds=1 if SMOKE else 3,
    )
    print(
        f"\n  batch={batch_size:3d} -> "
        f"{out['rate']:9.0f} msg/s  (batch hwm {out['batch_size_hwm']})"
    )
    benchmark.extra_info.update(
        {
            "msgs_per_sec": round(out["rate"]),
            "batch_size_hwm": out["batch_size_hwm"],
        }
    )


@pytest.mark.skipif(SMOKE, reason="smoke run: crash-only, no ratios")
def test_batching_speedup_at_least_1_5x(benchmark):
    """The acceptance bar: batch 16 >= 1.5x batch 1."""

    def both():
        # best-of-2 per config: the claim is about the mechanism, not
        # about scheduler noise in any single run
        base = max(
            (_measure(1) for _ in range(2)),
            key=lambda o: o["rate"],
        )
        batched = max(
            (_measure(16) for _ in range(2)),
            key=lambda o: o["rate"],
        )
        return base, batched

    base, batched = benchmark.pedantic(both, iterations=1, rounds=1)
    ratio = batched["rate"] / base["rate"]
    print(
        f"\n  batch=1:  {base['rate']:9.0f} msg/s"
        f"\n  batch=16: {batched['rate']:9.0f} msg/s"
        f"\n  speedup:  {ratio:.2f}x"
    )
    benchmark.extra_info.update(
        {
            "rate_batch1": round(base["rate"]),
            "rate_batch16": round(batched["rate"]),
            "speedup": round(ratio, 2),
        }
    )
    assert ratio >= 1.5, (
        f"batched rate only {ratio:.2f}x the unbatched rate"
    )
