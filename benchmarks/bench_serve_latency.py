"""Serving-path latency and exactness: the asyncio front-end over the
sharded offload pool (DESIGN.md §16).

Two kinds of evidence, split the usual way for the ratchet:

* **blocking counters** — the serving contract is exact at any speed:
  zero lost completions (``issued == completed + failed + rejected``),
  exactly two continuation fires per completed echo (irecv + isend),
  zero abandoned deliveries, and a clean telemetry balance.  A change
  that breaks any of these moves a gated counter.  So does a return
  to one loop wake-up per completion: ``loop_crossings`` (drains of
  the bridge's landed queue, each one ``call_soon_threadsafe``) per
  continuation fire is 0.02–0.09 under this load and 1.0 without the
  queue; the run fails above 0.75 and the ratchet holds the ratio to
  the band stated in its baseline.
* **advisory timings** — closed-loop p50/p99 service latency through
  admission → fair queue → bridge → engine → continuation → landed
  queue → drain.  Tracked for trend, not gated (wall-clock on shared
  CI is noise).

``REPRO_BENCH_SMOKE=1`` shrinks the request count; the counter gates
hold at any size.
"""

from __future__ import annotations

import os

from repro.serve import LoadgenConfig, run_loadgen

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

REQUESTS = 100 if SMOKE else 600
CONCURRENCY = 16 if SMOKE else 64
POOL_SIZE = 2 if SMOKE else 4


def test_serve_latency_and_exactness(benchmark, bench_trajectory):
    """One seeded closed-loop run; percentiles from the SLO reservoir."""

    def run():
        return run_loadgen(
            LoadgenConfig(
                seed=0,
                requests=REQUESTS,
                concurrency=CONCURRENCY,
                pool_size=POOL_SIZE,
                max_in_flight=128,
                tenant_queue_depth=1024,
                slo_p50_ms=None,
                slo_p99_ms=None,
                op_timeout=30.0,
            )
        )

    report = benchmark.pedantic(run, iterations=1, rounds=1 if SMOKE else 3)
    failed = sum(report.failed.values())
    fires_exact = int(
        report.continuation_fires == 2 * report.completed
    )
    crossings_per_fire = report.loop_crossings / max(
        1, report.continuation_fires
    )
    print(
        f"\n  serve: n={report.completed} "
        f"p50={report.slo.p50_ms:8.2f} ms p99={report.slo.p99_ms:8.2f} ms "
        f"lost={report.lost} drops={report.continuation_drops} "
        f"crossings/fire={crossings_per_fire:.3f} "
        f"fires_exact={'OK' if fires_exact else 'FAIL'} "
        f"balance={'OK' if report.balance_ok else 'FAIL'}"
    )
    bench_trajectory.add_row(
        "serve_latency",
        requests=REQUESTS,
        concurrency=CONCURRENCY,
        pool_size=POOL_SIZE,
        completed=report.completed,
        failed=failed,
        rejected=report.rejected,
        lost=report.lost,
        p50_ms=round(report.slo.p50_ms, 2),
        p99_ms=round(report.slo.p99_ms, 2),
        continuation_fires=report.continuation_fires,
        continuation_drops=report.continuation_drops,
        loop_crossings=report.loop_crossings,
        smoke=SMOKE,
    )
    # exactness gates (blocking counters)
    assert report.lost == 0, report.render()
    assert report.balance_ok, report.balance_detail
    assert report.loop_crossings <= 0.75 * report.continuation_fires, (
        report.render()
    )
    bench_trajectory.metric(
        "serve_latency",
        "serve_lost",
        report.lost,
        kind="counter",
        direction="lower",
    )
    bench_trajectory.metric(
        "serve_latency",
        "serve_drops",
        report.continuation_drops,
        kind="counter",
        direction="lower",
    )
    bench_trajectory.metric(
        "serve_latency",
        "serve_fires_exact",
        fires_exact,
        kind="counter",
        direction="higher",
    )
    bench_trajectory.metric(
        "serve_latency",
        "serve_balance_ok",
        int(report.balance_ok),
        kind="counter",
        direction="higher",
    )
    bench_trajectory.metric(
        "serve_latency",
        "serve_loop_crossings_per_fire",
        round(crossings_per_fire, 3),
        kind="counter",
        direction="lower",
        # A count, but of a race: how many completions share a drain
        # depends on the load (≈ 0.02 at 64 clients, ≈ 0.07 at the
        # smoke run's 16).  The band is wide enough for both and far
        # below the 1.0 of one wake-up per completion.
        tolerance=15.0,
    )
    # latency trend (advisory timings)
    bench_trajectory.metric(
        "serve_latency",
        "serve_p50_ms",
        round(report.slo.p50_ms, 2),
        kind="time",
        direction="lower",
    )
    bench_trajectory.metric(
        "serve_latency",
        "serve_p99_ms",
        round(report.slo.p99_ms, 2),
        kind="time",
        direction="lower",
    )
