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
  the band stated in its baseline.  And so does a return of the
  admission broker: with room under ``max_in_flight`` (this load never
  fills it) the front-end creates no task and no future of its own per
  request — ``serve_tasks_per_request`` and
  ``serve_futures_per_request`` are 0 and 0 (1 and 1 when every
  request went through a dispatcher task), counted on the loop's
  ``create_task`` / ``create_future`` by the file of the calling frame.
* **advisory timings** — closed-loop p50/p99 service latency through
  admission → fair queue → bridge → engine → continuation → landed
  queue → drain.  Tracked for trend, not gated (wall-clock on shared
  CI is noise).

``REPRO_BENCH_SMOKE=1`` shrinks the request count; the counter gates
hold at any size.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import sys

from repro.serve import LoadgenConfig, frontend, run_loadgen

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

REQUESTS = 100 if SMOKE else 600
CONCURRENCY = 16 if SMOKE else 64
POOL_SIZE = 2 if SMOKE else 4


_ASYNCIO_DIR = os.path.dirname(asyncio.__file__)


@contextlib.contextmanager
def frontend_loop_objects():
    """Count the tasks and futures ``repro.serve.frontend`` creates:
    every ``create_task`` / ``create_future`` of any event loop whose
    nearest caller outside asyncio itself is a frame of that module
    (the operations' own — bridge futures, ``gather`` — are not its)."""
    made = {"create_task": 0, "create_future": 0}
    base = asyncio.BaseEventLoop
    originals = {name: getattr(base, name) for name in made}

    def counting(name):
        original = originals[name]

        def method(loop, *args, **kw):
            frame = sys._getframe(1)
            while frame.f_code.co_filename.startswith(_ASYNCIO_DIR):
                frame = frame.f_back
            if frame.f_code.co_filename == frontend.__file__:
                made[name] += 1
            return original(loop, *args, **kw)

        return method

    for name in made:
        setattr(base, name, counting(name))
    try:
        yield made
    finally:
        for name, original in originals.items():
            setattr(base, name, original)


def test_serve_latency_and_exactness(benchmark, bench_trajectory):
    """One seeded closed-loop run; percentiles from the SLO reservoir."""
    rounds = 1 if SMOKE else 3

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

    with frontend_loop_objects() as made:
        report = benchmark.pedantic(run, iterations=1, rounds=rounds)
    served = rounds * max(1, report.completed)
    tasks_per_request = made["create_task"] / served
    futures_per_request = made["create_future"] / served
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
        f"front-end tasks/req={tasks_per_request:.3f} "
        f"futures/req={futures_per_request:.3f} "
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
    for key, value in (
        ("serve_tasks_per_request", tasks_per_request),
        ("serve_futures_per_request", futures_per_request),
    ):
        # Exact: this load never fills ``max_in_flight``, so every
        # request is served in its caller's task.
        bench_trajectory.metric(
            "serve_latency",
            key,
            round(value, 3),
            kind="counter",
            direction="lower",
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
