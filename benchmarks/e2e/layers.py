"""Per-layer metrics: derived from the traced repetitions' spans and
counter deltas, plus the isolated single-thread layer calls.

Layer = module name.  Every ratio pools its numerator and denominator
over the traced repetitions of one workload, so a metric that does not
apply to a workload (``engine_pool.*`` without a pool, ``bridge.*``
without asyncio) reads 0.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.request_pool import OffloadRequestPool
from repro.lockfree.freelist import FreeList
from repro.lockfree.mpsc_queue import MPSCQueue
from repro.mpisim import datatypes
from repro.mpisim.envelope import Envelope, EnvelopeKind
from repro.mpisim.matching import PostedReceiveQueue, UnexpectedQueue
from repro.mpisim.requests import RecvRequest
from repro.serve.frontend import percentile as _sorted_percentile

perf = time.perf_counter_ns


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (the serving
    front-end's rule, so both report the same p50/p99)."""
    return _sorted_percentile(sorted(values), q)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def snapshot(tr) -> dict:
    """What a traced repetition keeps of its tracer."""
    return {
        "totals": tr.totals(),
        "sums": {k: list(v) for k, v in tr.sums.items()},
        "copy_bytes": tr.copy_bytes,
        "prq_hits": tr.prq_hits,
        "umq_hits": tr.umq_hits,
        "umq_hwm": tr.umq_hwm,
        "engine_cpu_s": tr.engine_cpu_s,
        "dropped": tr.dropped,
        "blocking_path": tr.blocking_path(),
    }


def derive(name: str, traced: list, untraced: list, direct: list) -> dict:
    """All trace- and counter-derived per-layer metrics of one workload."""
    snaps = [r.extra["trace"] for r in traced]
    totals: dict = {}
    sums: dict = {}
    for s in snaps:
        for k, v in s["totals"].items():
            a = totals.setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                a[i] += v[i]
        for k, v in s["sums"].items():
            a = sums.setdefault(k, [0, 0.0])
            a[0] += v[0]
            a[1] += v[1]
    counters: dict = {}
    shard_cmds: list = []
    for r in traced:
        for rank in r.counters:
            for k, v in rank.items():
                if k == "shard_commands":
                    shard_cmds = [a + b for a, b in zip(shard_cmds or [0] * len(v), v)]
                elif k.endswith("_hwm") or k.startswith("max_"):
                    counters[k] = max(counters.get(k, 0), v)
                else:
                    counters[k] = counters.get(k, 0) + v
    msgs = sum(r.msgs for r in traced)
    wall = sum(r.wall_s for r in traced)
    cmds = counters.get("commands_processed", 0)
    tot = lambda k: totals.get(k, [0, 0.0, 0.0])  # noqa: E731
    us_dur = lambda k: _div(tot(k)[1], tot(k)[0]) * 1e6  # noqa: E731
    us_self = lambda k: _div(tot(k)[2], tot(k)[0]) * 1e6  # noqa: E731
    us_sum = lambda k: _div(sums.get(k, [0, 0.0])[1], sums.get(k, [0, 0.0])[0]) * 1e6  # noqa: E731
    n_blocking = tot("offload_comm.send")[0] + tot("offload_comm.recv")[0]
    n_progress = tot("progress.progress")[0] + sums["idle_progress"][0]
    hits = sum(s["prq_hits"] + s["umq_hits"] for s in snaps)
    units = [u for r in traced for u in r.units]
    m = {
        "offload_comm.isend_self_us": us_self("offload_comm.isend"),
        "offload_comm.irecv_self_us": us_self("offload_comm.irecv"),
        "offload_comm.blocking_self_us": _div(
            tot("offload_comm.send")[2] + tot("offload_comm.recv")[2], n_blocking
        )
        * 1e6,
        "offload_comm.blocking_wait_us": us_dur("offload_comm.blocking_wait"),
        "request_pool.alloc_us": us_dur("request_pool.alloc"),
        "request_pool.release_us": us_dur("request_pool.release"),
        "request_pool.wait_blocked_us": _div(
            tot("request_pool.wait_blocked")[1], tot("request_pool.wait")[0]
        )
        * 1e6,
        "mpsc_queue.enqueue_us": us_dur("mpsc_queue.enqueue"),
        "mpsc_queue.drain_us_per_cmd": _div(
            tot("mpsc_queue.drain")[1] + sums["idle_drain"][1], cmds
        )
        * 1e6,
        "mpsc_queue.queue_wait_us": us_sum("queue_wait"),
        "mpsc_queue.cas_failures_per_cmd": _div(counters.get("queue_cas_failures", 0), cmds),
        "mpsc_queue.full_retries": counters.get("queue_full_retries", 0),
        "engine.submit_self_us": us_self("engine.submit"),
        "engine.cmds_per_batch": _div(cmds, counters.get("batch_dequeues", 0)),
        "engine.sweeps_per_cmd": _div(counters.get("progress_sweeps", 0), cmds),
        "engine.thread_cpu_us_per_cmd": _div(sum(s["engine_cpu_s"] for s in snaps), cmds) * 1e6,
        "engine.dispatch_to_done_us": us_sum("dispatch_to_done"),
        "engine.max_in_flight": counters.get("max_in_flight", 0),
        "engine.async_progress_frac": statistics.fmean(
            r.extra.get("async_progress_frac", 0.0) for r in traced
        ),
        "engine.compute_inflation": statistics.fmean(
            _div(r.extra.get("compute_s", 0.0), r.extra.get("compute_alone_s", 0.0))
            for r in traced
        ),
        "engine_pool.route_us": us_dur("engine_pool.route"),
        "engine_pool.steals": counters.get("steals", 0),
        "engine_pool.shard_imbalance": _div(max(shard_cmds, default=0), _div(sum(shard_cmds), len(shard_cmds))),
        "progress.post_send_us": us_self("progress.post_send"),
        "progress.post_recv_us": us_self("progress.post_recv"),
        "progress.progress_call_us": _div(
            tot("progress.progress")[1] + sums["idle_progress"][1], n_progress
        )
        * 1e6,
        "progress.useful_progress_frac": _div(tot("progress.progress")[0], n_progress),
        "progress.lock_contentions_per_msg": _div(counters.get("lock_contentions", 0), msgs),
        "progress.envelopes_per_msg": _div(counters.get("envelopes_handled", 0), msgs),
        "progress.rendezvous_frac": _div(
            counters.get("rendezvous_sends", 0),
            counters.get("rendezvous_sends", 0) + counters.get("eager_sends", 0),
        ),
        "matching.posted_match_us": us_dur("matching.posted_match"),
        "matching.unexpected_match_us": us_dur("matching.unexpected_match"),
        "matching.unexpected_frac": _div(sum(s["umq_hits"] for s in snaps), hits),
        "matching.umq_depth_hwm": max(s["umq_hwm"] for s in snaps),
        "datatypes.copy_into_us": us_dur("datatypes.copy_into"),
        "datatypes.copy_GBps": _div(
            sum(s["copy_bytes"] for s in snaps), tot("datatypes.copy_into")[1]
        )
        / 1e9,
        "datatypes.copies_per_msg": _div(tot("datatypes.copy_into")[0], msgs),
        "datatypes.copy_time_share": _div(tot("datatypes.copy_into")[1], wall),
        "datatypes.zero_copy_hits_per_msg": _div(counters.get("payload_zero_copy_hits", 0), msgs),
        "bridge.awaitable_us": us_dur("bridge.awaitable"),
        "bridge.wake_us": us_sum("wake"),
        "frontend.overhead_ms": (
            statistics.fmean(units) - statistics.fmean(r.extra["op_s"] for r in traced)
        )
        * 1e3
        if name == "serve_closed"
        else 0.0,
        "frontend.req_p99_ms": percentile(units, 0.99) * 1e3 if name == "serve_closed" else 0.0,
        "frontend.rejected": sum(r.extra.get("rejected", 0) for r in traced),
        "trace.overhead_frac": _div(
            statistics.median(r.msgs / r.wall_s for r in untraced),
            statistics.median(r.msgs / r.wall_s for r in traced),
        )
        - 1.0,
        "trace.unattributed_frac": _div(tot("bench.unit")[2], tot("bench.unit")[1]),
        "trace.spans_dropped": sum(s["dropped"] for s in snaps),
    }
    # tail latency of the untraced units: reported, not gated (its
    # run-to-run spread is several times the median's)
    u_units = [u for r in untraced for u in r.units]
    m["tail.lat_p90_us"] = percentile(u_units, 0.9) * 1e6
    m["tail.lat_p99_us"] = percentile(u_units, 0.99) * 1e6
    d_units = [u for r in direct for u in r.units]
    m["mpisim.direct_msg_rate"] = (
        statistics.median(r.msgs / r.wall_s for r in direct) if direct else 0.0
    )
    m["mpisim.direct_lat_p50_us"] = percentile(d_units, 0.5) * 1e6 if direct else 0.0
    m["mpisim.direct_bandwidth_MBps"] = (
        statistics.median(r.nbytes / r.wall_s for r in direct) / 1e6 if direct else 0.0
    )
    m["mpisim.direct_step_ms_p50"] = (
        percentile(d_units, 0.5) * 1e3 if direct and name == "halo_overlap" else 0.0
    )
    return {k: float(v) for k, v in m.items()}


# ------------------------------------------------ isolated layer calls


def _best_ns(fn, ops: int, rounds: int = 5) -> float:
    """Best-of-``rounds`` nanoseconds per operation of ``fn()``, which
    performs ``ops`` operations (single thread: nothing contends)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = perf()
        fn()
        best = min(best, (perf() - t0) / ops)
    return best


def isolated() -> dict:
    """Drive each layer's public functions alone on this thread:
    ``name -> (value, unit)``."""
    out: dict = {}
    n = 2000

    q: MPSCQueue = MPSCQueue(4096)
    item = object()

    t_enq, t_drain = [], []
    for _ in range(5):
        t0 = perf()
        for _ in range(n):
            q.enqueue(item)
        t1 = perf()
        q.drain()
        t_enq.append((t1 - t0) / n)
        t_drain.append((perf() - t1) / n)
    out["mpsc_queue.iso_enqueue_ns"] = min(t_enq)
    out["mpsc_queue.iso_drain_ns"] = min(t_drain)

    fl: FreeList = FreeList(64)

    def freelist():
        for _ in range(n):
            fl.free(fl.alloc())

    out["freelist.iso_alloc_free_ns"] = _best_ns(freelist, n)

    pool = OffloadRequestPool(64)

    def request_pool():
        for _ in range(n):
            pool.release(pool.alloc())

    out["request_pool.iso_alloc_release_ns"] = _best_ns(request_pool, n)

    buf = np.zeros(8, dtype=np.uint8)

    def env(tag: int) -> Envelope:
        return Envelope(kind=EnvelopeKind.EAGER, src=0, dst=1, context_id=0, tag=tag, nbytes=8)

    for depth in (1, 64, 1024):
        # the match is the last of `depth` entries: a full linear search
        reqs = [RecvRequest(None, buf, 0, tag, 0) for tag in range(depth)]
        envs = [env(tag) for tag in range(depth)]
        last_env, last_req = envs[-1], reqs[-1]
        prq = PostedReceiveQueue()
        umq = UnexpectedQueue()
        for r, e in zip(reqs, envs):
            prq.post(r)
            umq.add(e)
        k = max(20, 20000 // depth)

        def posted():
            for _ in range(k):
                prq.post(prq.match(last_env))

        def unexpected():
            for _ in range(k):
                umq.add(umq.match(0, depth - 1, 0))

        out[f"matching.iso_posted_match_ns_d{depth}"] = _best_ns(posted, k)
        out[f"matching.iso_unexpected_match_ns_d{depth}"] = _best_ns(unexpected, k)

    for label, size, k in (("64", 64, 2000), ("4k", 4096, 2000), ("4m", 4 << 20, 8)):
        src = np.ones(size, dtype=np.uint8)
        dst = np.zeros(size, dtype=np.uint8)

        def copy():
            for _ in range(k):
                datatypes.copy_into(dst, src)

        out[f"datatypes.iso_copy_GBps_{label}"] = size / _best_ns(copy, k)
    return {k: (float(v), "GB/s" if "GBps" in k else "ns") for k, v in out.items()}
