"""Unit tests for the per-thread counters and the counter glossary."""

import asyncio
import threading

import numpy as np
import pytest

from repro.core import offloaded
from repro.faults.plan import FaultAction, FaultPlan, FaultRule
from repro.obs.counters import COUNTER_GLOSSARY, Counters, merge_counters
from repro.serve import AsyncOffloadEngine, ServingFrontend

from tests.conftest import run_world_mt


class TestCounters:
    def test_inc_and_get(self):
        c = Counters()
        c.inc("a")
        c.inc("a", 4)
        c.inc("b")
        assert c.get("a") == 5
        assert c.get("b") == 1
        assert c.get("never") == 0

    def test_snapshot_is_a_copy(self):
        c = Counters()
        c.inc("a")
        snap = c.snapshot()
        snap["a"] = 999
        assert c.get("a") == 1

    def test_record_max(self):
        c = Counters()
        c.record_max("depth_hwm", 3)
        c.record_max("depth_hwm", 1)
        c.record_max("depth_hwm", 7)
        assert c.get("depth_hwm") == 7

    def test_threaded_increments_sum_exactly(self):
        """Each thread owns its shard, so no increment can be lost."""
        c = Counters()
        nthreads, per_thread = 8, 5000

        def worker(tid):
            for _ in range(per_thread):
                c.inc("events")
            c.record_max("tid_hwm", tid)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.get("events") == nthreads * per_thread
        assert c.get("tid_hwm") == nthreads - 1

    def test_counts_survive_thread_exit(self):
        c = Counters()

        def worker():
            c.inc("from_dead_thread", 3)

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert c.get("from_dead_thread") == 3

    def test_hwm_merged_with_max_across_threads(self):
        c = Counters()

        def worker(value):
            c.record_max("peak_hwm", value)

        threads = [
            threading.Thread(target=worker, args=(v,)) for v in (2, 9, 5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.get("peak_hwm") == 9


class TestMergeCounters:
    def test_sum_and_max_semantics(self):
        merged = merge_counters(
            [
                {"events": 3, "depth_hwm": 5, "max_depth": 1},
                {"events": 4, "depth_hwm": 2, "max_depth": 6, "other": 1},
            ]
        )
        assert merged == {
            "events": 7, "depth_hwm": 5, "max_depth": 6, "other": 1
        }

    def test_empty(self):
        assert merge_counters([]) == {}

    def test_a_zero_peak_is_kept(self):
        merged = merge_counters([{"max_depth": 0}, {"depth_hwm": 0}])
        assert merged == {"max_depth": 0, "depth_hwm": 0}


#: Glossary rows owned outside the offload stack: fault plans,
#: checkpoint stores and the DST explorer count through ``Counters``,
#: and the substrate's fault-tolerance counters sit in a snapshot's
#: ``progress`` section.
_ELSEWHERE = {
    "faults_injected",
    "duplicate_deep_copies",
    "checkpoint_bytes",
    "restarts",
    "schedules_explored",
    "yields",
    "lin_histories_checked",
    "dst_violations",
    "comm_revokes",
    "agree_rounds",
    "shrink_epochs",
}


def _exchange(oc) -> None:
    peer = (oc.rank + 1) % oc.size
    src = (oc.rank - 1) % oc.size
    r = oc.irecv(np.empty(8), src, tag=0)
    oc.isend(np.ones(8), peer, tag=0).wait(timeout=30)
    r.wait(timeout=30)
    oc.allreduce(np.array([1.0]))
    oc.flush()


def _engine_counters(plan=None, **kw) -> list[dict]:
    def prog(comm):
        if plan is not None:
            if comm.rank == 0:
                comm.world.install_faults(plan)
            comm.barrier()  # installed before either rank's engine
        with offloaded(comm, **kw) as oc:
            _exchange(oc)
            return oc.engine.telemetry_snapshot()["counters"]

    return run_world_mt(2, prog)


def _served_counters() -> dict:
    def prog(comm):
        with offloaded(comm) as oc:
            bridge = AsyncOffloadEngine(oc)

            async def echo() -> None:
                rbuf = np.empty(4, dtype=np.uint8)
                await asyncio.gather(
                    bridge.offload_irecv(rbuf, 0, tag=1),
                    bridge.offload_isend(np.ones(4, np.uint8), 0, tag=1),
                )

            async def main() -> dict:
                front = ServingFrontend(bridge)
                await front.start()
                await front.request("t", echo)
                await front.stop()
                return front.slo_report().counters

            return asyncio.run(main())

    (counters,) = run_world_mt(1, prog)
    return counters


@pytest.fixture(scope="module")
def emitted() -> list[dict]:
    """Counter sections of real snapshots: a single engine, a pool of
    two, an engine under an installed fault plan, and a front-end
    serving through the asyncio bridge."""
    plan = FaultPlan([FaultRule(FaultAction.STALL, duration=1e-3)])
    return [
        *_engine_counters(pool_size=1),
        *_engine_counters(pool_size=2),
        *_engine_counters(plan, pool_size=1),
        _served_counters(),
    ]


def test_glossary_covers_engine_counters(emitted):
    """Every counter a real snapshot carries is documented."""
    for counters in emitted:
        missing = set(counters) - set(COUNTER_GLOSSARY)
        assert not missing, missing


def test_every_offload_stack_row_is_emitted(emitted):
    """A glossary row of the offload stack names a counter some
    snapshot carries: a deleted counter takes its row with it."""
    seen = set().union(*emitted)
    stale = set(COUNTER_GLOSSARY) - _ELSEWHERE - seen
    assert not stale, stale
