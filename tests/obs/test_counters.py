"""Unit tests for the per-thread telemetry counters."""

import threading

from repro.obs.counters import COUNTER_GLOSSARY, Counters, merge_counters


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
                {"events": 3, "depth_hwm": 5},
                {"events": 4, "depth_hwm": 2, "other": 1},
            ]
        )
        assert merged == {"events": 7, "depth_hwm": 5, "other": 1}

    def test_empty(self):
        assert merge_counters([]) == {}


def test_glossary_covers_engine_counters():
    """Every counter the engine stack emits is documented."""
    for name in (
        "enqueues",
        "queue_full_retries",
        "commands_drained",
        "blocking_conversions",
        "testany_sweeps",
        "completions",
        "doorbell_wakes",
        "timed_wakes",
        "control_commands",
        "pool_allocs",
        "pool_releases",
        "pool_exhausted",
        "in_flight_hwm",
        "queue_occupancy_hwm",
    ):
        assert name in COUNTER_GLOSSARY
        assert COUNTER_GLOSSARY[name]
