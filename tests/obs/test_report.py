"""Snapshot / merge / render / registry tests against real engines."""

import threading

import numpy as np
import pytest

from repro import obs
from repro.core import OffloadTimeout, offloaded
from repro.core.offload_comm import OffloadCommunicator
from repro.core.request_pool import OffloadError

from tests.conftest import run_world_mt


@pytest.fixture(autouse=True)
def clean_registry():
    obs.drain_snapshots()
    yield
    obs.drain_snapshots()


def _run_some_traffic(telemetry=True, pool_size=None):
    def prog(comm):
        with offloaded(comm, telemetry=telemetry, pool_size=pool_size) as oc:
            peer = (comm.rank + 1) % comm.size
            src = (comm.rank - 1) % comm.size
            r = oc.irecv(np.empty(8), src, tag=0)
            s = oc.isend(np.ones(8), peer, tag=0)
            s.wait(timeout=30)
            r.wait(timeout=30)
            oc.allreduce(np.array([1.0]))
            # the pool's merged snapshot, at any width
            return oc.engine.telemetry_snapshot()

    return run_world_mt(2, prog)


def _mixed_terminal_states(telemetry: bool):
    def prog(comm):
        with offloaded(comm, telemetry=telemetry, pool_size=1) as oc:
            r = oc.irecv(np.empty(8), 0, tag=0)
            oc.isend(np.ones(8), 0, tag=0).wait(timeout=30)
            r.wait(timeout=30)
            with pytest.raises(OffloadError):
                oc.isend(np.ones(8), comm.size + 5, tag=0).wait(timeout=30)
            hurried = OffloadCommunicator(oc.inner, oc.engine, op_timeout=0.05)
            with pytest.raises(OffloadTimeout):
                hurried.irecv(np.empty(8), 0, tag=99).wait(timeout=30)
            oc.flush()
            engine = oc.engine
        # stopped: nothing ticks between the two reads
        return engine.telemetry_snapshot(), engine.stats()

    (result,) = run_world_mt(1, prog)
    return result


class TestSnapshot:
    def test_engine_snapshot_shape_and_balance(self):
        snaps = _run_some_traffic()
        for snap in snaps:
            assert snap["ranks"] in ([0], [1])
            assert snap["engines"] == 1
            for section in ("counters", "queue", "pool", "progress"):
                assert isinstance(snap[section], dict)
            c = snap["counters"]
            assert c["enqueues"] == c["commands_drained"]
            assert c["testany_sweeps"] > 0
            # every slot released, the blocking allreduce's included
            assert c["pool_allocated"] == 0
            ok, detail = obs.check_balance(snap)
            assert ok, detail

    def test_counters_do_not_depend_on_the_switch(self):
        """One successful exchange, one isend to a rank that does not
        exist, one deadline expiry and one flush: with telemetry off
        the balance law holds on real counts, ``completions`` counts
        every terminal state as with it on, and the snapshot's counters
        are ``stats()``."""
        off_snap, off_stats = _mixed_terminal_states(telemetry=False)
        on_snap, on_stats = _mixed_terminal_states(telemetry=True)
        ok, detail = obs.check_balance(off_snap)
        assert ok, detail
        assert detail["enqueued"] > 0
        assert off_stats["completions"] == on_stats["completions"] == 5
        assert off_stats["deadline_expirations"] == 1
        for key, value in off_snap["counters"].items():
            assert value == off_stats[key], key
        for key in (
            "enqueues",
            "commands_drained",
            "commands_processed",
            "control_commands",
            "deadline_expirations",
        ):
            assert off_stats[key] == on_stats[key], key

    def test_group_snapshot_merges_engines(self):
        snaps = _run_some_traffic(pool_size=2)
        for snap in snaps:
            assert snap["engines"] == 2
            ok, detail = obs.check_balance(snap)
            assert ok, detail


def _settled(snap: dict) -> bool:
    """The balance law's half that holds under traffic: every drained
    command is terminal, engine control, or still pending."""
    c = snap["counters"]
    return (
        c["enqueues"] >= c["commands_drained"]
        == c["completions"] + c["control_commands"] + snap["in_flight"]
    )


class TestLiveSnapshot:
    @pytest.mark.parametrize("pool_size", [1, 2])
    def test_snapshots_sampled_under_traffic_balance(self, pool_size):
        """A sampler thread snapshots the pool and each shard while the
        rank exchanges windows of messages and collectives: every
        snapshot balances, because its counts and depth are the one
        value the loop last published, never a read of counters the
        loop is moving (ROADMAP item 2(f))."""

        def prog(comm):
            peer = (comm.rank + 1) % comm.size
            src = (comm.rank - 1) % comm.size
            with offloaded(comm, telemetry=False, pool_size=pool_size) as oc:
                stop = threading.Event()
                bad: list = []
                samples = [0]

                def sample():
                    while not stop.is_set():
                        pool = oc.engine
                        for snap in [pool.telemetry_snapshot()] + [
                            e.telemetry_snapshot() for e in pool.engines
                        ]:
                            if not _settled(snap):
                                bad.append(snap)
                        samples[0] += 1

                sampler = threading.Thread(target=sample)
                sampler.start()
                try:
                    for rnd in range(30):
                        reqs = [
                            oc.irecv(np.empty(8), src, tag=rnd)
                            for _ in range(8)
                        ] + [
                            oc.isend(np.ones(8), peer, tag=rnd)
                            for _ in range(8)
                        ]
                        for r in reqs:
                            r.wait(timeout=30)
                        if rnd % 5 == 4:
                            oc.allreduce(np.array([1.0]))
                        oc.flush()
                finally:
                    stop.set()
                    sampler.join(30)
                assert not sampler.is_alive()
                return bad[:1], samples[0]

        for bad, samples in run_world_mt(2, prog):
            assert samples > 0
            assert not bad, obs.render(bad[0])


class TestMergeRender:
    def test_merge_sums_and_unions_ranks(self):
        snaps = _run_some_traffic()
        merged = obs.merge(snaps)
        assert merged["ranks"] == [0, 1]
        assert merged["engines"] == 2
        total = sum(s["counters"]["enqueues"] for s in snaps)
        assert merged["counters"]["enqueues"] == total
        ok, _ = obs.check_balance(merged)
        assert ok

    def test_merge_empty(self):
        merged = obs.merge([])
        assert merged["ranks"] == []
        assert merged["engines"] == 0
        ok, _ = obs.check_balance(merged)
        assert ok  # 0 == 0 == 0

    def test_render_mentions_counters_and_balance(self):
        merged = obs.merge(_run_some_traffic())
        text = obs.render(merged, title="t")
        assert text.startswith("t:")
        assert "testany_sweeps" in text
        assert "balance:" in text
        assert "OK" in text


class TestRegistry:
    def test_engines_record_final_snapshot_on_stop(self):
        _run_some_traffic(telemetry=True)
        snaps = obs.drain_snapshots()
        # one snapshot per engine (2 ranks x 1 engine)
        assert len(snaps) == 2
        merged = obs.merge(snaps)
        # at shutdown everything is drained: enqueued == completed+control
        ok, detail = obs.check_balance(merged)
        assert ok, detail
        assert merged["counters"]["control_commands"] == 2  # SHUTDOWNs
        assert obs.drain_snapshots() == []  # drained exactly once

    def test_disabled_engines_record_nothing(self):
        _run_some_traffic(telemetry=False)
        assert obs.drain_snapshots() == []

    def test_peek_does_not_drain(self):
        obs.record_snapshot({"counters": {}, "in_flight": 0})
        assert len(obs.peek_snapshots()) == 1
        assert len(obs.peek_snapshots()) == 1
        assert len(obs.drain_snapshots()) == 1


class TestGlobalToggle:
    def test_context_manager_scopes_default(self):
        prev = obs.enabled()
        with obs.telemetry(True):
            assert obs.enabled()
            with obs.telemetry(False):
                assert not obs.enabled()
            assert obs.enabled()
        assert obs.enabled() == prev

    def test_engine_picks_up_global_default(self):
        def prog(comm):
            with obs.telemetry(True):
                with offloaded(comm, pool_size=1) as oc:
                    oc.allreduce(np.array([1.0]))

        run_world_mt(2, prog)
        # one final snapshot filed per engine (2 ranks x 1 engine)
        assert len(obs.drain_snapshots()) == 2
