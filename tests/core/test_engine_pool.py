"""Several offload threads per rank (§7 future work): an
:class:`EnginePool` under the ``thread`` router, one engine per
application thread."""

import threading
import time

import numpy as np
import pytest

from repro.core import EnginePool, offloaded
from repro.core.commands import Command, CommandKind
from repro.core.request_pool import OffloadEngineDied
from repro.dst.targets import _FakeComm, _RoundRobinRouter
from repro.mpisim import THREAD_FUNNELED
from repro.mpisim.exceptions import ThreadLevelError
from repro.obs import check_balance

from tests.conftest import run_world, run_world_mt


class TestConstruction:
    def test_requires_thread_multiple(self):
        def prog(comm):
            with pytest.raises(ThreadLevelError):
                EnginePool(comm, pool_size=2, router="thread")
            return True

        assert all(run_world(1, prog, thread_level=THREAD_FUNNELED))

    def test_single_thread_group_any_level(self):
        def prog(comm):
            with EnginePool(comm, pool_size=1, router="thread") as g:
                assert len(g.engines) == 1
            return True

        assert all(run_world(1, prog))

    def test_invalid_nthreads(self):
        def prog(comm):
            with pytest.raises(ValueError):
                EnginePool(comm, pool_size=0)
            return True

        assert all(run_world_mt(1, prog))

    @pytest.mark.parametrize("pool_size", [1, 2])
    def test_unknown_router_rejected_at_every_width(self, pool_size):
        def prog(comm):
            with pytest.raises(ValueError, match="unknown router"):
                with offloaded(comm, pool_size=pool_size, router="bogus"):
                    pass
            return True

        assert all(run_world_mt(1, prog))


class TestInspection:
    @pytest.mark.parametrize("pool_size", [1, 2])
    def test_reading_the_pool_pins_no_stream(self, pool_size):
        """Only commands are routed: inspecting the pool from a thread
        the router has never seen leaves its pin table as it was."""

        def prog(comm):
            with offloaded(comm, pool_size=pool_size, router="thread") as oc:
                oc.allreduce(np.ones(1))
                pool = oc.engine
                pins = dict(pool.router._streams)
                out = []

                def inspect():
                    pool.stats()
                    pool.telemetry_snapshot()
                    pool.pending_work()
                    out.append(dict(pool.router._streams))

                t = threading.Thread(target=inspect)
                t.start()
                t.join(30)
                assert out == [pins]
                assert not hasattr(pool, "queue")
            return True

        assert all(run_world_mt(1, prog))


class TestRouting:
    def test_sticky_per_thread_assignment(self):
        def prog(comm):
            with EnginePool(comm, pool_size=2, router="thread") as g:
                picks = {}
                # all workers alive simultaneously: sequential threads
                # can reuse OS thread idents and collapse onto one
                # engine, which is legal but defeats the spread check
                gate = threading.Barrier(4)

                def worker(tid):
                    gate.wait()
                    a = g.route()
                    b = g.route()
                    picks[tid] = (a, b)
                    gate.wait()

                threads = [
                    threading.Thread(target=worker, args=(t,))
                    for t in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                # stickiness: both calls from one thread hit one engine
                assert all(a is b for a, b in picks.values())
                # spread: 4 threads over 2 engines -> both used
                engines = {id(a) for a, _ in picks.values()}
                assert len(engines) == 2
            return True

        assert all(run_world_mt(1, prog))

    def test_per_thread_ordering_preserved(self):
        """A single app thread's sends arrive in program order even
        with several offload threads in the pool."""

        def prog(comm):
            with offloaded(comm, pool_size=3, router="thread") as oc:
                peer = 1 - comm.rank
                n_msgs = 30
                if comm.rank == 0:
                    for i in range(n_msgs):
                        oc.send(np.array([float(i)]), peer, tag=4)
                    return None
                got = []
                buf = np.empty(1)
                for _ in range(n_msgs):
                    oc.recv(buf, peer, tag=4)
                    got.append(buf[0])
                return got

        res = run_world_mt(2, prog)
        assert res[1] == [float(i) for i in range(30)]


class TestStickyRoute:
    """``route(cmd)`` on a never-started pool: the pinned shard is
    asked for first, placement runs on a miss or a dead shard."""

    @staticmethod
    def _pool(**kw) -> EnginePool:
        return EnginePool(
            _FakeComm(),
            pool_size=2,
            pool_capacity=8,
            queue_capacity=16,
            telemetry=False,
            **kw,
        )

    @staticmethod
    def _sends(n: int) -> list[Command]:
        comm = _FakeComm()
        return [
            Command(CommandKind.ISEND, comm=comm, peer=p, tag=0, slot=0)
            for p in range(n)
        ]

    def test_a_stream_stays_on_the_shard_it_was_pinned_to(self):
        pool = self._pool()
        cmds = self._sends(16)
        first = [pool.route(c) for c in cmds]
        assert {id(e) for e in first} == {id(e) for e in pool.engines}
        for _ in range(3):
            assert [pool.route(c) for c in cmds] == first
        assert pool.router.misroutes == 0

    def test_a_dead_shard_remaps_its_streams_and_counts_each_once(self):
        pool = self._pool()
        cmds = self._sends(16)
        first = [pool.route(c) for c in cmds]
        dead, live = pool.engines
        dead._dead = RuntimeError("shard 0 crashed")
        moved = sum(1 for e in first if e is dead)
        assert moved
        for _ in range(3):
            assert all(pool.route(c) is live for c in cmds)
        assert pool.router.misroutes == moved
        assert pool.dead is None
        live._dead = RuntimeError("shard 1 crashed")
        with pytest.raises(OffloadEngineDied):
            pool.route(cmds[0])

    def test_stickiness_off_pins_nothing(self):
        pool = self._pool()
        pool.router = _RoundRobinRouter(pool.router.policy)
        (cmd,) = self._sends(1)
        assert pool.router.pinned(cmd) is None
        assert {id(pool.route(cmd)) for _ in range(4)} == {
            id(e) for e in pool.engines
        }


class TestPerShardBalance:
    def test_each_shard_balances_on_its_own(self):
        """A deep ring next to an idle sibling: the sibling takes
        nothing, so every shard drains exactly what it was handed and
        its counters balance without the pool's merged view."""
        n = 128

        def prog(comm):
            pool = EnginePool(
                comm, pool_size=2, router="dest", telemetry=True
            )
            cmds = [
                Command(CommandKind.CALL, fn=lambda: None) for _ in range(n)
            ]
            for cmd in cmds:  # one stream: CALLs key on the thread
                pool.submit(cmd)
            loaded = pool.route(cmds[0])
            (idle,) = [e for e in pool.engines if e is not loaded]
            assert len(loaded.queue) == n
            try:
                # the idle shard runs a few loop iterations with the
                # sibling's ring full before the owner starts
                idle.start()
                deadline = time.monotonic() + 10
                while idle.heartbeat < 3 and time.monotonic() < deadline:
                    time.sleep(1e-3)
                loaded.start()
                for cmd in cmds:
                    assert cmd.done.wait(10)
                for e in pool.engines:
                    c = e.stats()
                    assert (
                        c["enqueues"]
                        == c["commands_drained"]
                        == e.commands_processed
                    )
                assert loaded.commands_processed == n
                assert idle.commands_processed == 0
            finally:
                pool.stop()
            for e in pool.engines:
                ok, detail = check_balance(e.telemetry_snapshot())
                assert ok, detail
            return True

        assert all(run_world_mt(1, prog))


class TestGroupWork:
    def test_concurrent_threads_spread_over_engines(self):
        def prog(comm):
            with offloaded(comm, pool_size=3, router="thread") as oc:
                peer = 1 - comm.rank
                errors = []

                def worker(tid):
                    try:
                        for i in range(4):
                            buf = np.empty(1)
                            tag = tid * 100 + i
                            r = oc.irecv(buf, peer, tag=tag)
                            oc.isend(np.array([float(tag)]), peer, tag=tag)
                            r.wait(timeout=30)
                            assert buf[0] == tag
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=worker, args=(t,))
                    for t in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert not errors, errors
                busy = sum(
                    1
                    for e in oc.engine.engines
                    if e.commands_processed > 0
                )
                stats = oc.engine.stats()
                assert stats["engines"] == 3
                return busy

        busy = run_world_mt(2, prog)
        assert all(b >= 2 for b in busy)

    def test_collectives_through_group(self):
        def prog(comm):
            with offloaded(comm, pool_size=2, router="thread") as oc:
                s = oc.allreduce(np.array([1.0]))
                assert s[0] == comm.size
                g = oc.gather(np.array([comm.rank]), root=0)
                if comm.rank == 0:
                    assert list(g.ravel()) == list(range(comm.size))
                oc.barrier()
            return True

        assert all(run_world_mt(4, prog))

    def test_group_lifecycle_restart(self):
        def prog(comm):
            g = EnginePool(comm, pool_size=2, router="thread")
            g.start()
            g.stop()
            # a fresh pool over the same comm works
            with EnginePool(comm, pool_size=2, router="thread"):
                pass
            return True

        assert all(run_world_mt(1, prog))
