"""Remaining coverage for the comparison-approach helpers."""

import numpy as np
import pytest

from repro import obs
from repro.core import offloaded, progress_hook
from repro.core.offload_comm import offload_waitany

from tests.conftest import run_world, run_world_mt


class TestProgressHookThrottle:
    @pytest.mark.parametrize("every,calls,expected", [(1, 5, 5), (2, 5, 2), (5, 12, 2)])
    def test_probe_cadence(self, every, calls, expected):
        def prog(comm):
            hook = progress_hook(comm, every=every)
            for _ in range(calls):
                hook()
            return hook.probes()

        assert run_world(1, prog) == [expected]


class TestOffloadWaitany:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            offload_waitany([])

    def test_timeout(self):
        def prog(comm):
            with offloaded(comm) as oc:
                h = oc.irecv(np.empty(1), 0, tag=404)  # never sent
                with pytest.raises(TimeoutError):
                    offload_waitany([h], timeout=0.05)
                # complete it so shutdown drains cleanly
                oc.isend(np.array([1.0]), 0, tag=404)
                h.wait(timeout=10)
            return True

        assert all(run_world_mt(1, prog))

    def test_returns_first_completed(self):
        def prog(comm):
            with offloaded(comm) as oc:
                bufs = [np.empty(1) for _ in range(3)]
                handles = [
                    oc.irecv(bufs[i], 0, tag=i) for i in range(3)
                ]
                oc.isend(np.array([9.0]), 0, tag=1)
                idx, _st = offload_waitany(handles, timeout=30)
                assert idx == 1
                assert bufs[1][0] == 9.0
                # drain the rest
                for i in (0, 2):
                    oc.isend(np.array([float(i)]), 0, tag=i)
                handles[0].wait(timeout=10)
                handles[2].wait(timeout=10)
            return True

        assert all(run_world_mt(1, prog))


class TestNestedOffload:
    def test_sequential_offload_sessions(self):
        """Two offloaded sessions on the same comm, back to back."""

        def prog(comm):
            with offloaded(comm) as oc:
                a = oc.allreduce(np.array([1.0]))[0]
            with offloaded(comm) as oc2:
                b = oc2.allreduce(np.array([2.0]))[0]
            # plain comm still usable afterwards
            c = comm.allreduce(np.array([3.0]))[0]
            return (a, b, c)

        res = run_world_mt(2, prog)
        assert res == [(2.0, 4.0, 6.0)] * 2

    def test_offloaded_comm_properties(self):
        def prog(comm):
            with offloaded(comm) as oc:
                assert oc.rank == comm.rank
                assert oc.size == comm.size
                assert oc.group == comm.group
                assert oc.inner is comm
            return True

        assert all(run_world_mt(3, prog))


class TestKeywordPlumbing:
    """Every ``offloaded()`` keyword reaches the object that consumes
    it, at one shard and at two."""

    @pytest.mark.parametrize("pool_size", [1, 2])
    def test_every_keyword_is_observable(self, pool_size):
        from repro.core import EnginePool, RecoveryPolicy
        from repro.faults import FaultPlan

        plan, recovery = FaultPlan([]), RecoveryPolicy(op_timeout=12.5)
        obs.drain_snapshots()

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(
                comm,
                pool_size=pool_size,
                router="thread",
                telemetry=True,
                recovery=recovery,
            ) as oc:
                assert oc.op_timeout == 12.5
                holder = oc.engine
                assert len(holder.engines) == pool_size
                assert holder.recovery is recovery
                for e in holder.engines:
                    assert e.pool is holder.pool
                    assert e._faults is plan
                    assert e.recovery is recovery
                assert holder.router.policy == "thread"
            # the sizes are the pool's: one request pool, one ring each
            sized = EnginePool(
                comm, pool_size=pool_size, pool_capacity=64,
                queue_capacity=32,
            )  # never started
            assert sized.pool.capacity == 64
            for e in sized.engines:
                assert e.pool is sized.pool
                assert e.queue.capacity == 32
            return True

        assert all(run_world_mt(1, prog))
        # telemetry=True: each shard filed its final snapshot
        assert len(obs.drain_snapshots()) == pool_size

    def test_ctor_keywords_subset_of_facade(self):
        import inspect

        from repro.core import EnginePool, OffloadEngine

        def keywords(fn):
            return set(inspect.signature(fn).parameters) - {"self", "comm"}

        facade = keywords(offloaded)
        sizes = {"pool_capacity", "queue_capacity"}  # EnginePool's alone
        assert keywords(OffloadEngine.__init__) - facade == {
            "request_pool", "queue_capacity",
        }
        assert keywords(EnginePool.__init__) - facade == sizes

    def test_each_setting_has_one_owner(self):
        """The deadline is the policy's, the fault plan and the
        zero-copy plane the world's, the request pool's and the rings'
        sizes the pool's: no constructor on the offload path takes them
        a second time."""
        import inspect

        from repro.core import EnginePool, OffloadEngine
        from repro.core.offload_comm import OffloadCommunicator

        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert params(offloaded) == [
            "comm", "telemetry", "recovery", "pool_size", "router",
        ]
        assert params(EnginePool.__init__) == [
            "self", "comm", "pool_size", "router", "pool_capacity",
            "queue_capacity", "telemetry", "recovery",
        ]
        assert params(OffloadEngine.__init__) == [
            "self", "comm", "request_pool", "queue_capacity", "telemetry",
            "recovery",
        ]
        assert params(OffloadCommunicator.__init__) == [
            "self", "comm", "engine",
        ]

    @pytest.mark.parametrize(
        "keyword",
        [
            "zero_copy", "faults", "op_timeout",
            "pool_capacity", "queue_capacity",
        ],
    )
    def test_removed_keyword_raises_type_error(self, keyword):
        from repro.core import EnginePool, OffloadEngine, OffloadRequestPool
        from repro.core.offload_comm import OffloadCommunicator
        from repro.mpisim import THREAD_MULTIPLE, World

        # the sizes stay where they are built: the pool's, and each
        # shard's ring
        kept = {"pool_capacity": {EnginePool},
                "queue_capacity": {EnginePool, OffloadEngine}}
        comm = World(1, THREAD_MULTIPLE).comm_world(0)
        pool = EnginePool(comm)  # never started
        with pytest.raises(TypeError):
            offloaded(comm, **{keyword: None})
        if EnginePool not in kept.get(keyword, ()):
            with pytest.raises(TypeError):
                EnginePool(comm, **{keyword: None})
        if OffloadEngine not in kept.get(keyword, ()):
            with pytest.raises(TypeError):
                OffloadEngine(comm, OffloadRequestPool(8), **{keyword: None})
        with pytest.raises(TypeError):
            OffloadCommunicator(comm, pool, **{keyword: None})
