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
        from repro.core import RecoveryPolicy
        from repro.faults import FaultPlan

        plan, recovery = FaultPlan([]), RecoveryPolicy()
        obs.drain_snapshots()

        def prog(comm):
            with offloaded(
                comm,
                pool_size=pool_size,
                router="thread",
                queue_capacity=32,
                pool_capacity=64,
                telemetry=True,
                faults=plan,
                recovery=recovery,
                op_timeout=12.5,
            ) as oc:
                assert oc.op_timeout == 12.5
                holder = oc.engine
                assert len(holder.engines) == pool_size
                assert holder.recovery is recovery
                assert holder.pool.capacity == 64
                for e in holder.engines:
                    assert e.queue.capacity == 32
                    assert e.pool is holder.pool
                    assert e._faults is plan
                    assert e.recovery is recovery
                assert holder.router.policy == "thread"
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
        assert keywords(OffloadEngine.__init__) - facade == {"request_pool"}
        assert keywords(EnginePool.__init__) - facade == set()
