"""Recovery × data-plane × sharding interaction coverage:
``RecoveryPolicy(degrade=True)`` with ``zero_copy=True`` worlds and a
``pool_size > 1`` engine pool (the three features compose; none of
their pairwise tests exercise all three together)."""

import time

import numpy as np
import pytest

from repro.core import (
    OffloadError,
    OffloadRequestPool,
    RecoveryPolicy,
    offloaded,
)
from repro.faults.plan import FaultAction, FaultPlan, FaultRule
from tests.conftest import run_world_mt

pytestmark = pytest.mark.deadline(120)


def _await_pool_dead(pool, budget=5.0):
    deadline = time.perf_counter() + budget
    while pool.dead is None and time.perf_counter() < deadline:
        time.sleep(0.002)
    assert pool.dead is not None


def _await_any_shard_dead(pool, budget=5.0):
    deadline = time.perf_counter() + budget
    while time.perf_counter() < deadline:
        if any(e._dead is not None for e in pool.engines):
            return
        time.sleep(0.002)
    raise AssertionError("no shard died within budget")


class TestOneDeadShard:
    def test_pool_survives_without_degrading(self):
        """One crashed shard is absorbed by routing, not by the
        degraded-inline fallback — zero-copy traffic keeps flowing
        through the surviving shard."""
        plan = FaultPlan(
            [FaultRule(FaultAction.ENGINE_CRASH, rank=1, count=1)]
        )
        rec = RecoveryPolicy(degrade=True, poll_interval=5e-3)

        def prog(comm):
            if comm.rank == 0:
                comm.world.install_faults(plan)
            comm.barrier()
            with offloaded(
                comm, pool_size=2, recovery=rec, op_timeout=10.0
            ) as oc:
                if comm.rank == 1:
                    with pytest.raises(OffloadError):
                        oc.iprobe(0, tag=1)  # first dispatch → crash
                    _await_any_shard_dead(oc.engine)
                    assert oc.engine.dead is None  # pool still serving
                out = oc.allreduce(np.full(64, float(comm.rank + 1)))
                np.testing.assert_array_equal(out, np.full(64, 3.0))
                if comm.rank == 1:
                    stats = oc.engine.stats()
                    assert stats["degraded_mode_commands"] == 0
                    assert stats["engines"] == 2
            return True

        assert all(
            run_world_mt(2, prog, zero_copy=True, timeout=60)
        )


    def test_crashing_shard_is_dead_when_its_failure_is_published(
        self, monkeypatch
    ):
        """The crashing command's failure is the first one published,
        and by then its shard reads dead: a caller reacting to the
        failure cannot route its next command to the dying shard."""
        plan = FaultPlan(
            [FaultRule(FaultAction.ENGINE_CRASH, rank=0, count=1)]
        )
        shards: list = []
        dead_at_fail: list[int] = []
        fail = OffloadRequestPool.fail

        def watched_fail(pool, idx, error):
            dead_at_fail.append(sum(e.dead is not None for e in shards))
            fail(pool, idx, error)

        monkeypatch.setattr(OffloadRequestPool, "fail", watched_fail)
        rec = RecoveryPolicy(degrade=False, poll_interval=5e-3)

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(
                comm, pool_size=2, recovery=rec, op_timeout=10.0
            ) as oc:
                shards.extend(oc.engine.engines)
                with pytest.raises(OffloadError):
                    oc.iprobe(0, tag=0)
            return True

        assert all(run_world_mt(1, prog, zero_copy=True, timeout=60))
        assert dead_at_fail[0] == 1


class TestAllShardsDead:
    def test_degraded_inline_zero_copy_ops_still_complete(self):
        """Every shard dead → the facade degrades to inline issuance;
        the zero-copy data plane must work from the calling thread."""
        plan = FaultPlan(
            [FaultRule(FaultAction.ENGINE_CRASH, rank=1, count=2)]
        )
        rec = RecoveryPolicy(degrade=True, poll_interval=5e-3)

        def prog(comm):
            if comm.rank == 0:
                comm.world.install_faults(plan)
            comm.barrier()
            with offloaded(
                comm, pool_size=2, recovery=rec, op_timeout=10.0
            ) as oc:
                if comm.rank == 1:
                    # each failing dispatch kills the shard that ran
                    # it; routing then only offers the survivor, so
                    # two failures leave no shard alive
                    for i in range(2):
                        with pytest.raises(OffloadError):
                            oc.iprobe(0, tag=1)
                        if i == 0:
                            # no wait: a shard is dead before its
                            # crashing command's failure is visible
                            shards = oc.engine.engines
                            dead = [e.dead is not None for e in shards]
                            assert dead.count(True) == 1, dead
                    _await_pool_dead(oc.engine)
                out = oc.allreduce(np.full(32, float(comm.rank + 1)))
                np.testing.assert_array_equal(out, np.full(32, 3.0))
                # p2p through the degraded path too
                if comm.rank == 0:
                    oc.send(np.arange(8.0), 1, tag=4)
                else:
                    buf = np.empty(8)
                    oc.recv(buf, 0, tag=4)
                    np.testing.assert_array_equal(buf, np.arange(8.0))
                    assert (
                        oc.engine.stats()["degraded_mode_commands"] >= 1
                    )
            return comm.world.total_payload_zero_copy_hits()

        hits = run_world_mt(2, prog, zero_copy=True, timeout=60)
        # the zero-copy plane was actually exercised end to end
        assert max(hits) > 0

    def test_without_degrade_pool_death_raises_typed(self):
        from repro.core import OffloadEngineDied

        plan = FaultPlan(
            [FaultRule(FaultAction.ENGINE_CRASH, rank=0, count=2)]
        )
        rec = RecoveryPolicy(degrade=False, poll_interval=5e-3)

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(
                comm, pool_size=2, recovery=rec, op_timeout=10.0
            ) as oc:
                for _ in range(2):
                    with pytest.raises(OffloadError):
                        oc.iprobe(0, tag=0)
                _await_pool_dead(oc.engine)
                with pytest.raises(OffloadEngineDied):
                    oc.allreduce(np.ones(4))
            return True

        assert all(run_world_mt(1, prog, zero_copy=True, timeout=60))
