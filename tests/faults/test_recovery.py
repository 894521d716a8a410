"""Recovery machinery: deadlines, retry/backoff, watchdog, graceful
degradation, and typed stop timeouts."""

import threading
import time

import numpy as np
import pytest

from repro.core import (
    EnginePool,
    OffloadError,
    OffloadStopTimeout,
    OffloadTimeout,
    RecoveryPolicy,
    RetryPolicy,
    offloaded,
)
from repro.core.commands import Command, CommandKind
from repro.core.engine import OffloadEngine
from repro.core.offload_comm import OffloadCommunicator
from repro.core.request_pool import OffloadEngineDied, recovery_wait
from repro.faults import FaultAction, FaultPlan, FaultRule
from repro.mpisim import THREAD_MULTIPLE, World
from repro.mpisim.exceptions import WorldError

from tests.conftest import run_world, run_world_mt


def _await_dead(engine, budget=5.0):
    """The crash is observed on the engine thread; give it a moment."""
    deadline = time.perf_counter() + budget
    while engine.dead is None and time.perf_counter() < deadline:
        time.sleep(0.002)
    assert engine.dead is not None


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        pol = RetryPolicy(base_backoff=0.01, multiplier=2.0, max_backoff=0.05)
        assert pol.backoff(1) == pytest.approx(0.01)
        assert pol.backoff(2) == pytest.approx(0.02)
        assert pol.backoff(3) == pytest.approx(0.04)
        assert pol.backoff(4) == pytest.approx(0.05)  # capped
        assert pol.backoff(10) == pytest.approx(0.05)


class TestDeadlines:
    def test_inflight_deadline_expires_typed(self):
        def prog(comm):
            with offloaded(comm, op_timeout=0.2) as oc:
                h = oc.irecv(np.empty(1), 0, tag=404)  # never sent
                t0 = time.perf_counter()
                with pytest.raises(OffloadTimeout):
                    h.wait(timeout=10)
                assert time.perf_counter() - t0 < 2.0
                engine = oc.engine.route()
                assert engine.stats()["deadline_expirations"] >= 1
                # the engine survives an expiry and keeps serving
                return oc.allreduce(np.array([1.0]))[0]

        assert run_world_mt(1, prog) == [1.0]

    def test_blocking_deadline_expires_typed(self):
        def prog(comm):
            with offloaded(comm, op_timeout=0.2) as oc:
                with pytest.raises(OffloadTimeout):
                    oc.recv(np.empty(1), 0, tag=404)
                return True

        assert all(run_world_mt(1, prog))

    def test_no_op_timeout_means_no_deadline_stamping(self):
        def prog(comm):
            with offloaded(comm) as oc:
                buf = np.empty(1)
                r = oc.irecv(buf, 0, tag=1)
                oc.isend(np.array([3.0]), 0, tag=1)
                r.wait(timeout=10)
                assert oc.engine.route().stats()["deadline_expirations"] == 0
                return buf[0]

        assert run_world_mt(1, prog) == [3.0]


class TestRetry:
    def test_transient_errors_retried_to_success(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.COMMAND_ERROR, kind="isend", count=2)]
        )
        rec = RecoveryPolicy(
            retry=RetryPolicy(max_retries=3, base_backoff=1e-4,
                              max_backoff=1e-3)
        )

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm, recovery=rec) as oc:
                buf = np.empty(1)
                r = oc.irecv(buf, 0, tag=1)
                s = oc.isend(np.array([4.0]), 0, tag=1)
                s.wait(timeout=10)
                r.wait(timeout=10)
                assert oc.engine.route().stats()["retries"] == 2
                return buf[0]

        assert run_world_mt(1, prog) == [4.0]
        assert plan.stats()["fault_command_error"] == 2

    def test_retry_exhaustion_fails_typed(self):
        plan = FaultPlan(
            [
                FaultRule(
                    FaultAction.COMMAND_ERROR, kind="isend", count=None
                )
            ]
        )
        rec = RecoveryPolicy(
            retry=RetryPolicy(max_retries=2, base_backoff=1e-4,
                              max_backoff=1e-3)
        )

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm, recovery=rec) as oc:
                s = oc.isend(np.ones(1), 0, tag=1)
                with pytest.raises(OffloadError):
                    s.wait(timeout=10)
                assert oc.engine.route().stats()["retries"] == 2
                return True

        assert all(run_world_mt(1, prog))

    def test_crash_fails_a_scheduled_retry(self):
        """A command waiting out its backoff when its shard crashes is
        failed with everything else the shard held: its slot ends
        ``OffloadEngineDied`` and goes back to the pool (the serve
        stall: five such slots stayed allocated, their awaiters
        pending, forever)."""
        plan = FaultPlan(
            [
                FaultRule(FaultAction.COMMAND_ERROR, kind="isend", count=1),
                FaultRule(FaultAction.ENGINE_CRASH, kind="call", count=1),
            ]
        )
        rec = RecoveryPolicy(
            retry=RetryPolicy(base_backoff=30.0, max_backoff=30.0)
        )

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm, recovery=rec, pool_size=1) as oc:
                engine = oc.engine.route()
                s = oc.isend(np.ones(1), 0, tag=1)
                deadline = time.perf_counter() + 5.0
                while not engine._retries:
                    assert time.perf_counter() < deadline
                    time.sleep(0.002)
                with pytest.raises(OffloadError):
                    oc._run(lambda: None)  # the crash
                _await_dead(engine)
                slot = oc.engine.pool.slot(s._idx)
                assert slot.flag.is_set()
                assert isinstance(slot.error, OffloadEngineDied)
                assert engine._retries == []
                with pytest.raises(OffloadEngineDied):
                    s.wait(timeout=10)
                return oc.engine.pool.allocated

        assert run_world_mt(1, prog) == [0]

    def test_no_retry_without_policy(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.COMMAND_ERROR, kind="isend", count=1)]
        )

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm) as oc:
                s = oc.isend(np.ones(1), 0, tag=1)
                with pytest.raises(OffloadError):
                    s.wait(timeout=10)
                assert oc.engine.route().stats()["retries"] == 0
                return True

        assert all(run_world_mt(1, prog))

    def test_non_idempotent_commands_never_retried(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.COMMAND_ERROR, kind="call", count=1)]
        )
        rec = RecoveryPolicy(retry=RetryPolicy(base_backoff=1e-4))

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm, recovery=rec) as oc:
                with pytest.raises(OffloadError):
                    oc._run(lambda: 42)
                assert oc.engine.route().stats()["retries"] == 0
                return True

        assert all(run_world_mt(1, prog))


class _KeepRetriesEngine(OffloadEngine):
    """``_fail_pending`` without its retry sweep: a command waiting out
    its backoff when the shard dies is left scheduled, and no loop will
    ever re-drive it."""

    def _fail_pending(self, exc: BaseException) -> None:
        kept = list(self._retries)
        self._retries.clear()
        super()._fail_pending(exc)
        self._retries[:] = kept


class TestHangReport:
    def test_world_timeout_names_the_stuck_retry(self):
        """With the retry sweep re-disabled the slot never completes;
        the rank's ``World.run`` timeout names the shard (and its
        death), the slot and the scheduled retry."""
        plan = FaultPlan(
            [
                FaultRule(FaultAction.COMMAND_ERROR, kind="isend", count=1),
                FaultRule(FaultAction.ENGINE_CRASH, kind="call", count=1),
            ]
        )
        rec = RecoveryPolicy(
            retry=RetryPolicy(base_backoff=30.0, max_backoff=30.0)
        )
        release, finished = threading.Event(), threading.Event()
        seen = {}

        def prog(comm):
            comm.world.install_faults(plan)
            pool = EnginePool(comm, pool_size=2, router="thread",
                              recovery=rec)
            for e in pool.engines:
                e.__class__ = _KeepRetriesEngine
            oc = OffloadCommunicator(comm, pool.start())
            try:
                s = oc.isend(np.ones(1), 0, tag=7)
                engine = pool.route()
                seen["shard"] = pool.engines.index(engine)
                seen["slot"] = s._idx
                deadline = time.perf_counter() + 5.0
                while not engine._retries:
                    assert time.perf_counter() < deadline
                    time.sleep(0.002)
                with pytest.raises(OffloadError):
                    oc._run(lambda: None)  # the crash
                _await_dead(engine)
                # an awaiter without a recovery policy (the asyncio
                # bridge's) waits on a flag the dead shard never sets
                flag = pool.pool.slot(s._idx).flag
                while not (flag.wait(0.05) or release.is_set()):
                    pass
            finally:
                pool.stop()
                finished.set()

        world = World(1, thread_level=THREAD_MULTIPLE)
        try:
            with pytest.raises(WorldError) as info:
                world.run(prog, timeout=1.0)
        finally:
            release.set()
            assert finished.wait(10)
        msg = str(info.value)
        shard, slot = seen["shard"], seen["slot"]
        assert f"shard {shard} (dead: " in msg, msg
        assert f"retry isend[slot {slot}] peer=0 tag=7 attempts=1" in msg


class TestWatchdog:
    def test_watchdog_unblocks_caller_on_stalled_engine(self):
        # The stall fires inside progress() under the library lock — the
        # engine thread wedges exactly like a stuck progress engine.
        plan = FaultPlan(
            [FaultRule(FaultAction.STALL, rank=0, duration=1.5, count=1)]
        )
        rec = RecoveryPolicy(watchdog_timeout=0.2, poll_interval=0.01)

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm, recovery=rec) as oc:
                t0 = time.perf_counter()
                with pytest.raises(OffloadEngineDied):
                    oc.recv(np.empty(1), 0, tag=9)
                # unblocked by the watchdog bound, not the stall length
                assert time.perf_counter() - t0 < 1.0
                engine = oc.engine.route()
                assert engine.stats()["watchdog_trips"] == 1
                assert engine.dead is not None
            return True

        assert all(run_world_mt(1, prog, timeout=60))

    def test_parked_engine_is_not_mistaken_for_a_wedged_one(self):
        # A healthy loop parks for as long as a posted receive stays
        # unmatched (DESIGN.md §17) — here six watchdog bounds.  Its
        # heartbeat must keep advancing (once per tick), or every
        # patient receiver would be poisoned.
        rec = RecoveryPolicy(watchdog_timeout=0.05, poll_interval=0.01)

        def prog(comm):
            with offloaded(comm, recovery=rec) as oc:
                if comm.rank == 1:
                    time.sleep(0.3)
                    oc.send(np.full(4, 3.0), 0, tag=9)
                    return True
                buf = np.empty(4)
                oc.recv(buf, 1, tag=9)  # raises OffloadEngineDied if tripped
                engine = oc.engine.route()
                assert engine.dead is None
                assert engine.stats()["watchdog_trips"] == 0
                return buf.tolist() == [3.0] * 4

        assert all(run_world_mt(2, prog, timeout=60))


class TestDegradedMode:
    def test_collective_survives_one_dead_engine(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.ENGINE_CRASH, rank=1, count=1)]
        )
        rec = RecoveryPolicy(degrade=True, poll_interval=5e-3)

        def prog(comm):
            if comm.rank == 0:
                comm.world.install_faults(plan)
            comm.barrier()  # plan installed before any engine starts
            with offloaded(comm, recovery=rec) as oc:
                if comm.rank == 1:
                    with pytest.raises(OffloadError):
                        oc.iprobe(0, tag=1)  # first command → crash
                    _await_dead(oc.engine.route())
                # rank 0 offloaded, rank 1 inline: same collective
                out = oc.allreduce(np.ones(1))
                if comm.rank == 1:
                    stats = oc.engine.route().stats()
                    assert stats["degraded_mode_commands"] >= 1
                return out[0]

        assert run_world_mt(2, prog, timeout=60) == [2.0, 2.0]

    def test_degraded_facade_takes_over_funnel(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.ENGINE_CRASH, rank=0, count=1)]
        )
        rec = RecoveryPolicy(degrade=True, poll_interval=5e-3)

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm, recovery=rec) as oc:
                with pytest.raises(OffloadError):
                    oc.iprobe(0, tag=0)
                engine = oc.engine.route()
                _await_dead(engine)
                # inline issuance under FUNNELED: the calling thread must
                # now hold the funnel designation the dead engine held
                assert oc.allreduce(np.array([3.0]))[0] == 3.0
                assert (
                    comm.world.funnel_thread(comm.engine.rank)
                    == threading.get_ident()
                )
                assert engine.stats()["degraded_mode_commands"] >= 1
            return True

        assert all(run_world(1, prog, timeout=60))

    def test_without_degrade_new_calls_raise(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.ENGINE_CRASH, rank=0, count=1)]
        )
        rec = RecoveryPolicy(degrade=False, poll_interval=5e-3)

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm, recovery=rec) as oc:
                with pytest.raises(OffloadError):
                    oc.iprobe(0, tag=0)
                _await_dead(oc.engine.route())
                with pytest.raises(OffloadEngineDied):
                    oc.allreduce(np.ones(1))
            return True

        assert all(run_world_mt(1, prog, timeout=60))


class TestPoolRecovery:
    """One wedged shard is a shard-local failure: its pending work
    fails typed while sibling shards keep completing."""

    def test_wedged_shard_fails_pending_typed_siblings_survive(self):
        rec = RecoveryPolicy(watchdog_timeout=0.2, poll_interval=0.01)

        def prog(comm):
            gate = threading.Event()
            try:
                with offloaded(comm, pool_size=4, recovery=rec) as oc:
                    pool = oc.engine
                    shard0 = pool.engines[0]
                    # wedge shard 0 on a blocking CALL, then queue a
                    # victim behind it on the same ring
                    shard0.submit(
                        Command(
                            kind=CommandKind.CALL,
                            fn=lambda: gate.wait(30),
                            slot=pool.pool.alloc(),
                        )
                    )
                    time.sleep(0.05)  # shard 0 dequeues the wedge
                    victim = pool.pool.alloc()
                    shard0.submit(
                        Command(CommandKind.CALL, fn=lambda: None, slot=victim)
                    )
                    t0 = time.perf_counter()
                    with pytest.raises(OffloadEngineDied):
                        recovery_wait(
                            pool.pool.slot(victim), victim, shard0, None
                        )
                    # unblocked by the watchdog bound, not the wedge
                    assert time.perf_counter() - t0 < 1.0
                    assert shard0.dead is not None
                    assert shard0.stats()["watchdog_trips"] == 1
                    # the pool survives: only every-shard-dead is dead
                    assert pool.dead is None
                    # siblings keep completing routed work
                    assert oc.allreduce(np.ones(1))[0] == 1.0
                    gate.set()
            finally:
                gate.set()
            return True

        assert all(run_world_mt(1, prog, timeout=60))

    def test_shard_watchdog_poisons_only_its_shard(self):
        from repro.core.recovery import EngineWatchdog

        def prog(comm):
            gate = threading.Event()
            try:
                with offloaded(comm, pool_size=2) as oc:
                    pool = oc.engine
                    shard0, shard1 = pool.engines
                    shard0.submit(
                        Command(
                            kind=CommandKind.CALL,
                            fn=lambda: gate.wait(30),
                            slot=pool.pool.alloc(),
                        )
                    )
                    time.sleep(0.05)
                    # one watchdog per shard, as every waiter holds one
                    # on the shard that carries its command
                    dogs = [
                        EngineWatchdog(e, timeout=0.15) for e in pool.engines
                    ]
                    stop_at = time.perf_counter() + 5.0
                    tripped = [False, False]
                    while not tripped[0] and time.perf_counter() < stop_at:
                        time.sleep(0.02)
                        tripped = [wd.check() for wd in dogs]
                    assert tripped == [True, False], tripped
                    # only the wedged shard was poisoned
                    assert shard0.dead is not None
                    assert shard1.dead is None
                    assert not dogs[0].check()  # dead: nothing to detect
                    gate.set()
                    assert oc.allreduce(np.ones(1))[0] == 1.0
            finally:
                gate.set()
            return True

        assert all(run_world_mt(1, prog, timeout=60))

    @pytest.mark.parametrize("pool_size", [1, 2])
    def test_flush_with_every_shard_dead_raises(self, pool_size):
        """Like every other blocking call: a fence nobody can serve
        fails typed instead of returning as if it had fenced."""

        def prog(comm):
            with offloaded(comm, pool_size=pool_size) as oc:
                for e in oc.engine.engines:
                    e.abort("test: every shard dies")
                with pytest.raises(OffloadEngineDied):
                    oc.barrier()
                with pytest.raises(OffloadEngineDied):
                    oc.flush()
            return True

        assert all(run_world_mt(1, prog, timeout=60))

    def test_flush_with_every_shard_dead_degrades(self):
        rec = RecoveryPolicy(degrade=True, poll_interval=5e-3)

        def prog(comm):
            with offloaded(comm, pool_size=2, recovery=rec) as oc:
                for e in oc.engine.engines:
                    e.abort("test: every shard dies")
                before = oc.engine.stats()["degraded_mode_commands"]
                assert oc.flush() is None
                after = oc.engine.stats()["degraded_mode_commands"]
                assert after == before + 1
            return True

        assert all(run_world_mt(1, prog, timeout=60))


class TestStopTimeout:
    def test_stop_timeout_names_pending_work(self):
        def prog(comm):
            oc = OffloadCommunicator(comm, EnginePool(comm).start())
            (engine,) = oc.engine.engines
            stuck = oc.irecv(np.empty(1), 0, tag=404)  # never sent
            with pytest.raises(OffloadStopTimeout) as ei:
                engine.stop(timeout=0.3)
            assert ei.value.pending
            assert any("irecv" in p for p in ei.value.pending)
            engine.abort("test teardown")
            with pytest.raises(OffloadError):
                stuck.wait(timeout=5)
            return True

        assert all(run_world_mt(1, prog))

    def test_clean_stop_within_small_timeout(self):
        def prog(comm):
            oc = OffloadCommunicator(comm, EnginePool(comm).start())
            (engine,) = oc.engine.engines
            buf = np.empty(1)
            r = oc.irecv(buf, 0, tag=1)
            oc.isend(np.array([8.0]), 0, tag=1)
            r.wait(timeout=10)
            engine.stop(timeout=5.0)
            return buf[0]

        assert run_world_mt(1, prog) == [8.0]
