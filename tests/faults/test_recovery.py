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
from repro.core.engine import _BACKOFF, OffloadEngine
from repro.core.offload_comm import OffloadCommunicator
from repro.core.request_pool import OffloadEngineDied, recovery_wait
from repro.faults import FaultAction, FaultPlan, FaultRule
from repro.lockfree.atomics import DoneWord
from repro.mpisim import THREAD_MULTIPLE, World
from repro.mpisim.exceptions import WorldError

from tests.conftest import await_death, run_world, run_world_mt


def _retries(engine) -> list[str]:
    """The commands ``engine`` holds waiting out a retry backoff."""
    return [p for p in engine.pending_work() if p.startswith("retry ")]


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        pol = RetryPolicy(base_backoff=0.01, multiplier=2.0, max_backoff=0.05)
        assert pol.backoff(1) == pytest.approx(0.01)
        assert pol.backoff(2) == pytest.approx(0.02)
        assert pol.backoff(3) == pytest.approx(0.04)
        assert pol.backoff(4) == pytest.approx(0.05)  # capped
        assert pol.backoff(10) == pytest.approx(0.05)


class TestRecoveryPolicyValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("rank_failure", "shrnk"),
            ("rank_failure", ""),
            ("op_timeout", 0),
            ("op_timeout", -1.0),
            ("op_timeout", float("nan")),
            ("watchdog_timeout", 0.0),
            ("watchdog_timeout", -2.0),
        ],
    )
    def test_malformed_policy_raises(self, field, value):
        with pytest.raises(ValueError):
            RecoveryPolicy(**{field: value})

    def test_poll_interval_is_gone(self):
        """A recovery waiter parks on its slot and its shard's death; it
        samples nothing on a period of its own."""
        with pytest.raises(TypeError):
            RecoveryPolicy(poll_interval=0.02)

    def test_well_formed_policy_accepted(self):
        rec = RecoveryPolicy(
            op_timeout=0.5,
            watchdog_timeout=1.0,
            rank_failure="shrink",
        )
        assert rec.op_timeout == 0.5
        assert RecoveryPolicy().op_timeout is None  # no deadline by default

    def test_negative_chaos_deadline_raises_before_any_rank_runs(self):
        from repro.faults.chaos import run_chaos

        with pytest.raises(ValueError):
            run_chaos(nranks=2, rounds=1, op_timeout=-1.0)
        with pytest.raises(ValueError):
            run_chaos(rounds=1, op_timeout=-1.0, workload="serve")


class TestDeadlines:
    def test_inflight_deadline_expires_typed(self):
        def prog(comm):
            rec = RecoveryPolicy(op_timeout=0.2)
            with offloaded(comm, recovery=rec) as oc:
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
            rec = RecoveryPolicy(op_timeout=0.2)
            with offloaded(comm, recovery=rec) as oc:
                with pytest.raises(OffloadTimeout):
                    oc.recv(np.empty(1), 0, tag=404)
                return True

        assert all(run_world_mt(1, prog))

    def test_deadline_reaches_derived_communicators(self):
        """``dup``, ``split`` and ``shrink`` facades share the pool, so
        their commands carry its policy's deadline too."""

        def prog(comm):
            rec = RecoveryPolicy(op_timeout=0.2)
            with offloaded(comm, recovery=rec) as oc:
                derived = [oc.dup(), oc.split(0)]
                derived.append(oc.shrink())  # revokes ``oc``: last
                for c in derived:
                    assert c.op_timeout == 0.2
                    h = c.irecv(np.empty(1), 0, tag=404)  # never sent
                    with pytest.raises(OffloadTimeout):
                        h.wait(timeout=10)
                stats = oc.engine.route().stats()
                return stats["deadline_expirations"]

        assert run_world_mt(1, prog) == [3]

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

    def test_fence_expires_at_its_own_deadline(self):
        """A FLUSH held behind work that never finishes carries its
        deadline like every other held entry: ``flush()`` fails typed
        instead of waiting on.  The receive it waits behind is submitted
        bare, with no deadline of its own, so it outlives the fence."""

        def prog(comm):
            rec = RecoveryPolicy(op_timeout=0.2)
            with offloaded(comm, recovery=rec, pool_size=1) as oc:
                (engine,) = oc.engine.engines
                pool = oc.engine.pool
                slot = pool.alloc()
                engine.submit(
                    Command(
                        CommandKind.IRECV, comm=comm, buf=np.empty(1),
                        peer=0, tag=404, slot=slot,
                    )
                )
                t0 = time.perf_counter()
                with pytest.raises(OffloadTimeout, match="flush"):
                    oc.flush()
                waited = time.perf_counter() - t0
                held = engine.pending_work()
                comm.send(np.ones(1), 0, tag=404)  # release the receive
                assert pool.slot(slot).flag.wait(timeout=10)
                pool.release(slot)
                return waited, held

        ((waited, held),) = run_world_mt(1, prog)
        assert waited < 1.0, f"flush failed after {waited:.3f}s"
        assert [p for p in held if p.startswith("irecv")], held
        assert not [p for p in held if p.startswith("flush")], held


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

    def test_flush_waits_out_a_retry_backoff(self):
        """A fence covers every command its shard holds, one waiting
        out a retry backoff included: ``flush`` returns only after the
        re-posted send has completed."""
        plan = FaultPlan(
            [FaultRule(FaultAction.COMMAND_ERROR, kind="isend", count=1)]
        )
        rec = RecoveryPolicy(
            retry=RetryPolicy(base_backoff=2.0, max_backoff=2.0)
        )

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm, recovery=rec, pool_size=1) as oc:
                s = oc.isend(np.ones(1), 0, tag=1)  # no receive posted
                t0 = time.perf_counter()
                oc.flush()
                fenced = time.perf_counter() - t0, s.done
                s.wait(timeout=10)
                oc.recv(np.empty(1), 0, tag=1)
                return fenced

        ((waited, done),) = run_world_mt(1, prog)
        assert done, f"flush returned after {waited:.3f}s, send still held"
        assert waited >= 1.0

    def test_deadline_inside_a_backoff_expires_at_the_deadline(self):
        """A retry is due at the end of its backoff or at its deadline,
        whichever comes first: a 0.2 s deadline inside a 2 s backoff
        fails the command typed at the deadline, not after the
        backoff."""
        plan = FaultPlan(
            [FaultRule(FaultAction.COMMAND_ERROR, kind="isend", count=1)]
        )
        rec = RecoveryPolicy(
            op_timeout=0.2,
            retry=RetryPolicy(base_backoff=2.0, max_backoff=2.0),
        )

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm, recovery=rec, pool_size=1) as oc:
                s = oc.isend(np.ones(1), 0, tag=1)
                t0 = time.perf_counter()
                with pytest.raises(OffloadTimeout, match="after 1 retry"):
                    s.wait(timeout=10)
                waited = time.perf_counter() - t0
                stats = oc.engine.route().stats()
                return waited, stats["retries"], stats["deadline_expirations"]

        ((waited, retries, expired),) = run_world_mt(1, prog)
        assert (retries, expired) == (1, 1)
        assert waited < 1.0, f"expired after {waited:.3f}s"

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
                while not _retries(engine):
                    assert time.perf_counter() < deadline
                    time.sleep(0.002)
                with pytest.raises(OffloadError):
                    oc._run(lambda: None)  # the crash
                await_death(engine)
                slot = oc.engine.pool.slot(s._idx)
                assert slot.flag.is_set()
                assert isinstance(slot.error, OffloadEngineDied)
                assert _retries(engine) == []
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
        held, self._held, kept = self._held, [], []
        for entry in held:
            (kept if entry[0] is _BACKOFF else self._held).append(entry)
        super()._fail_pending(exc)
        self._held = kept


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
                while not _retries(engine):
                    assert time.perf_counter() < deadline
                    time.sleep(0.002)
                with pytest.raises(OffloadError):
                    oc._run(lambda: None)  # the crash
                await_death(engine)
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
        rec = RecoveryPolicy(watchdog_timeout=0.2)

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
        rec = RecoveryPolicy(watchdog_timeout=0.05)

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


class TestDeathWord:
    """A recovery waiter parks on two words, its slot's flag and its
    shard's death word, and wakes when either is published."""

    def test_recovery_waiter_parks_once(self, monkeypatch):
        """A 0.3 s wait for a match is one park: one registration on
        each of the two words, not one per sampling period."""
        registrations: dict[int, int] = {}
        register = DoneWord._register

        def counting(word, token):
            me = threading.get_ident()
            registrations[me] = registrations.get(me, 0) + 1
            register(word, token)

        monkeypatch.setattr(DoneWord, "_register", counting)
        rec = RecoveryPolicy()

        def prog(comm):
            with offloaded(comm, recovery=rec) as oc:
                if comm.rank == 1:
                    time.sleep(0.3)
                    oc.send(np.full(4, 3.0), 0, tag=9)
                    return None
                buf = np.empty(4)
                oc.recv(buf, 1, tag=9)
                assert buf.tolist() == [3.0] * 4
                return registrations.get(threading.get_ident(), 0)

        regs = run_world_mt(2, prog)[0]
        assert 1 <= regs <= 2, f"{regs} registrations for one wait"

    def test_abort_of_a_wedged_shard_wakes_its_waiter(self):
        """``abort`` publishes the death of a shard wedged in a CALL:
        the CALL's waiter raises at once, with no watchdog set."""
        rec = RecoveryPolicy()

        def prog(comm):
            entered, gate = threading.Event(), threading.Event()
            raised = []

            def wedge():
                entered.set()
                gate.wait(30)

            def waiter():
                try:
                    oc._run(wedge)
                except OffloadEngineDied:
                    raised.append(time.perf_counter())

            with offloaded(comm, recovery=rec, pool_size=1) as oc:
                (engine,) = oc.engine.engines
                t = threading.Thread(target=waiter)
                t.start()
                try:
                    assert entered.wait(10)
                    t0 = time.perf_counter()
                    engine.abort("test: wedged", join_timeout=0.05)
                    t.join(10)
                finally:
                    gate.set()
            return raised[0] - t0

        (elapsed,) = run_world_mt(1, prog)
        assert elapsed < 0.2, f"waiter raised {elapsed:.3f}s after abort"


class TestDegradedMode:
    def test_collective_survives_one_dead_engine(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.ENGINE_CRASH, rank=1, count=1)]
        )
        rec = RecoveryPolicy(degrade=True)

        def prog(comm):
            if comm.rank == 0:
                comm.world.install_faults(plan)
            comm.barrier()  # plan installed before any engine starts
            with offloaded(comm, recovery=rec) as oc:
                if comm.rank == 1:
                    with pytest.raises(OffloadError):
                        oc.iprobe(0, tag=1)  # first command → crash
                    await_death(oc.engine.route())
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
        rec = RecoveryPolicy(degrade=True)

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm, recovery=rec) as oc:
                with pytest.raises(OffloadError):
                    oc.iprobe(0, tag=0)
                engine = oc.engine.route()
                await_death(engine)
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
        rec = RecoveryPolicy(degrade=False)

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm, recovery=rec) as oc:
                with pytest.raises(OffloadError):
                    oc.iprobe(0, tag=0)
                await_death(oc.engine.route())
                with pytest.raises(OffloadEngineDied):
                    oc.allreduce(np.ones(1))
            return True

        assert all(run_world_mt(1, prog, timeout=60))


class TestPoolRecovery:
    """One wedged shard is a shard-local failure: its pending work
    fails typed while sibling shards keep completing."""

    def test_wedged_shard_fails_pending_typed_siblings_survive(self):
        rec = RecoveryPolicy(watchdog_timeout=0.2)

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
        rec = RecoveryPolicy(degrade=True)

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

    def test_stop_timeout_names_a_fence_behind_a_receive(self):
        """A FLUSH held behind an unmatched receive is pending work:
        ``pending_work()`` and the stop timeout name it, as the balance
        law counts it."""

        def prog(comm):
            oc = OffloadCommunicator(comm, EnginePool(comm).start())
            (engine,) = oc.engine.engines
            stuck = oc.irecv(np.empty(1), 0, tag=405)  # never sent
            # the abort below fails the fence, which flush absorbs
            fencer = threading.Thread(target=oc.flush, daemon=True)
            fencer.start()
            deadline = time.perf_counter() + 5.0
            while not any(
                p.startswith("flush") for p in engine.pending_work()
            ):
                assert time.perf_counter() < deadline, engine.pending_work()
                time.sleep(0.002)
            enqueued, drained, done, control, pending = engine._tally
            with pytest.raises(OffloadStopTimeout) as ei:
                engine.stop(timeout=0.3)
            assert any(p.startswith("irecv") for p in ei.value.pending)
            assert any(p.startswith("flush") for p in ei.value.pending)
            engine.abort("test teardown")
            fencer.join(5)
            with pytest.raises(OffloadError):
                stuck.wait(timeout=5)
            return pending, fencer.is_alive()

        assert run_world_mt(1, prog) == [(2, False)]

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
