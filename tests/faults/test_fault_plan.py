"""Seeded fault-injection plan: rule windows, determinism, and the
three hook scopes (message delivery / progress / command dispatch)."""

from random import Random

import numpy as np
import pytest

from repro.core import EnginePool, OffloadError, offloaded
from repro.faults import (
    FaultAction,
    FaultPlan,
    FaultRule,
    TransientFaultError,
)
from repro.mpisim import THREAD_MULTIPLE, World

from tests.conftest import run_world, run_world_mt


class TestFaultRule:
    def test_after_and_count_window(self):
        rule = FaultRule(FaultAction.DROP, after=2, count=2)
        rng = Random(0)
        fires = [rule._fire(rng) for _ in range(6)]
        # skips events 1-2, injects on 3-4, then the count is exhausted
        assert fires == [False, False, True, True, False, False]

    def test_probability_is_seed_deterministic(self):
        rule_a = FaultRule(FaultAction.DROP, probability=0.5, count=None)
        rule_b = FaultRule(FaultAction.DROP, probability=0.5, count=None)
        rng_a, rng_b = Random(7), Random(7)
        seq_a = [rule_a._fire(rng_a) for _ in range(32)]
        seq_b = [rule_b._fire(rng_b) for _ in range(32)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_scope_matching(self):
        rule = FaultRule(
            FaultAction.DROP, rank=1, peer=0, kind="eager", tag=7
        )
        assert rule._matches_scope(1, 0, "eager", 7)
        assert not rule._matches_scope(2, 0, "eager", 7)
        assert not rule._matches_scope(1, 1, "eager", 7)
        assert not rule._matches_scope(1, 0, "rts", 7)
        assert not rule._matches_scope(1, 0, "eager", 8)
        wildcard = FaultRule(FaultAction.DROP)
        assert wildcard._matches_scope(3, 9, "rts", 123)

    def test_string_action_coerced(self):
        assert FaultRule("drop").action is FaultAction.DROP

    def test_make_error(self):
        default = FaultRule(FaultAction.COMMAND_ERROR).make_error()
        assert isinstance(default, TransientFaultError)
        custom = FaultRule(
            FaultAction.COMMAND_ERROR, error=lambda: ValueError("boom")
        ).make_error()
        assert isinstance(custom, ValueError)


class TestMessageScope:
    def test_drop_loses_eager_message(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.DROP, rank=1, kind="eager", tag=7)]
        )

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.ones(4), 1, tag=7)  # eager: completes at post
                return True
            r = comm.irecv(np.empty(4), 0, tag=7)
            with pytest.raises(TimeoutError):
                r.wait(timeout=0.3)
            return True

        world = World(2, thread_level=THREAD_MULTIPLE)
        world.install_faults(plan)
        assert all(world.run(prog, timeout=30))
        assert plan.faults_injected == 1
        assert plan.stats()["fault_drop"] == 1

    def test_delay_holds_then_delivers(self):
        plan = FaultPlan(
            [
                FaultRule(
                    FaultAction.DELAY,
                    rank=1,
                    kind="eager",
                    tag=3,
                    delay=0.05,
                )
            ]
        )

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.full(4, 5.0), 1, tag=3)
                return True
            buf = np.empty(4)
            comm.recv(buf, 0, tag=3)  # pumps progress → matured delivery
            return buf[0] == 5.0

        world = World(2, thread_level=THREAD_MULTIPLE)
        world.install_faults(plan)
        assert all(world.run(prog, timeout=30))
        assert plan.stats()["fault_delay"] == 1
        assert plan.pending_delayed() == 0

    def test_duplicate_delivers_twice(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.DUPLICATE, rank=1, kind="eager", tag=5)]
        )

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.full(2, 9.0), 1, tag=5)
                return True
            a, b = np.empty(2), np.empty(2)
            r1 = comm.irecv(a, 0, tag=5)
            r2 = comm.irecv(b, 0, tag=5)
            r1.wait(timeout=10)
            r2.wait(timeout=10)
            return a[0] == 9.0 and b[0] == 9.0

        world = World(2, thread_level=THREAD_MULTIPLE)
        world.install_faults(plan)
        assert all(world.run(prog, timeout=30))
        assert plan.stats()["fault_duplicate"] == 1

    def test_duplicate_never_touches_control_envelopes(self):
        """Rendezvous control traffic carries request references whose
        duplication would double-complete them — a wildcard DUPLICATE
        rule must pass every non-EAGER envelope through untouched."""
        plan = FaultPlan([FaultRule(FaultAction.DUPLICATE, count=None)])
        nbytes = 1 << 18  # 256 KiB > eager threshold → rendezvous

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.ones(nbytes, dtype=np.uint8), 1, tag=2)
                return True
            buf = np.empty(nbytes, dtype=np.uint8)
            comm.recv(buf, 0, tag=2)
            return int(buf[0]) == 1

        world = World(2, thread_level=THREAD_MULTIPLE)
        world.install_faults(plan)
        assert all(world.run(prog, timeout=30))
        assert plan.stats().get("fault_duplicate", 0) == 0


class TestZeroCopyMessageFaults:
    """Message-scope faults over the zero-copy data plane: borrowed
    payloads and live send requests must survive DROP and DUPLICATE."""

    def test_duplicate_cannot_alias_senders_buffer(self):
        """The duplicate is deep-copied at delivery time, so the
        sender's post-completion scribble can never leak into the
        second receive (plan.py would otherwise hand both matches a
        view of the same live user buffer)."""
        plan = FaultPlan(
            [FaultRule(FaultAction.DUPLICATE, rank=1, kind="eager", tag=5)]
        )

        def prog(comm):
            if comm.rank == 0:
                buf = np.full(4, 9.0)
                req = comm.isend(buf, 1, tag=5)
                req.wait(timeout=10)
                # MPI contract: completed send -> buffer is reusable.
                buf[:] = -1.0
                return True
            a, b = np.empty(4), np.empty(4)
            r1 = comm.irecv(a, 0, tag=5)
            r2 = comm.irecv(b, 0, tag=5)
            r1.wait(timeout=10)
            r2.wait(timeout=10)
            return a[0] == 9.0 and b[0] == 9.0

        world = World(2, thread_level=THREAD_MULTIPLE, zero_copy=True)
        world.install_faults(plan)
        assert all(world.run(prog, timeout=30))
        assert plan.stats()["fault_duplicate"] == 1
        assert plan.stats()["duplicate_deep_copies"] == 1
        # exactly one materialization total: the duplicate's
        assert world.total_payload_copies() == 0

    def test_duplicate_of_classic_eager_still_shares(self):
        """Pre-zero-copy behavior preserved: an owned (copy-at-post)
        payload needs no deep copy to be duplicated."""
        plan = FaultPlan(
            [FaultRule(FaultAction.DUPLICATE, rank=1, kind="eager", tag=5)]
        )

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.full(2, 3.0), 1, tag=5)
                return True
            a, b = np.empty(2), np.empty(2)
            comm.irecv(a, 0, tag=5).wait(timeout=10)
            comm.irecv(b, 0, tag=5).wait(timeout=10)
            return a[0] == 3.0 and b[0] == 3.0

        world = World(2, thread_level=THREAD_MULTIPLE)
        world.install_faults(plan)
        assert all(world.run(prog, timeout=30))
        assert plan.stats().get("duplicate_deep_copies", 0) == 0

    def test_drop_completes_pending_zero_copy_send(self):
        """Data lost in transit must still complete the sender —
        otherwise a dropped zero-copy eager send waits forever for a
        match that can never happen."""
        plan = FaultPlan(
            [FaultRule(FaultAction.DROP, rank=1, kind="eager", tag=7)]
        )

        def prog(comm):
            if comm.rank == 0:
                req = comm.isend(np.arange(8, dtype=np.uint8), 1, tag=7)
                req.wait(timeout=10)  # must not hang
                return req.done
            return True  # receiver never posts: the data is gone

        world = World(2, thread_level=THREAD_MULTIPLE, zero_copy=True)
        world.install_faults(plan)
        assert all(world.run(prog, timeout=30))
        assert plan.stats()["fault_drop"] == 1


class TestCommandScope:
    def test_command_error_surfaces_typed_and_engine_survives(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.COMMAND_ERROR, kind="isend", count=1)]
        )

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm) as oc:
                h = oc.isend(np.ones(1), 0, tag=1)
                with pytest.raises(OffloadError):
                    h.wait(timeout=10)
                # the fault was transient and pre-dispatch: the engine
                # keeps serving
                return oc.allreduce(np.array([2.0]))[0]

        assert run_world_mt(1, prog) == [2.0]
        assert plan.stats()["fault_command_error"] == 1


class TestZeroOverhead:
    def test_no_plan_means_no_hooks(self):
        def prog(comm):
            (engine,) = EnginePool(comm).engines
            return (
                engine._faults is None
                and comm.world.fault_plan is None
                and comm.engine.faults is None
            )

        assert all(run_world(1, prog))

    def test_installed_plan_is_the_command_hooks_only_source(self):
        """A plan installed with ``World.install_faults`` before
        ``offloaded()`` is the one every shard's command hook consults;
        the call site has no second way to hand one in."""
        plan = FaultPlan(
            [FaultRule(FaultAction.COMMAND_ERROR, kind="isend", count=1)]
        )

        def prog(comm):
            comm.world.install_faults(plan)
            with pytest.raises(TypeError):
                offloaded(comm, faults=FaultPlan())
            with offloaded(comm, pool_size=2) as oc:
                assert all(e._faults is plan for e in oc.engine.engines)
                with pytest.raises(OffloadError):
                    oc.isend(np.ones(1), 0, tag=1).wait(timeout=10)
            return plan.stats()["fault_command_error"]

        assert run_world_mt(1, prog) == [1]

    def test_engine_adopts_world_plan(self):
        plan = FaultPlan()

        def prog(comm):
            comm.world.install_faults(plan)
            (engine,) = EnginePool(comm).engines
            return engine._faults is plan and comm.engine.faults is plan

        assert all(run_world(1, prog))
