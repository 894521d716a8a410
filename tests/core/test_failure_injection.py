"""Failure injection: engine death, bad commands, backpressure.

Deterministic failure paths are driven through the ``repro.faults``
plan API (the same hooks the chaos harness uses); direct internal pokes
remain only where no fault rule reaches (draining a never-started
engine's queue)."""

import time

import numpy as np
import pytest

from repro.core import EnginePool, OffloadError, offloaded
from repro.core.commands import Command, CommandKind
from repro.core.offload_comm import OffloadCommunicator
from repro.core.request_pool import OffloadEngineDied, OffloadRequest
from repro.faults import FaultAction, FaultPlan, FaultRule

from tests.conftest import run_world_mt


def _await_dead(engine, budget=5.0):
    deadline = time.perf_counter() + budget
    while engine.dead is None and time.perf_counter() < deadline:
        time.sleep(0.002)
    assert engine.dead is not None


class TestCommandErrors:
    def test_bad_call_surfaces_at_caller_not_engine(self):
        """An exception inside one offloaded call fails that call only;
        the engine keeps serving."""

        def prog(comm):
            with offloaded(comm) as oc:
                with pytest.raises(OffloadError):
                    oc.send(np.zeros(1), dest=99)  # invalid rank
                # engine still alive and functional
                s = oc.allreduce(np.array([1.0]))
                return s[0]

        assert run_world_mt(2, prog) == [2.0, 2.0]

    def test_bad_nonblocking_call_fails_its_handle(self):
        def prog(comm):
            with offloaded(comm) as oc:
                h = oc.isend(np.zeros(1), dest=99)
                with pytest.raises(OffloadError):
                    h.wait(timeout=10)
                return oc.allreduce(np.array([1.0]))[0]

        assert run_world_mt(2, prog) == [2.0, 2.0]

    def test_call_command_error(self):
        def prog(comm):
            with offloaded(comm) as oc:

                def explode():
                    raise RuntimeError("kaboom")

                with pytest.raises(OffloadError, match="kaboom"):
                    oc._run(explode)
                return True

        assert all(run_world_mt(1, prog))

    def test_injected_command_error_fails_one_command_only(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.COMMAND_ERROR, kind="isend", count=1)]
        )

        def prog(comm):
            comm.world.install_faults(plan)
            with offloaded(comm) as oc:
                h = oc.isend(np.zeros(1), 0, tag=1)
                with pytest.raises(OffloadError):
                    h.wait(timeout=10)
                return oc.allreduce(np.array([1.0]))[0]

        assert run_world_mt(1, prog) == [1.0]


class TestEngineDeath:
    def test_submissions_after_injected_crash_raise(self):
        plan = FaultPlan(
            [FaultRule(FaultAction.ENGINE_CRASH, rank=0, count=1)]
        )

        def prog(comm):
            comm.world.install_faults(plan)
            oc = OffloadCommunicator(comm, EnginePool(comm).start())
            (engine,) = oc.engine.engines
            with pytest.raises(OffloadError):
                oc.iprobe(0, tag=0)  # first command crashes the thread
            _await_dead(engine)
            assert isinstance(engine.dead, OffloadEngineDied)
            with pytest.raises(OffloadEngineDied):
                engine.submit(
                    Command(CommandKind.IBARRIER, comm=comm, slot=0)
                )
            engine.stop()  # dead thread: joins immediately
            return True

        assert all(run_world_mt(1, prog))

    def test_fail_pending_drains_queue(self):
        def prog(comm):
            (engine,) = EnginePool(comm).engines
            # engine NOT started: queue up work, then fail it
            slot = engine.pool.alloc()
            handle = OffloadRequest(engine.pool, slot)
            engine.queue.enqueue(
                Command(CommandKind.ISEND, comm=comm, buf=np.zeros(1),
                        peer=0, slot=slot)
            )
            blocking = Command(
                CommandKind.IBARRIER, comm=comm, slot=engine.pool.alloc()
            )
            engine.queue.enqueue(blocking)
            engine._fail_pending(RuntimeError("injected"))
            with pytest.raises(OffloadError):
                handle.wait(timeout=1)
            # the blocking caller's slot, failed as typed as the handle's
            bslot = engine.pool.slot(blocking.slot)
            assert bslot.flag.is_set()
            assert bslot.error is not None
            return True

        assert all(run_world_mt(1, prog))


class TestBackpressure:
    def test_tiny_queue_applies_backpressure_not_loss(self):
        """With a 4-slot command ring, a burst of calls must all
        eventually execute (enqueue spins, nothing is dropped)."""

        def prog(comm):
            with offloaded(comm, queue_capacity=4, pool_capacity=256) as oc:
                peer = 1 - oc.rank
                n = 40
                recvs = [np.empty(1) for _ in range(n)]
                rreqs = [
                    oc.irecv(recvs[i], peer, tag=i) for i in range(n)
                ]
                sreqs = [
                    oc.isend(np.array([float(i)]), peer, tag=i)
                    for i in range(n)
                ]
                for r in rreqs + sreqs:
                    r.wait(timeout=60)
                return [int(b[0]) for b in recvs] == list(range(n))

        assert all(run_world_mt(2, prog))

    def test_pool_exhaustion_raises_cleanly(self):
        from repro.lockfree.freelist import FreeListExhausted

        def prog(comm):
            with offloaded(comm, pool_capacity=4) as oc:
                h1 = oc.irecv(np.empty(1), 0, tag=1)
                h2 = oc.irecv(np.empty(1), 0, tag=2)
                s1 = oc.isend(np.array([1.0]), 0, tag=1)
                s2 = oc.isend(np.array([2.0]), 0, tag=2)
                # all four slots busy until completion is collected
                with pytest.raises(FreeListExhausted):
                    oc.irecv(np.empty(1), 0, tag=3)
                for h in (h1, h2, s1, s2):
                    h.wait(timeout=10)
                # slots recycled: allocation works again
                h3 = oc.irecv(np.empty(1), 0, tag=3)
                oc.isend(np.array([3.0]), 0, tag=3)
                h3.wait(timeout=10)
                return True

        assert all(run_world_mt(1, prog))


class TestShutdown:
    def test_stop_drains_inflight_work(self):
        def prog(comm):
            peer = 1 - comm.rank
            oc = OffloadCommunicator(comm, EnginePool(comm).start())
            (engine,) = oc.engine.engines
            out = np.empty(1)
            r = oc.irecv(out, peer, tag=1)
            oc.isend(np.array([float(comm.rank)]), peer, tag=1)
            engine.stop()  # must drain, not abandon
            assert r.done
            return out[0]

        assert run_world_mt(2, prog) == [1.0, 0.0]

    def test_double_start_rejected(self):
        def prog(comm):
            (engine,) = EnginePool(comm).start().engines
            with pytest.raises(RuntimeError):
                engine.start()
            engine.stop()
            return True

        assert all(run_world_mt(1, prog))

    def test_stop_idempotent(self):
        def prog(comm):
            (engine,) = EnginePool(comm).start().engines
            engine.stop()
            engine.stop()  # no-op
            return True

        assert all(run_world_mt(1, prog))


class TestAbort:
    def test_abort_fails_stuck_requests(self):
        """abort() tears down an engine whose requests can never
        complete (the MPI_Finalize-with-pending-requests situation)."""

        def prog(comm):
            oc = OffloadCommunicator(comm, EnginePool(comm).start())
            (engine,) = oc.engine.engines
            stuck = oc.irecv(np.empty(1), 0, tag=404)  # never sent
            engine.abort("test teardown")
            with pytest.raises(OffloadError):
                stuck.wait(timeout=5)
            with pytest.raises(OffloadEngineDied):
                engine.submit(
                    Command(CommandKind.IBARRIER, comm=comm, slot=0)
                )
            return True

        assert all(run_world_mt(1, prog))

    def test_abort_fails_every_pending_waiter_and_slot(self):
        """Mass teardown: every nonblocking slot AND every blocked
        caller thread observes OffloadEngineDied — nothing hangs and
        nothing gets a silent or untyped failure."""
        import threading

        def prog(comm):
            oc = OffloadCommunicator(comm, EnginePool(comm).start())
            (engine,) = oc.engine.engines
            slots = [oc.irecv(np.empty(1), 0, tag=100 + i) for i in range(4)]
            errors = []

            def blocked_recv():
                try:
                    oc.recv(np.empty(1), 0, tag=999)
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [
                threading.Thread(target=blocked_recv) for _ in range(2)
            ]
            for t in threads:
                t.start()
            time.sleep(0.1)  # let the blocking recvs reach the engine
            engine.abort("mass teardown")
            for t in threads:
                t.join(10)
            assert not any(t.is_alive() for t in threads)
            assert len(errors) == 2
            assert all(isinstance(e, OffloadEngineDied) for e in errors)
            for h in slots:
                with pytest.raises(OffloadEngineDied):
                    h.wait(timeout=5)
            with pytest.raises(OffloadEngineDied):
                engine.submit(
                    Command(CommandKind.IBARRIER, comm=comm, slot=0)
                )
            return True

        assert all(run_world_mt(1, prog))
