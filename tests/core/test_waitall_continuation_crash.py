"""Crash-mid-wait agreement (DESIGN.md §16): when the engine dies,
the continuation observer and the ``offload_waitall`` caller must see
the *same* per-request outcomes — every slot flagged with the typed
error, every continuation fired exactly once, every tail handle
drained instead of abandoned, and nobody hangs."""

import threading
import time

import numpy as np
import pytest

from repro.core import EnginePool, offload_waitall
from repro.core.offload_comm import OffloadCommunicator
from repro.core.request_pool import OffloadEngineDied, OffloadError

from tests.conftest import deadline, run_world_mt

pytestmark = pytest.mark.deadline(120)


class TestCrashMidWaitContinuations:
    def test_abort_fires_every_registered_continuation_typed(self):
        """Continuations registered on stuck requests all fire with
        the typed engine-death error when the engine is torn down —
        no continuation is silently abandoned."""

        def prog(comm):
            oc = OffloadCommunicator(comm, EnginePool(comm).start())
            (engine,) = oc.engine.engines
            n = 6
            reqs = [
                oc.irecv(np.empty(1), 0, tag=500 + i)  # never matched
                for i in range(n)
            ]
            errors: list[BaseException] = []
            lock = threading.Lock()
            all_fired = threading.Event()
            for req in reqs:

                def cont(req=req) -> None:
                    try:
                        req.test()
                    except OffloadError as exc:
                        with lock:
                            errors.append(exc)
                            if len(errors) == n:
                                all_fired.set()

                req.add_continuation(cont)
            with deadline(30, "abort fires continuations"):
                engine.abort("crash-mid-wait test")
                assert all_fired.wait(15)
            assert all(
                isinstance(e, OffloadEngineDied) for e in errors
            ), errors
            # each continuation consumed its own slot exactly once
            assert engine.pool.continuation_fires == n
            assert engine.pool.continuation_drops == 0
            assert engine.pool.allocated == 0
            return True

        assert all(run_world_mt(1, prog))

    def test_waitall_drains_tail_on_engine_death(self):
        """The first OffloadEngineDied out of waitall does not abandon
        the tail: every remaining handle is consumed (slot released)
        before the error is re-raised, within a bounded grace."""

        def prog(comm):
            oc = OffloadCommunicator(comm, EnginePool(comm).start())
            (engine,) = oc.engine.engines
            reqs = [
                oc.irecv(np.empty(1), 0, tag=600 + i) for i in range(5)
            ]

            def kill_soon() -> None:
                time.sleep(0.2)
                engine.abort("waitall tail test")

            killer = threading.Thread(target=kill_soon)
            killer.start()
            t0 = time.perf_counter()
            with deadline(30, "waitall drains dead tail"):
                with pytest.raises(OffloadEngineDied):
                    offload_waitall(reqs, timeout=20)
            elapsed = time.perf_counter() - t0
            killer.join()
            # the dead engine flagged everything, so the tail sweep is
            # flag checks, not per-request timeout stacking
            assert elapsed < 10, elapsed
            # the whole set was consumed, not just the head request
            assert engine.pool.allocated == 0
            for r in reqs:
                with pytest.raises(OffloadError):
                    r.test()  # stale: waitall already drained it
            return True

        assert all(run_world_mt(1, prog))

    def test_waitall_and_continuations_agree_after_crash(self):
        """Split the in-flight set: half observed via continuations,
        half via a blocked waitall.  After the crash both observers
        report the same typed outcome and the pool drains clean."""

        def prog(comm):
            oc = OffloadCommunicator(comm, EnginePool(comm).start())
            (engine,) = oc.engine.engines
            cont_reqs = [
                oc.irecv(np.empty(1), 0, tag=700 + i) for i in range(3)
            ]
            wait_reqs = [
                oc.irecv(np.empty(1), 0, tag=800 + i) for i in range(3)
            ]
            cont_errors: list[BaseException] = []
            lock = threading.Lock()
            conts_done = threading.Event()
            for req in cont_reqs:

                def cont(req=req) -> None:
                    try:
                        req.test()
                    except OffloadError as exc:
                        with lock:
                            cont_errors.append(exc)
                            if len(cont_errors) == len(cont_reqs):
                                conts_done.set()

                req.add_continuation(cont)

            waitall_outcome: list[BaseException] = []

            def blocked_waitall() -> None:
                try:
                    offload_waitall(wait_reqs, timeout=20)
                except BaseException as exc:
                    waitall_outcome.append(exc)

            waiter = threading.Thread(target=blocked_waitall)
            waiter.start()
            time.sleep(0.1)  # let the waiter block on the first flag
            with deadline(30, "crash agreement"):
                engine.abort("agreement test")
                assert conts_done.wait(15)
                waiter.join(15)
                assert not waiter.is_alive()
            assert len(waitall_outcome) == 1
            assert isinstance(waitall_outcome[0], OffloadEngineDied)
            assert all(
                isinstance(e, OffloadEngineDied) for e in cont_errors
            )
            assert engine.pool.continuation_fires == len(cont_reqs)
            assert engine.pool.continuation_drops == 0
            assert engine.pool.allocated == 0
            return True

        assert all(run_world_mt(1, prog))
