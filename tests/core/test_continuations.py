"""Continuation-based completion (DESIGN.md §16).

The registry's contract — exactly-once delivery on every terminal
path, typed rejection of double registration, immediate delivery when
registering after completion — exercised three ways:

* direct pool-level unit tests;
* seeded hypothesis property tests racing registrants against
  completers over real threads;
* end-to-end through ``offloaded`` (so the ``REPRO_POOL_SIZE`` matrix
  in tests/core/conftest.py runs the same contract over the sharded
  pool, where registration and firing happen on different shards'
  threads).
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OffloadTimeout, RecoveryPolicy, offloaded
from repro.core.request_pool import (
    ContinuationError,
    OffloadError,
    OffloadRequest,
    OffloadRequestPool,
)
from repro.mpisim.status import Status

from tests.conftest import run_world_mt

pytestmark = pytest.mark.deadline(120)


class TestRegistryUnit:
    def test_register_before_complete_fires_on_completer(self):
        pool = OffloadRequestPool(4)
        idx = pool.alloc()
        req = OffloadRequest(pool, idx)
        fired: list[int] = []
        req.add_continuation(lambda: fired.append(1))
        assert fired == []  # nothing terminal yet
        pool.complete(idx, Status(0, 7, 8))
        assert fired == [1]
        assert pool.continuation_fires == 1
        assert pool.continuation_drops == 0
        done, status = req.test()  # continuation left the slot to us
        assert done and status.tag == 7

    def test_register_after_complete_fires_immediately_inline(self):
        pool = OffloadRequestPool(4)
        idx = pool.alloc()
        req = OffloadRequest(pool, idx)
        pool.complete(idx, Status(0, 0, 3))
        fired_on: list[int] = []
        req.add_continuation(
            lambda: fired_on.append(threading.get_ident())
        )
        # delivered synchronously, on the registering thread
        assert fired_on == [threading.get_ident()]
        assert pool.continuation_fires == 1
        req.test()

    def test_reregistration_raises_typed_error(self):
        pool = OffloadRequestPool(4)
        idx = pool.alloc()
        req = OffloadRequest(pool, idx)
        req.add_continuation(lambda: None)
        with pytest.raises(ContinuationError):
            req.add_continuation(lambda: None)
        # still exactly-once for the surviving registration
        pool.complete(idx, None)
        assert pool.continuation_fires == 1
        req.test()

    def test_reregistration_rejected_even_after_fire(self):
        pool = OffloadRequestPool(4)
        idx = pool.alloc()
        req = OffloadRequest(pool, idx)
        req.add_continuation(lambda: None)
        pool.complete(idx, None)
        with pytest.raises(ContinuationError):
            req.add_continuation(lambda: None)

    def test_stale_handle_registration_raises(self):
        pool = OffloadRequestPool(4)
        idx = pool.alloc()
        req = OffloadRequest(pool, idx)
        pool.complete(idx, None)
        assert req.test()[0]
        with pytest.raises(OffloadError):
            req.add_continuation(lambda: None)

    def test_failure_path_fires_and_delivers_typed_error(self):
        pool = OffloadRequestPool(4)
        idx = pool.alloc()
        req = OffloadRequest(pool, idx)
        seen: list[BaseException] = []

        def cont() -> None:
            try:
                req.test()
            except OffloadError as exc:
                seen.append(exc)

        req.add_continuation(cont)
        pool.fail(idx, OffloadTimeout("injected"))
        assert len(seen) == 1 and isinstance(seen[0], OffloadTimeout)
        assert pool.continuation_fires == 1

    def test_continuation_exception_never_escapes(self):
        pool = OffloadRequestPool(4)
        idx = pool.alloc()
        req = OffloadRequest(pool, idx)
        req.add_continuation(lambda: 1 / 0)
        pool.complete(idx, None)  # must not raise
        assert pool.continuation_fires == 1
        req.test()

    def test_release_of_unfired_continuation_counts_drop(self):
        # A direct waiter consumed the slot before the registered
        # continuation ever fired: the delivery is abandoned loudly
        # (a drop), never silently.
        pool = OffloadRequestPool(4)
        idx = pool.alloc()
        req = OffloadRequest(pool, idx)
        req.add_continuation(lambda: None)
        pool.release(idx)
        assert pool.continuation_drops == 1
        assert pool.continuation_fires == 0
        with pytest.raises(OffloadError):
            req.add_continuation(lambda: None)  # handle is stale now


class TestRegistryProperties:
    """Seeded hypothesis properties over the register/complete race."""

    @settings(max_examples=40, deadline=None)
    @given(complete_first=st.booleans(), fail_path=st.booleans())
    def test_any_order_delivers_exactly_once(
        self, complete_first, fail_path
    ):
        pool = OffloadRequestPool(4)
        idx = pool.alloc()
        req = OffloadRequest(pool, idx)
        fired: list[int] = []

        def finish() -> None:
            if fail_path:
                pool.fail(idx, OffloadTimeout("prop"))
            else:
                pool.complete(idx, None)

        if complete_first:
            finish()
            req.add_continuation(lambda: fired.append(1))
        else:
            req.add_continuation(lambda: fired.append(1))
            finish()
        assert fired == [1]
        assert pool.continuation_fires == 1
        assert pool.continuation_drops == 0
        if fail_path:
            with pytest.raises(OffloadTimeout):
                req.test()
        else:
            assert req.test()[0]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_threaded_register_vs_complete_exactly_once(self, seed):
        """Registrant and completer race from a barrier with seeded
        jitter; every interleaving must deliver exactly once."""
        import random

        rng = random.Random(seed)
        pool = OffloadRequestPool(8, cache_size=0)
        rounds = 12
        for _ in range(rounds):
            idx = pool.alloc()
            req = OffloadRequest(pool, idx)
            fired: list[int] = []
            barrier = threading.Barrier(2)
            jitter = rng.random() * 1e-4

            def registrant() -> None:
                barrier.wait()
                if rng.random() < 0.5:
                    time.sleep(jitter)
                req.add_continuation(lambda: fired.append(1))

            def completer() -> None:
                barrier.wait()
                time.sleep(jitter)
                pool.complete(idx, None)

            threads = [
                threading.Thread(target=registrant),
                threading.Thread(target=completer),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert fired == [1], fired
            assert req.test()[0]
        assert pool.continuation_fires == rounds
        assert pool.continuation_drops == 0
        assert pool.allocated == 0


    def test_register_racing_a_direct_consumer_is_never_silently_lost(self):
        """One thread consumes a completed handle (``wait`` releases
        the slot, without a lock when it sees no continuation) while
        another registers on it.  Whatever the order, the registration
        is delivered, refused as stale, or counted as a drop — and it
        never survives into the slot's next generation."""
        import sys

        pool = OffloadRequestPool(1, cache_size=0)  # one slot, reused
        rounds = 1500
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(rounds):
                idx = pool.alloc()
                req = OffloadRequest(pool, idx)
                pool.complete(idx, None)
                fired: list[int] = []
                refused: list[BaseException] = []
                drops0 = pool.continuation_drops
                barrier = threading.Barrier(2)

                def registrant() -> None:
                    barrier.wait()
                    try:
                        req.add_continuation(lambda: fired.append(1))
                    except (ContinuationError, OffloadError) as exc:
                        refused.append(exc)

                def consumer() -> None:
                    barrier.wait()
                    req.wait(timeout=10)

                threads = [
                    threading.Thread(target=registrant),
                    threading.Thread(target=consumer),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(10)
                assert not any(t.is_alive() for t in threads)
                drops = pool.continuation_drops - drops0
                if refused:
                    assert (len(fired), drops) == (0, 0)
                else:
                    assert len(fired) + drops == 1, (fired, drops)
                assert pool.slot(idx).cont is None
                assert pool.allocated == 0
        finally:
            sys.setswitchinterval(prev)


class TestThroughOffloaded:
    """End-to-end over ``offloaded`` — picks up the suite-wide
    ``REPRO_POOL_SIZE`` matrix, so the sharded pool runs the same
    exactly-once contract."""

    def test_echo_continuations_fire_exactly_once(self):
        def prog(comm):
            with offloaded(comm, telemetry=True) as oc:
                n = 32
                fires: list[int] = []
                lock = threading.Lock()
                all_done = threading.Event()
                handles = []
                for i in range(n):
                    rbuf = np.empty(1)
                    r = oc.irecv(rbuf, 0, tag=i)
                    s = oc.isend(np.array([float(i)]), 0, tag=i)
                    for req in (r, s):

                        def cont(req=req) -> None:
                            req.test()
                            with lock:
                                fires.append(1)
                                if len(fires) == 2 * n:
                                    all_done.set()

                        req.add_continuation(cont)
                        handles.append(req)
                assert all_done.wait(30)
                # settle: no late duplicate deliveries
                time.sleep(0.05)
                assert len(fires) == 2 * n
                stats = oc.engine.stats()
                assert stats["continuation_fires"] == 2 * n
                assert stats["continuation_drops"] == 0
                return True

        assert all(run_world_mt(1, prog))

    def test_timeout_path_fires_with_typed_error(self):
        def prog(comm):
            rec = RecoveryPolicy(op_timeout=0.2)
            with offloaded(comm, recovery=rec) as oc:
                delivered = threading.Event()
                errors: list[BaseException] = []
                req = oc.irecv(np.empty(1), 0, tag=404)  # never sent

                def cont() -> None:
                    try:
                        req.test()
                    except OffloadError as exc:
                        errors.append(exc)
                    delivered.set()

                req.add_continuation(cont)
                assert delivered.wait(10)
                assert len(errors) == 1
                assert isinstance(errors[0], OffloadTimeout)
                return True

        assert all(run_world_mt(1, prog))
