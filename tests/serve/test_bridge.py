"""The asyncio bridge: offloaded handles as awaitables.

Completions cross from the engine thread to the event loop through the
bridge's landed queue — appended by the firing thread, drained by one
``call_soon_threadsafe`` per clear → look cycle — and the loop thread
consumes the handles.  These tests pin the success path, the
typed-failure path (timeout and engine death raise *into* the await),
cancellation (the slot is still consumed), the balance contract (pool
drains to zero, fires == submitted commands, no drops), the crossing
count (N completions landed behind one ring cost one crossing), and
the closed loop (every undelivered completion is a counted drop whose
slot is released)."""

import asyncio
import time

import numpy as np
import pytest

from repro.core import OffloadTimeout, RecoveryPolicy, offloaded
from repro.core.commands import Command, CommandKind
from repro.core.request_pool import OffloadEngineDied, OffloadRequest

from tests.conftest import run_world_mt
from repro.serve import AsyncOffloadEngine

pytestmark = pytest.mark.deadline(120)


class TestBridge:
    def test_echo_roundtrip_resolves_with_status(self):
        def prog(comm):
            with offloaded(comm, telemetry=True) as oc:
                engine = AsyncOffloadEngine(oc)

                async def main() -> bool:
                    rbuf = np.empty(4, dtype=np.uint8)
                    sbuf = np.arange(4, dtype=np.uint8)
                    st_recv, st_send = await asyncio.gather(
                        engine.offload_irecv(rbuf, engine.rank, tag=1),
                        engine.offload_isend(sbuf, engine.rank, tag=1),
                    )
                    assert st_recv is not None and st_send is not None
                    assert (rbuf == sbuf).all()
                    return True

                ok = asyncio.run(main())
                stats = engine.stats()
                assert stats["continuation_fires"] == 2
                assert stats["continuation_drops"] == 0
                assert stats["pool_allocated"] == 0
                return ok

        assert all(run_world_mt(1, prog))

    def test_many_concurrent_awaiters_all_resolve(self):
        def prog(comm):
            with offloaded(comm, telemetry=True) as oc:
                engine = AsyncOffloadEngine(oc)
                n = 64

                async def echo(i: int) -> bool:
                    rbuf = np.empty(1, dtype=np.uint8)
                    sbuf = np.array([i % 251], dtype=np.uint8)
                    await asyncio.gather(
                        engine.offload_irecv(rbuf, engine.rank, tag=i),
                        engine.offload_isend(sbuf, engine.rank, tag=i),
                    )
                    return rbuf[0] == i % 251

                async def main() -> bool:
                    results = await asyncio.gather(
                        *(echo(i) for i in range(n))
                    )
                    return all(results)

                ok = asyncio.run(main())
                stats = engine.stats()
                assert stats["continuation_fires"] == 2 * n
                assert stats["continuation_drops"] == 0
                assert stats["pool_allocated"] == 0
                return ok

        assert all(run_world_mt(1, prog))

    def test_timeout_raises_typed_into_await(self):
        def prog(comm):
            rec = RecoveryPolicy(op_timeout=0.2)
            with offloaded(comm, recovery=rec) as oc:
                engine = AsyncOffloadEngine(oc)

                async def main() -> bool:
                    rbuf = np.empty(1)
                    with pytest.raises(OffloadTimeout):
                        await engine.offload_irecv(
                            rbuf, engine.rank, tag=404
                        )
                    return True

                return asyncio.run(main())

        assert all(run_world_mt(1, prog))

    def test_engine_death_raises_typed_into_await(self):
        def prog(comm):
            with offloaded(comm) as oc:
                engine = AsyncOffloadEngine(oc)

                async def main() -> bool:
                    rbuf = np.empty(1)
                    fut = asyncio.ensure_future(
                        engine.offload_irecv(rbuf, engine.rank, tag=99)
                    )
                    await asyncio.sleep(0.05)
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(
                        None, lambda: oc.engine.engines[0].abort("bridge test")
                    )
                    with pytest.raises(OffloadEngineDied):
                        await fut
                    return True

                return asyncio.run(main())

        assert all(run_world_mt(1, prog))

    def test_inline_request_of_a_degraded_facade_is_awaitable(self):
        """With its engine dead and ``degrade`` on, the facade answers
        ``isend``/``irecv`` with the substrate's own request, which has
        no continuation to register: the loop drives it by ``test()``.
        (Seen as a rare ``AttributeError`` in the serve chaos run when
        the injected crash landed just before an ``isend``.)"""

        def prog(comm):
            engine = AsyncOffloadEngine(comm)  # plain communicator = inline requests

            async def main() -> bool:
                rbuf = np.empty(4, dtype=np.uint8)
                sbuf = np.arange(4, dtype=np.uint8)
                # receive first: pending until the send below arrives
                recv = engine.awaitable(comm.irecv(rbuf, comm.rank, tag=5))
                await asyncio.sleep(0.01)
                assert not recv.done()
                send = engine.awaitable(comm.isend(sbuf, comm.rank, tag=5))
                st_recv, _ = await asyncio.wait_for(
                    asyncio.gather(recv, send), 30
                )
                return st_recv.count == 4 and (rbuf == sbuf).all()

            return asyncio.run(main())

        assert all(run_world_mt(1, prog))

    def test_cancelled_awaiter_still_consumes_slot(self):
        def prog(comm):
            with offloaded(
                comm, recovery=RecoveryPolicy(op_timeout=0.3), telemetry=True
            ) as oc:
                engine = AsyncOffloadEngine(oc)

                async def main() -> bool:
                    rbuf = np.empty(1)
                    fut = engine.awaitable(
                        oc.irecv(rbuf, engine.rank, tag=77)
                    )
                    await asyncio.sleep(0.02)
                    fut.cancel()
                    # let the op_timeout fire and the resolve callback
                    # consume the abandoned handle
                    for _ in range(100):
                        await asyncio.sleep(0.01)
                        if engine.stats()["pool_allocated"] == 0:
                            break
                    return engine.stats()["pool_allocated"] == 0

                return asyncio.run(main())

        assert all(run_world_mt(1, prog))


def _settle(cond, timeout: float = 30.0) -> None:
    """Block the calling thread (on purpose) until ``cond()`` holds."""
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(1e-3)


class TestLandedQueue:
    def test_completions_landed_behind_one_ring_cost_one_crossing(self):
        """The loop thread sits in a blocking callback while the engine
        completes all N receives: the first fire rings, the rest find
        the bell rung, and one drain resolves them in completion
        order."""

        def prog(comm):
            n = 16
            order = [(7 * i) % n for i in range(n)]  # not the post order
            with offloaded(comm) as oc:
                engine = AsyncOffloadEngine(oc)
                pool = oc.engine.pool
                resolved: list[int] = []

                async def main() -> list:
                    bufs = [np.zeros(1, dtype=np.uint8) for _ in range(n)]
                    futs = [
                        engine.awaitable(oc.irecv(bufs[tag], 0, tag))
                        for tag in range(n)
                    ]
                    for tag, fut in enumerate(futs):
                        fut.add_done_callback(
                            lambda _f, tag=tag: resolved.append(tag)
                        )

                    def hold() -> None:
                        for k, tag in enumerate(order):
                            oc.isend(
                                np.array([tag], dtype=np.uint8), 0, tag
                            ).wait(timeout=30)
                            # one completion at a time: the completion
                            # order is the send order
                            _settle(
                                lambda: pool.continuation_fires == k + 1
                            )

                    asyncio.get_running_loop().call_soon(hold)
                    await asyncio.wait_for(asyncio.gather(*futs), 30)
                    return [int(b[0]) for b in bufs]

                got = asyncio.run(main())
                assert got == list(range(n))
                assert resolved == order
                assert engine.loop_crossings == 1
                assert engine.stats()["loop_crossings"] == 1
                assert pool.continuation_fires == n
                assert pool.continuation_drops == 0
                assert pool.allocated == 0
            return True

        assert all(run_world_mt(1, prog))

    def test_two_shards_ringing_concurrently_lose_nothing(self):
        """Receives tracked by both shards of a two-shard pool complete
        while the loop is held: each engine thread may find the bell
        clear once, so at most two drains are scheduled, and every
        future resolves."""

        def prog(comm):
            n = 32
            # each shard completes what it was handed
            with offloaded(comm, pool_size=2) as oc:
                engine = AsyncOffloadEngine(oc)
                pool = oc.engine.pool
                shards = oc.engine.engines
                assert len(shards) == 2

                async def main() -> list:
                    bufs = [np.zeros(1, dtype=np.uint8) for _ in range(n)]
                    futs = []
                    for tag in range(n):
                        slot = pool.alloc()
                        handle = OffloadRequest(pool, slot)
                        shards[tag % 2].submit(
                            Command(
                                kind=CommandKind.IRECV,
                                slot=slot,
                                comm=comm,
                                buf=bufs[tag],
                                peer=0,
                                tag=tag,
                            )
                        )
                        futs.append(engine.awaitable(handle))

                    def hold() -> None:
                        for tag in range(n):
                            comm.isend(
                                np.array([tag], dtype=np.uint8), 0, tag
                            )
                        _settle(lambda: pool.continuation_fires == n)

                    asyncio.get_running_loop().call_soon(hold)
                    await asyncio.wait_for(asyncio.gather(*futs), 30)
                    return [int(b[0]) for b in bufs]

                got = asyncio.run(main())
                assert got == list(range(n))
                assert [e.completions for e in shards] == [n // 2, n // 2]
                assert 1 <= engine.loop_crossings <= 2
                assert pool.continuation_drops == 0
                assert pool.allocated == 0
            return True

        assert all(run_world_mt(1, prog))

    @pytest.mark.parametrize("before_close", [0, 3])
    def test_completions_after_loop_close_are_dropped_not_leaked(
        self, before_close
    ):
        """A completion that lands after its loop closed has nowhere to
        go: it is a counted drop, and the firing thread consumes the
        handle so the slot is released.  So is one that landed *before*
        the close behind a rung bell whose drain never ran
        (``before_close`` of the five)."""

        def prog(comm):
            n = 5
            with offloaded(comm) as oc:
                loop = asyncio.new_event_loop()  # never run
                engine = AsyncOffloadEngine(oc, loop=loop)
                pool = oc.engine.pool
                bufs = [np.zeros(1, dtype=np.uint8) for _ in range(n)]
                futs = [
                    engine.awaitable(oc.irecv(bufs[tag], 0, tag))
                    for tag in range(n)
                ]
                assert pool.allocated == n

                def send(tag: int) -> None:
                    oc.isend(
                        np.array([tag], dtype=np.uint8), 0, tag
                    ).wait(timeout=30)

                for tag in range(before_close):
                    send(tag)
                _settle(lambda: pool.continuation_fires == before_close)
                assert pool.continuation_drops == 0
                loop.close()
                for tag in range(before_close, n):
                    send(tag)
                _settle(lambda: pool.allocated == 0)
                assert pool.continuation_fires == n
                assert pool.continuation_drops == n
                assert not any(fut.done() for fut in futs)
                assert engine.loop_crossings == 0
                # no exception reached the engine thread: it still serves
                assert oc.engine.dead is None
                echo = np.zeros(1, dtype=np.uint8)
                rreq = oc.irecv(echo, 0, 99)
                oc.send(np.array([42], dtype=np.uint8), 0, 99)
                rreq.wait(timeout=30)
                assert echo[0] == 42 and pool.allocated == 0
            return True

        assert all(run_world_mt(1, prog))
