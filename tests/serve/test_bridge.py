"""The asyncio bridge: offloaded handles as awaitables.

Completion crosses from the engine thread to the event loop through
one ``call_soon_threadsafe`` per request; the loop thread consumes the
handle.  These tests pin the success path, the typed-failure path
(timeout and engine death raise *into* the await), cancellation (the
slot is still consumed), and the balance contract (pool drains to
zero, fires == submitted commands, no drops)."""

import asyncio

import numpy as np
import pytest

from repro.core import OffloadTimeout, offloaded
from repro.core.request_pool import OffloadEngineDied

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
            with offloaded(comm, op_timeout=0.2) as oc:
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
                        None, lambda: oc.engine.abort("bridge test")
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
            with offloaded(comm, op_timeout=0.3, telemetry=True) as oc:
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
