"""A blocking call is a wait on its nonblocking command's slot.

Every offloaded call that completes does so through a request-pool
slot, blocking calls included; a CALL carrying a communicator travels
its collective stream; statuses are comm-local however they are
collected; and a send that cannot be posted leaves no receive behind.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Command, CommandKind, EnginePool, interpose, offloaded
from repro.core.engine_pool import ShardRouter
from repro.lockfree.freelist import FreeListExhausted
from repro.mpisim import ANY_SOURCE
from repro.mpisim.exceptions import InvalidRankError

from tests.conftest import run_world, run_world_mt


class TestCallRouting:
    def test_call_on_a_communicator_keys_on_its_collective_stream(self):
        comm = SimpleNamespace(cid=5)
        router = ShardRouter("dest")
        coll = router.stream_key(
            Command(CommandKind.IBARRIER, comm, slot=0)
        )
        call = router.stream_key(
            Command(CommandKind.CALL, comm, slot=0, fn=lambda: None)
        )
        assert call == coll == (5, 2)
        # a CALL on no communicator stays on its thread's stream
        bare = router.stream_key(
            Command(CommandKind.CALL, slot=0, fn=lambda: None)
        )
        assert bare == ("t", threading.get_ident())

    def test_gatherv_between_ibarriers_on_a_pool_of_two(self):
        """ibarrier and gatherv on one communicator must be issued in
        program order on every rank: on two shards they crossed."""
        rounds = 200

        def prog(comm):
            with offloaded(comm, pool_size=2) as c:
                counts = [2] * c.size
                for i in range(rounds):
                    h = c.ibarrier()
                    out = c.gatherv(
                        np.full(2, c.rank * 1000 + i, dtype=np.int64),
                        counts,
                        root=0,
                    )
                    h.wait(timeout=30)
                    if c.rank == 0:
                        want = np.repeat(
                            [r * 1000 + i for r in range(c.size)], 2
                        )
                        assert (out == want).all()
            return True

        assert all(run_world_mt(2, prog, timeout=120))


class TestLocalStatus:
    def test_offloaded_irecv_wait_reports_the_local_source(self):
        def prog(comm):
            with offloaded(comm) as c:
                sub = c.split(comm.rank % 2 if comm.rank % 2 else None)
                if sub is None:
                    return True
                buf = np.zeros(1)
                if comm.rank == 3:
                    sub.send(np.ones(1), 0, tag=5)
                    sub.send(np.ones(1), 0, tag=6)
                    return True
                st = sub.irecv(buf, ANY_SOURCE, 5).wait(timeout=30)
                assert (st.source, st.tag) == (1, 5)
                st = sub.recv(buf, ANY_SOURCE, 6)
                assert (st.source, st.tag) == (1, 6)
            return True

        assert all(run_world(4, prog))


class TestSendrecvInvalidSend:
    def test_invalid_send_leaves_no_receive_or_slot_behind(self):
        def prog(comm):
            with offloaded(comm) as c:
                peer = 1 - c.rank
                buf = np.zeros(1)
                with pytest.raises(InvalidRankError):
                    c.sendrecv(np.ones(1), 99, buf, peer)
                assert c.engine.pool.allocated == 0
                # the next message from the peer is the next receive's
                c.sendrecv(np.full(1, c.rank + 1.0), peer, buf, peer)
                assert buf[0] == peer + 1.0
            return True

        assert all(run_world(2, prog))


class TestBlockingHoldsASlot:
    def test_blocking_call_with_every_slot_held_raises_at_once(
        self, engine_pool_size
    ):
        def prog(comm):
            with EnginePool(
                comm, pool_size=engine_pool_size, pool_capacity=8
            ) as engines:
                c = interpose(comm, engines)
                pool = c.engine.pool
                held = [
                    c.irecv(np.zeros(1), 0, tag=100 + i)
                    for i in range(pool.capacity)
                ]
                assert pool.allocated == pool.capacity
                with pytest.raises(FreeListExhausted):
                    c.send(np.ones(1), 0, tag=1)
                with pytest.raises(FreeListExhausted):
                    c.barrier()
                # the substrate, not the facade, completes the receives
                for i in range(len(held)):
                    comm.send(np.ones(1), 0, tag=100 + i)
                for h in held:
                    h.wait(timeout=30)
                c.barrier()  # with slots free again it goes through
                assert pool.allocated == 0
            return True

        assert all(run_world_mt(1, prog))

    def test_blocking_calls_release_their_slots(self):
        def prog(comm):
            with offloaded(comm) as c:
                peer = 1 - c.rank
                buf = np.zeros(4)
                for _ in range(3):
                    if c.rank == 0:
                        c.send(np.arange(4.0), peer)
                        c.recv(buf, peer)
                    else:
                        c.recv(buf, peer)
                        c.send(buf, peer)
                    c.barrier()
                    assert c.iprobe(peer, tag=9) is None  # a miss is None
                    c.allreduce(np.ones(2))
                    c.flush()
                assert c.engine.pool.allocated == 0
                assert (buf == np.arange(4.0)).all()
            return True

        assert all(run_world(2, prog))


def test_engine_completes_only_slots():
    """A CALL's return value, even an array, is its slot's payload."""

    def prog(comm):
        pool = EnginePool(comm).start()
        try:
            (engine,) = pool.engines
            slot = pool.pool.alloc()
            engine.submit(
                Command(CommandKind.CALL, slot=slot, fn=lambda: np.ones(3))
            )
            flag = pool.pool.slot(slot).flag
            assert flag.wait(10)
            assert (flag.payload == np.ones(3)).all()
            pool.pool.release(slot)
        finally:
            pool.stop()
        return True

    assert all(run_world(1, prog))
