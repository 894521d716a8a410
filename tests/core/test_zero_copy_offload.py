"""Zero-copy data plane through the offload stack (DESIGN.md §14).

The tentpole invariant: an offloaded ``isend`` of a contiguous buffer
under ``zero_copy=True`` never materializes an intermediate copy —
``payload_copies == 0`` with the receive posted, the single data
movement landing straight in the receiver's buffer.
"""

import numpy as np

from repro.core import offloaded
from repro.mpisim import World
from repro.mpisim.constants import THREAD_MULTIPLE

from tests.conftest import run_world_mt


class TestOffloadedHappyPath:
    def test_offloaded_isend_pays_zero_copies(self):
        """THE acceptance assert: posted receive + offloaded isend of a
        contiguous buffer moves the bytes exactly once."""
        n = 8192
        world = World(2, THREAD_MULTIPLE, zero_copy=True)

        def prog(comm):
            with offloaded(comm) as oc:
                if oc.rank == 1:
                    buf = np.empty(n, dtype=np.float64)
                    rreq = oc.irecv(buf, 0, tag=5)
                oc.barrier()  # receive posted before the send fires
                if oc.rank == 0:
                    data = np.arange(n, dtype=np.float64)
                    oc.isend(data, 1, tag=5).wait(timeout=30)
                    oc.flush()
                    return oc.payload_counters()
                rreq.wait(timeout=30)
                assert (buf == np.arange(n, dtype=np.float64)).all()
                return oc.payload_counters()

        res = world.run(prog, timeout=60)
        copies = sum(r[0] for r in res)
        hits = sum(r[1] for r in res)
        assert copies == 0, f"intermediate copies on the happy path: {res}"
        assert hits >= 1  # the barrier's tokens may add more
        assert world.total_payload_copies() == 0

    def test_offloaded_roundtrip_unposted_still_single_copy(self):
        """Unexpected arrival: the copy defers to match time, still no
        intermediate materialization."""

        def prog(comm):
            with offloaded(comm) as oc:
                peer = 1 - oc.rank
                data = np.arange(2048, dtype=np.uint8)
                buf = np.empty(2048, dtype=np.uint8)
                if oc.rank == 0:
                    oc.send(data, peer, tag=1)
                    oc.recv(buf, peer, tag=2)
                else:
                    oc.recv(buf, peer, tag=1)
                    oc.send(data, peer, tag=2)
                return np.array_equal(buf, data)

        assert all(run_world_mt(2, prog, zero_copy=True))

    def test_engine_stats_expose_counter_pair(self):
        world = World(1, THREAD_MULTIPLE, zero_copy=True)
        comm = world.comm_world(0)
        with offloaded(comm) as oc:
            s = oc.engine.engines[0].stats()
        assert s["payload_copies"] == 0
        assert s["payload_zero_copy_hits"] == 0

    def test_pool_reads_the_rank_wide_pair_once(self):
        """Every shard of a pool shares the rank's one progress engine:
        the pool's stats report its copy counters once, not once per
        shard."""
        n = 10

        def prog(comm):
            with offloaded(comm, pool_size=2) as oc:
                peer = 1 - oc.rank
                bufs = [np.empty(64, dtype=np.uint8) for _ in range(n)]
                recvs = [oc.irecv(b, peer, tag=i) for i, b in enumerate(bufs)]
                oc.barrier()  # every receive posted before the sends
                for i in range(n):
                    oc.isend(np.full(64, i, dtype=np.uint8), peer, i).wait()
                for r in recvs:
                    r.wait(timeout=30)
                oc.barrier()
                stats = oc.engine.stats()
                return (
                    stats["payload_copies"],
                    stats["payload_zero_copy_hits"],
                ), oc.payload_counters()

        for pool_view, rank_view in run_world_mt(2, prog, zero_copy=True):
            assert pool_view == rank_view
            assert rank_view[1] >= n


class TestKnobPlumbing:
    def test_offloaded_none_leaves_world_setting(self):
        world = World(1, THREAD_MULTIPLE, zero_copy=True)
        comm = world.comm_world(0)
        with offloaded(comm):
            assert comm.engine.zero_copy is True
        assert comm.engine.zero_copy is True
