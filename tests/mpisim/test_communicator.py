"""Communicator algebra (dup/split), thread levels, world lifecycle."""

import threading

import numpy as np
import pytest

from repro.mpisim import (
    THREAD_FUNNELED,
    THREAD_MULTIPLE,
    THREAD_SERIALIZED,
    World,
)
from repro.mpisim.exceptions import ThreadLevelError, WorldError

from tests.conftest import run_world, run_world_mt


class TestDup:
    def test_dup_isolates_traffic(self):
        def prog(comm):
            c2 = comm.dup()
            # same tag, different comms: no cross-talk
            peer = 1 - comm.rank
            b1, b2 = np.empty(1), np.empty(1)
            r1 = comm.irecv(b1, peer, tag=1)
            r2 = c2.irecv(b2, peer, tag=1)
            comm.isend(np.array([1.0]), peer, tag=1).wait()
            c2.isend(np.array([2.0]), peer, tag=1).wait()
            r1.wait(timeout=30)
            r2.wait(timeout=30)
            return (b1[0], b2[0])

        assert run_world(2, prog) == [(1.0, 2.0), (1.0, 2.0)]

    def test_dup_preserves_rank_size(self):
        def prog(comm):
            c2 = comm.dup()
            return (c2.rank, c2.size, c2.cid != comm.cid)

        res = run_world(3, prog)
        assert res == [(0, 3, True), (1, 3, True), (2, 3, True)]

    def test_multiple_dups_unique_contexts(self):
        def prog(comm):
            cids = {comm.dup().cid for _ in range(4)}
            return len(cids)

        assert run_world(2, prog) == [4, 4]


class TestSplit:
    def test_split_even_odd(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2, key=comm.rank)
            total = sub.allreduce(np.array([comm.rank]))
            return (sub.size, int(total[0]))

        res = run_world(4, prog)
        assert res[0] == (2, 0 + 2)
        assert res[1] == (2, 1 + 3)

    def test_split_key_reorders_ranks(self):
        def prog(comm):
            # reverse rank order via key
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        res = run_world(3, prog)
        assert res == [2, 1, 0]

    def test_split_undefined_color(self):
        def prog(comm):
            sub = comm.split(color=None if comm.rank == 0 else 1)
            if comm.rank == 0:
                return sub is None
            return sub.size

        res = run_world(3, prog)
        assert res == [True, 2, 2]

    def test_split_subgroup_collectives(self):
        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            g = sub.allgather(np.array([comm.rank]))
            return sorted(g.ravel().tolist())

        res = run_world(4, prog)
        assert res[0] == [0, 1]
        assert res[3] == [2, 3]


    def test_split_statuses_carry_communicator_local_ranks(self):
        """Receive statuses name the source by its rank *in the
        communicator*: the odd ranks of the world are 0..2 in their
        split (reversed by the key), and a wildcard receive says which
        of them sent — plain and through the offload engine alike."""
        from repro.core import offloaded
        from repro.mpisim import ANY_SOURCE

        def prog(comm):
            sub = comm.split(color=comm.rank % 2, key=-comm.rank)
            assert sub._local_rank is not None  # not the identity map
            assert comm._local_rank is None  # the world is
            nxt, prv = (sub.rank + 1) % sub.size, (sub.rank - 1) % sub.size
            out = np.array([float(sub.rank)])
            into = np.empty(1)
            sub.send(out, nxt, tag=0)  # eager: cannot block
            plain = sub.recv(into, ANY_SOURCE, tag=0)
            seen = [(plain.source, int(into[0]), prv)]
            with offloaded(sub) as osub:
                rreq = osub.irecv(into, ANY_SOURCE, tag=1)
                osub.send(out, nxt, tag=1)
                seen.append((rreq.wait().source, int(into[0]), prv))
            return seen

        for seen in run_world_mt(6, prog):
            for source, payload, prv in seen:
                assert source == payload == prv


class TestThreadLevels:
    def test_funneled_rejects_other_threads(self):
        def prog(comm):
            caught = []

            def rogue():
                try:
                    comm.send(np.zeros(1), dest=0, tag=1)
                except ThreadLevelError as exc:
                    caught.append(exc)

            t = threading.Thread(target=rogue)
            t.start()
            t.join()
            return len(caught)

        assert run_world(1, prog) == [1]

    def test_serialized_detects_concurrency(self):
        def prog(comm):
            # hold the engine busy from this thread while another calls
            caught = []
            barrier = threading.Barrier(2)

            def racer():
                barrier.wait()
                try:
                    for _ in range(100):
                        comm.iprobe()
                except ThreadLevelError as exc:
                    caught.append(exc)

            t = threading.Thread(target=racer)
            t.start()
            barrier.wait()
            try:
                for _ in range(100):
                    comm.iprobe()
            except ThreadLevelError as exc:
                caught.append(exc)
            t.join()
            # detection is race-dependent, but legal executions never
            # raise for the *same* thread
            return True

        run_world(1, prog, thread_level=THREAD_SERIALIZED)

    def test_multiple_allows_concurrent_calls(self):
        def prog(comm):
            errors = []

            def worker(tid):
                try:
                    buf = np.empty(1)
                    r = comm.irecv(buf, 0, tag=tid)
                    comm.isend(np.array([float(tid)]), 0, tag=tid).wait()
                    r.wait(timeout=30)
                    assert buf[0] == tid
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return errors

        assert run_world_mt(1, prog) == [[]]


class TestWorld:
    def test_results_in_rank_order(self):
        res = run_world(4, lambda comm: comm.rank * 2)
        assert res == [0, 2, 4, 6]

    def test_exception_propagation(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(WorldError) as ei:
            run_world(2, prog)
        assert 1 in ei.value.failures
        assert isinstance(ei.value.failures[1], ValueError)

    def test_deadlock_surfaces_as_timeout(self):
        def prog(comm):
            if comm.rank == 0:
                buf = np.empty(1)
                comm.recv(buf, 1, tag=9)  # never sent
            return True

        with pytest.raises(WorldError) as ei:
            run_world(2, prog, timeout=0.5)
        assert isinstance(ei.value.failures[0], TimeoutError)

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            World(0)

    def test_comm_self(self):
        def prog(comm):
            me = comm.world.comm_self(comm.engine.rank)
            assert me.size == 1 and me.rank == 0
            buf = np.empty(1)
            r = me.irecv(buf, 0, tag=1)
            me.isend(np.array([3.0]), 0, tag=1).wait()
            r.wait(timeout=10)
            return buf[0]

        assert run_world(2, prog) == [3.0, 3.0]

    def test_diagnostics_counters(self):
        def prog(comm):
            peer = 1 - comm.rank
            buf = np.empty(4)
            comm.sendrecv(np.zeros(4), peer, buf, peer)
            return None

        world = World(2)
        world.run(prog, timeout=30)
        assert world.total_bytes_sent() == 2 * 32
        assert world.engines[0].eager_sends == 1
