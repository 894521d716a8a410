"""Integration tests: the offload communicator facade end to end."""

import numpy as np
import pytest

from repro.core import offloaded, offload_waitall, offload_waitany
from repro.mpisim import ANY_SOURCE, SUM, MAX
from repro.util.units import KIB

from tests.conftest import run_world, run_world_mt


def offload_prog(body):
    """Wrap a body(ocomm) in the offloaded context."""

    def prog(comm):
        with offloaded(comm) as oc:
            return body(oc)

    return prog


class TestP2P:
    @pytest.mark.parametrize("nbytes", [4, 64 * KIB, 512 * KIB])
    def test_blocking_roundtrip(self, nbytes):
        def body(oc):
            peer = 1 - oc.rank
            data = np.arange(nbytes, dtype=np.uint8)
            buf = np.empty(nbytes, dtype=np.uint8)
            if oc.rank == 0:
                oc.send(data, peer, tag=1)
                oc.recv(buf, peer, tag=2)
            else:
                oc.recv(buf, peer, tag=1)
                oc.send(data, peer, tag=2)
            return np.array_equal(buf, data)

        assert all(run_world_mt(2, offload_prog(body)))

    def test_nonblocking_with_waitall(self):
        def body(oc):
            peer = 1 - oc.rank
            out = np.empty(16)
            r1 = oc.irecv(out, peer, tag=3)
            r2 = oc.isend(np.full(16, float(oc.rank)), peer, tag=3)
            offload_waitall([r1, r2], timeout=30)
            return out[0]

        assert run_world_mt(2, offload_prog(body)) == [1.0, 0.0]

    def test_status_is_comm_local(self):
        def body(oc):
            if oc.rank == 0:
                oc.send(np.zeros(4), 1, tag=9)
                return None
            buf = np.empty(4)
            st = oc.recv(buf, ANY_SOURCE, tag=9)
            return (st.source, st.tag, st.count)

        res = run_world_mt(2, offload_prog(body))
        assert res[1] == (0, 9, 32)

    def test_waitany(self):
        def body(oc):
            if oc.rank == 0:
                bufs = [np.empty(1) for _ in range(3)]
                reqs = [oc.irecv(bufs[i], 1, tag=i) for i in range(3)]
                idx, _st = offload_waitany(reqs, timeout=30)
                for i, r in enumerate(reqs):
                    if i != idx:
                        r.wait(timeout=30)
                return True
            for i in range(3):
                oc.send(np.array([1.0]), 0, tag=i)
            return True

        assert all(run_world_mt(2, offload_prog(body)))

    def test_probe_and_objects(self):
        def body(oc):
            if oc.rank == 0:
                oc.send_obj([1, "two", 3.0], 1, tag=4)
                return None
            st = oc.probe(0, 4, timeout=30)
            assert st.count > 0
            return oc.recv_obj(0, 4, timeout=30)

        res = run_world_mt(2, offload_prog(body))
        assert res[1] == [1, "two", 3.0]


class TestCollectives:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_full_collective_sweep(self, n):
        def body(oc):
            s = oc.allreduce(np.array([1.0]))
            assert s[0] == n
            r = oc.reduce(np.array([float(oc.rank)]), op=MAX, root=0)
            if oc.rank == 0:
                assert r[0] == n - 1
            g = oc.gather(np.array([oc.rank]), root=0)
            if oc.rank == 0:
                assert list(g.ravel()) == list(range(n))
            ag = oc.allgather(np.array([oc.rank * 2]))
            assert list(ag.ravel()) == [2 * i for i in range(n)]
            src = np.arange(n * 2, dtype=np.float64).reshape(n, 2)
            out = np.empty(2)
            oc.scatter(src if oc.rank == 0 else None, out, root=0)
            assert out[0] == oc.rank * 2
            a2a = oc.alltoall(np.full((n, 1), float(oc.rank)))
            assert list(a2a.ravel()) == [float(i) for i in range(n)]
            rs = oc.reduce_scatter(np.ones((n, 3)))
            assert (rs == n).all()
            sc = oc.scan(np.array([1.0]))
            assert sc[0] == oc.rank + 1
            oc.barrier()
            buf = np.array([42.0]) if oc.rank == 0 else np.zeros(1)
            oc.bcast(buf, root=0)
            assert buf[0] == 42.0
            obj = oc.bcast_obj("hi" if oc.rank == 0 else None, root=0)
            assert obj == "hi"
            return True

        assert all(run_world_mt(n, offload_prog(body)))

    def test_nonblocking_collectives(self):
        def body(oc):
            n = oc.size
            out = np.empty(2)
            h = oc.iallreduce(np.array([1.0, 2.0]), out)
            h.wait(timeout=30)
            assert out[0] == n and out[1] == 2 * n
            oc.ibarrier().wait(timeout=30)
            buf = np.array([7.0]) if oc.rank == 0 else np.zeros(1)
            oc.ibcast(buf, root=0).wait(timeout=30)
            assert buf[0] == 7.0
            recv = np.empty((n, 1), dtype=np.int64) if oc.rank == 0 else None
            oc.igather(np.array([oc.rank]), recv, root=0).wait(timeout=30)
            if oc.rank == 0:
                assert list(recv.ravel()) == list(range(n))
            send = np.full((n, 1), float(oc.rank))
            recv2 = np.empty_like(send)
            oc.ialltoall(send, recv2).wait(timeout=30)
            assert list(recv2.ravel()) == [float(i) for i in range(n)]
            return True

        assert all(run_world_mt(4, offload_prog(body)))


class TestCommAlgebra:
    def test_dup_through_offload(self):
        def body(oc):
            oc2 = oc.dup()
            s = oc2.allreduce(np.array([1.0]))
            return s[0]

        assert run_world_mt(2, offload_prog(body)) == [2.0, 2.0]

    def test_split_through_offload(self):
        def body(oc):
            sub = oc.split(color=oc.rank % 2, key=oc.rank)
            if sub is None:
                return None
            s = sub.allreduce(np.array([1.0]))
            return (sub.size, s[0])

        res = run_world_mt(4, offload_prog(body))
        assert all(r == (2, 2.0) for r in res)

    def test_flush_completes_prior_work(self):
        def body(oc):
            peer = 1 - oc.rank
            out = np.empty(8)
            r1 = oc.irecv(out, peer, tag=1)
            oc.isend(np.full(8, 1.0), peer, tag=1)
            oc.flush()
            # after flush, everything previously submitted is complete
            assert r1.done
            r1.wait(timeout=5)
            return True

        assert all(run_world_mt(2, offload_prog(body)))


class TestEngineBehaviour:
    def test_funnel_thread_is_offload_thread(self):
        """The substrate's FUNNELED enforcement proves only the offload
        thread enters MPI."""

        def prog(comm):
            import threading

            with offloaded(comm) as oc:
                funnel = comm.world.funnel_thread(comm.engine.rank)
                mine = threading.get_ident()
                assert funnel != mine  # re-pointed to offload thread
                oc.barrier()
            # restored after shutdown
            return comm.world.funnel_thread(comm.engine.rank) is not None

        run_world_mt(2, prog)

    def test_stats_accumulate(self):
        def body(oc):
            for i in range(10):
                oc.allreduce(np.array([1.0]))
            st = oc.engine.stats()
            assert st["commands_processed"] >= 10
            assert st["completions"] >= 10
            return True

        assert all(run_world_mt(2, offload_prog(body)))

    def test_concurrent_app_threads_share_engine(self):
        """MPI_THREAD_MULTIPLE via offload: many app threads enqueue
        concurrently onto one lock-free queue."""
        import threading

        def body(oc):
            errors = []

            def worker(tid):
                try:
                    peer = 1 - oc.rank
                    buf = np.empty(1)
                    r = oc.irecv(buf, peer, tag=100 + tid)
                    oc.isend(np.array([float(tid)]), peer, tag=100 + tid)
                    r.wait(timeout=30)
                    assert buf[0] == tid
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors
            return oc.engine.stats()["queue_cas_failures"] >= 0

        run_world_mt(2, offload_prog(body))
