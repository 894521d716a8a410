"""The comparison approaches: comm-self thread, iprobe hook,
thread-groups, interposition."""

import numpy as np
import pytest

from repro.core import (
    CommSelfProgressThread,
    ThreadGroupRunner,
    interpose,
    make_thread_comms,
    offloaded,
    progress_hook,
)
from repro.core.engine_pool import EnginePool
from repro.mpisim import THREAD_FUNNELED, World
from repro.mpisim.exceptions import ThreadLevelError
from repro.util.units import KIB

from tests.conftest import run_world, run_world_mt


class TestCommSelf:
    def test_requires_thread_multiple(self):
        def prog(comm):
            with pytest.raises(ThreadLevelError):
                CommSelfProgressThread(comm)
            return True

        assert all(run_world(1, prog, thread_level=THREAD_FUNNELED))

    def test_drives_rendezvous_during_compute(self):
        """The paper's §2.2 mechanism: a never-matched self receive
        keeps the progress engine hot, completing rendezvous transfers
        while the app computes."""

        def prog(comm):
            with CommSelfProgressThread(comm) as cs:
                peer = 1 - comm.rank
                big = np.zeros(512 * KIB, dtype=np.uint8)
                out = np.empty_like(big)
                r = comm.irecv(out, peer, tag=1)
                s = comm.isend(big, peer, tag=1)
                import time

                deadline = time.perf_counter() + 5.0
                while not (r.done and s.done):
                    if time.perf_counter() > deadline:
                        return False
                    time.sleep(1e-3)  # app "computes"; never calls MPI
                assert cs.progress_pumps > 0
                r.wait()
                s.wait()
            return True

        assert all(run_world_mt(2, prog))

    def test_clean_restart(self):
        def prog(comm):
            cs = CommSelfProgressThread(comm)
            cs.start()
            cs.stop()
            cs2 = CommSelfProgressThread(comm)
            with cs2:
                pass
            return True

        assert all(run_world_mt(1, prog))

    def test_double_start_rejected(self):
        def prog(comm):
            cs = CommSelfProgressThread(comm).start()
            with pytest.raises(RuntimeError):
                cs.start()
            cs.stop()
            return True

        assert all(run_world_mt(1, prog))


class TestIprobeHook:
    def test_hook_counts_and_throttles(self):
        def prog(comm):
            hook = progress_hook(comm, every=3)
            for _ in range(9):
                hook()
            return (hook.calls(), hook.probes())

        assert run_world(1, prog) == [(9, 3)]

    def test_invalid_every(self):
        def prog(comm):
            with pytest.raises(ValueError):
                progress_hook(comm, every=0)
            return True

        assert all(run_world(1, prog))

    def test_hook_drives_rendezvous(self):
        """Sprinkled probes complete a rendezvous during 'compute'."""

        def prog(comm):
            peer = 1 - comm.rank
            big = np.zeros(512 * KIB, dtype=np.uint8)
            out = np.empty_like(big)
            hook = progress_hook(comm)
            r = comm.irecv(out, peer, tag=1)
            s = comm.isend(big, peer, tag=1)
            import time

            deadline = time.perf_counter() + 5.0
            while not (r.done and s.done):
                assert time.perf_counter() < deadline
                hook()  # the PROGRESS line of Listing 1
                time.sleep(1e-4)
            return True

        assert all(run_world(2, prog))


class TestThreadGroups:
    def test_make_thread_comms_distinct_contexts(self):
        def prog(comm):
            comms = make_thread_comms(comm, 3)
            return len({c.cid for c in comms})

        assert run_world(2, prog) == [3, 3]

    def test_runner_collects_results(self):
        def prog(comm):
            comms = make_thread_comms(comm, 4)

            def worker(tid, c):
                return tid * 10

            return ThreadGroupRunner(comms).run(worker)

        assert run_world_mt(2, prog)[0] == [0, 10, 20, 30]

    def test_runner_propagates_worker_error(self):
        def prog(comm):
            comms = make_thread_comms(comm, 2)

            def worker(tid, c):
                if tid == 1:
                    raise ValueError("worker boom")
                return tid

            with pytest.raises(RuntimeError):
                ThreadGroupRunner(comms).run(worker)
            return True

        assert all(run_world_mt(1, prog))

    def test_plain_comms_need_thread_multiple(self):
        def prog(comm):
            comms = [comm]
            with pytest.raises(ThreadLevelError):
                ThreadGroupRunner(comms).run(lambda tid, c: None)
            return True

        assert all(run_world(1, prog))

    def test_invalid_args(self):
        def prog(comm):
            with pytest.raises(ValueError):
                make_thread_comms(comm, 0)
            with pytest.raises(ValueError):
                ThreadGroupRunner([])
            return True

        assert all(run_world(1, prog))

    def test_groups_over_offload(self):
        """Concurrent thread-group traffic through one offload engine."""

        def prog(comm):
            with offloaded(comm) as oc:
                comms = make_thread_comms(oc, 3)
                peer = 1 - comm.rank

                def worker(tid, c):
                    buf = np.empty(1)
                    r = c.irecv(buf, peer, tag=tid)
                    c.isend(np.array([float(tid)]), peer, tag=tid)
                    r.wait(timeout=30)
                    return buf[0]

                return ThreadGroupRunner(comms).run(worker)

        res = run_world_mt(2, prog)
        assert res[0] == [0.0, 1.0, 2.0]


class TestInterpose:
    def test_unmodified_application(self):
        """An app written for the plain API runs unchanged offloaded."""

        def legacy_app(comm):
            # knows nothing about offload
            n = comm.size
            total = comm.allreduce(np.array([float(comm.rank)]))
            buf = np.empty(1)
            comm.sendrecv(
                np.array([1.0]), (comm.rank + 1) % n, buf, (comm.rank - 1) % n
            )
            return total[0] + buf[0]

        def prog(comm):
            baseline = legacy_app(comm)
            with offloaded(comm) as oc:
                offl = legacy_app(oc)
            return baseline == offl

        assert all(run_world_mt(3, prog))

    def test_interpose_rank_check(self):
        def prog(comm):
            pool = EnginePool(comm).start()
            try:
                other = comm.world.comm_world((comm.rank + 1) % comm.size)
                with pytest.raises(ValueError):
                    interpose(other, pool)
            finally:
                pool.stop()
            return True

        assert all(run_world_mt(2, prog))
