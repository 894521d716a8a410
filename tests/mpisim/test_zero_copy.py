"""The zero-copy data plane (DESIGN.md §14).

Eager sends under ``zero_copy=True`` borrow the user buffer and pay
exactly one copy — directly into the receiver's posted buffer at match
time.  These tests pin the copy-count invariants (``payload_copies``,
``payload_zero_copy_hits``), the deferred-completion protocol that
makes borrowing sound, and the failure paths (truncation, dead ranks).
"""

import numpy as np
import pytest

from repro.mpisim import World
from repro.mpisim.constants import THREAD_MULTIPLE
from repro.mpisim.envelope import BufferRef
from repro.mpisim.exceptions import TruncationError
from repro.mpisim.progress import ProgressEngine

from tests.conftest import run_world_mt


def make_pair(eager_threshold=128 * 1024, zero_copy=True):
    """Two engines wired back-to-back without a World."""
    engines = []

    def deliver(dst, env):
        engines[dst].inject(env)

    engines.append(
        ProgressEngine(0, deliver, eager_threshold, zero_copy=zero_copy)
    )
    engines.append(
        ProgressEngine(1, deliver, eager_threshold, zero_copy=zero_copy)
    )
    return engines


class TestBufferRef:
    def test_borrow_shares_memory(self):
        a = np.arange(8, dtype=np.float64)
        ref = BufferRef.borrow(a)
        assert not ref.owned
        assert ref.nbytes == a.nbytes
        assert np.shares_memory(ref.view, a)

    def test_own_copies(self):
        a = np.arange(8, dtype=np.float64)
        ref = BufferRef.own(a)
        assert ref.owned
        assert not np.shares_memory(ref.view, a)

    def test_materialize_detaches_borrowed(self):
        a = np.arange(4, dtype=np.int32)
        ref = BufferRef.borrow(a)
        owned = ref.materialize()
        assert owned.owned and not np.shares_memory(owned.view, a)
        a[:] = -1
        np.testing.assert_array_equal(
            owned.as_array(), np.arange(4, dtype=np.int32)
        )

    def test_materialize_of_owned_is_identity(self):
        ref = BufferRef.own(np.arange(4, dtype=np.int32))
        assert ref.materialize() is ref

    def test_as_array_roundtrips_dtype_and_shape(self):
        a = (np.arange(6, dtype=np.complex128) + 1j).reshape(2, 3)
        ref = BufferRef.borrow(a)
        np.testing.assert_array_equal(ref.as_array(), a)


class TestPostedReceiveHappyPath:
    def test_single_copy_straight_into_posted_buffer(self):
        """THE acceptance invariant: a posted receive means zero
        intermediate copies — the data moves exactly once."""
        e0, e1 = make_pair()
        buf = np.zeros(64, dtype=np.uint8)
        rreq = e1.post_recv(buf, source=0, tag=3, context_id=0)
        sreq = e0.post_send(
            np.arange(64, dtype=np.uint8), dst=1, tag=3, context_id=0
        )
        e1.progress()
        assert rreq.done and sreq.done
        np.testing.assert_array_equal(buf, np.arange(64, dtype=np.uint8))
        assert e0.payload_copies == 0
        assert e1.payload_copies == 0
        assert e1.payload_zero_copy_hits == 1

    def test_unexpected_arrival_defers_the_single_copy(self):
        """No posted receive yet: the envelope parks in the UMQ still
        borrowing the sender's buffer; the one copy runs at match."""
        e0, e1 = make_pair()
        payload = np.arange(32, dtype=np.uint8)
        sreq = e0.post_send(payload, dst=1, tag=7, context_id=0)
        assert not sreq.done  # completion deferred to the match
        buf = np.zeros(32, dtype=np.uint8)
        rreq = e1.post_recv(buf, source=0, tag=7, context_id=0)
        assert rreq.done and sreq.done
        np.testing.assert_array_equal(buf, payload)
        assert e0.payload_copies + e1.payload_copies == 0
        assert e1.payload_zero_copy_hits == 1

    def test_sender_reuse_after_completion_is_safe(self):
        """The MPI contract the deferred completion protects: once the
        send request reports done, scribbling the buffer cannot be
        observed by the receiver (the eager-deferred-copy DST race)."""
        e0, e1 = make_pair()
        payload = np.arange(16, dtype=np.uint8)
        sreq = e0.post_send(payload, dst=1, tag=1, context_id=0)
        buf = np.zeros(16, dtype=np.uint8)
        e1.post_recv(buf, source=0, tag=1, context_id=0)
        assert sreq.done
        payload[:] = 0xEE
        np.testing.assert_array_equal(buf, np.arange(16, dtype=np.uint8))

    def test_unsafe_hook_reopens_the_race(self):
        """The DST harness's pre-fix engine (completion at post) breaks
        the contract the tests above pin."""
        from repro.dst.targets import _CompleteAtPostEngine

        e0, e1 = make_pair()
        e0.__class__ = _CompleteAtPostEngine
        payload = np.arange(16, dtype=np.uint8)
        sreq = e0.post_send(payload, dst=1, tag=1, context_id=0)
        assert sreq.done  # the bug: complete while still borrowed
        payload[:] = 0xEE
        buf = np.zeros(16, dtype=np.uint8)
        e1.post_recv(buf, source=0, tag=1, context_id=0)
        assert (buf == 0xEE).all()  # receiver saw the scribble


class TestClassicPathUnchanged:
    def test_copy_at_post_still_counts_one_copy(self):
        e0, e1 = make_pair(zero_copy=False)
        payload = np.arange(16, dtype=np.uint8)
        sreq = e0.post_send(payload, dst=1, tag=3, context_id=0)
        assert sreq.done  # classic eager: buffered, completes at post
        payload[:] = 0xEE  # reuse is safe because of the eager copy
        buf = np.zeros(16, dtype=np.uint8)
        e1.post_recv(buf, source=0, tag=3, context_id=0)
        np.testing.assert_array_equal(buf, np.arange(16, dtype=np.uint8))
        assert e0.payload_copies == 1
        assert e1.payload_zero_copy_hits == 0

    def test_world_default_is_classic(self):
        w = World(2)
        assert not w.engines[0].zero_copy


class TestTruncation:
    def test_truncation_fails_recv_but_completes_send(self):
        """An undersized posted buffer is the receiver's error; the
        sender's buffer was still consumed (MPI_ERR_TRUNCATE lands on
        the receive side only)."""
        e0, e1 = make_pair()
        sreq = e0.post_send(
            np.arange(32, dtype=np.uint8), dst=1, tag=5, context_id=0
        )
        buf = np.zeros(8, dtype=np.uint8)
        rreq = e1.post_recv(buf, source=0, tag=5, context_id=0)
        with pytest.raises(TruncationError):
            rreq.wait(timeout=5)
        assert sreq.done and sreq.error is None


class TestDeadRank:
    def test_pending_zero_copy_send_fails_when_receiver_dies(self):
        """A zero-copy eager send parked in a dead rank's UMQ must not
        hang the sender: death fails its live send request."""
        from repro.mpisim.exceptions import RankDeadError

        w = World(2, THREAD_MULTIPLE, zero_copy=True)
        e0, e1 = w.engines
        sreq = e0.post_send(
            np.arange(16, dtype=np.uint8), dst=1, tag=3, context_id=0
        )
        assert not sreq.done
        w.mark_rank_dead(1, RuntimeError("injected"))
        with pytest.raises(RankDeadError):
            sreq.wait(timeout=5)


class TestWorldEndToEnd:
    def test_ping_pong_zero_copies_with_posted_receives(self):
        def prog(comm):
            n = 4096
            if comm.rank == 0:
                data = np.arange(n, dtype=np.float64)
                comm.send(data, 1, tag=9)
                return 0.0
            buf = np.empty(n, dtype=np.float64)
            rreq = comm.irecv(buf, 0, tag=9)
            rreq.wait(timeout=30)
            return float(buf.sum())

        res = run_world_mt(2, prog, zero_copy=True)
        assert res[1] == float(np.arange(4096, dtype=np.float64).sum())

    def test_world_totals_count_hits_not_copies(self):
        w = World(2, THREAD_MULTIPLE, zero_copy=True)

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(128, dtype=np.uint8), 1)
            else:
                buf = np.empty(128, dtype=np.uint8)
                comm.recv(buf, 0)

        w.run(prog, timeout=30)
        assert w.total_payload_copies() == 0
        assert w.total_payload_zero_copy_hits() == 1


class TestRMAZeroCopy:
    def test_put_borrows_contiguous_origin(self):
        def prog(comm):
            mem = np.zeros(8, dtype=np.int64)
            win = comm.win_create(mem)
            if comm.rank == 1:
                win.put(np.arange(8, dtype=np.int64), 0)
            win.fence()
            ok = comm.rank != 0 or (mem == np.arange(8)).all()
            win.free()
            return ok

        w = World(2, THREAD_MULTIPLE, zero_copy=True)
        assert all(w.run(prog, timeout=30))
        assert w.total_payload_copies() == 0
        assert w.engines[0].payload_zero_copy_hits >= 1

    def test_put_of_strided_origin_packs_once(self):
        def prog(comm):
            mem = np.zeros(4, dtype=np.int64)
            win = comm.win_create(mem)
            if comm.rank == 1:
                wide = np.arange(8, dtype=np.int64)
                win.put(wide[::2], 0)  # non-contiguous origin
            win.fence()
            ok = comm.rank != 0 or (mem == [0, 2, 4, 6]).all()
            win.free()
            return ok

        w = World(2, THREAD_MULTIPLE, zero_copy=True)
        assert all(w.run(prog, timeout=30))
        assert w.total_payload_copies() == 1  # the pack, nothing else
