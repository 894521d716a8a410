"""Split rendezvous (DESIGN.md §23).

When the sender has a backlog (two or more rendezvous sends not yet
terminal), the receiver delivers the CTS, then copies the tail half of
the payload itself; the sender copies the head half when it handles the
CTS, and whichever party finishes second completes both requests.  A
lone transfer keeps the one-copy protocol.  ``rendezvous_splits``
counts splits on the receiving rank.
"""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.mpisim import World
from repro.mpisim.constants import THREAD_MULTIPLE
from repro.mpisim.exceptions import RankDeadError, TruncationError
from repro.mpisim.requests import RecvRequest, SendRequest
from repro.mpisim.status import EMPTY_STATUS

from tests.conftest import run_world, run_world_mt

N = 300_001  # above the 128 KiB eager threshold, odd: unequal halves


def _payload(i: int) -> np.ndarray:
    return np.random.default_rng(i).integers(0, 256, N, dtype=np.uint8)


@pytest.fixture
def completions(monkeypatch):
    """How often each request was completed or failed."""
    seen: Counter = Counter()
    for cls in (SendRequest, RecvRequest):
        orig = cls._complete

        def counted(self, status, _orig=orig):
            seen[id(self)] += 1
            _orig(self, status)

        monkeypatch.setattr(cls, "_complete", counted)
    return seen


def _world():
    """Two ranks driven from this thread: the test places every pump."""
    world = World(2, THREAD_MULTIPLE)
    return world, world.comm_world(0), world.comm_world(1)


def test_a_backlog_splits_every_transfer_and_moves_every_byte(completions):
    world, c0, c1 = _world()
    sends = [c0.isend(_payload(i), 1, tag=i) for i in range(3)]
    wide = np.full(N + 13, 0xAB, dtype=np.uint8)
    floats = np.full(-(-N // 8) + 1, -1.0)
    exact = np.zeros(N, dtype=np.uint8)
    bufs = [wide, floats, exact]
    # rank 0 has not pumped: all three sends are outstanding at match
    recvs = [c1.irecv(b, 0, tag=i) for i, b in enumerate(bufs)]
    assert c1.engine.counters()["rendezvous_splits"] == 3
    assert not any(r.done for r in (*sends, *recvs))  # heads not moved
    for s in sends:
        s.wait(timeout=10)
    assert [r.wait(timeout=10).count for r in recvs] == [N, N, N]
    got = [b.reshape(-1).view(np.uint8) for b in bufs]
    for i, g in enumerate(got):
        assert (g[:N] == _payload(i)).all()
    assert (wide[N:] == 0xAB).all()
    assert (got[1][N:] == np.full_like(floats, -1.0).view(np.uint8)[N:]).all()
    assert all(completions[id(r)] == 1 for r in (*sends, *recvs))
    assert not c0.engine.rndv_pending


def test_a_threaded_backlog_moves_every_byte():
    def prog(comm):
        if comm.rank == 0:
            reqs = [comm.isend(_payload(i), 1, tag=i) for i in range(3)]
            comm.barrier()
            for r in reqs:
                r.wait()
            return None
        comm.barrier()
        bufs = [np.zeros(N, dtype=np.uint8) for _ in range(3)]
        reqs = [comm.irecv(b, 0, tag=i) for i, b in enumerate(bufs)]
        counts = [r.wait().count for r in reqs]
        same = [(b == _payload(i)).all() for i, b in enumerate(bufs)]
        # how many split depends on when rank 0 pumps: at least the first
        return counts, same, comm.engine.counters()["rendezvous_splits"]

    counts, same, splits = run_world(2, prog)[1]
    assert counts == [N, N, N]
    assert all(same)
    assert splits >= 1


def test_a_lone_send_keeps_the_one_copy_protocol():
    def prog(comm):
        if comm.rank == 0:
            comm.send(_payload(0), 1, tag=1)
            return None
        buf = np.zeros(N, dtype=np.uint8)
        comm.recv(buf, 0, tag=1)
        ok = (buf == _payload(0)).all()
        return ok, comm.engine.counters()["rendezvous_splits"]

    assert run_world(2, prog)[1] == (True, 0)


def test_truncation_inside_a_backlog_fails_both_and_writes_nothing(
    completions,
):
    world, c0, c1 = _world()
    sends = [c0.isend(_payload(i), 1, tag=i) for i in range(2)]
    short = np.full(N - 1, 0x5A, dtype=np.uint8)
    bad = c1.irecv(short, 0, tag=0)
    good_buf = np.zeros(N, dtype=np.uint8)
    good = c1.irecv(good_buf, 0, tag=1)
    assert isinstance(bad.error, TruncationError)
    assert isinstance(sends[0].error, TruncationError)
    assert (short == 0x5A).all()
    # the failed send left the backlog: the other transfer is alone
    assert c1.engine.counters()["rendezvous_splits"] == 0
    sends[1].wait(timeout=10)
    assert good.wait(timeout=10).count == N
    assert (good_buf == _payload(1)).all()
    assert all(completions[id(r)] == 1 for r in (*sends, bad, good))


def test_a_sender_dead_with_a_split_cts_in_its_inbox(completions):
    world, c0, c1 = _world()
    sends = [c0.isend(_payload(i), 1, tag=i) for i in range(2)]
    bufs = [np.zeros(N, dtype=np.uint8) for _ in range(2)]
    recvs = [c1.irecv(b, 0, tag=i) for i, b in enumerate(bufs)]
    # the receiver moved its halves; the heads wait in rank 0's inbox
    assert c1.engine.counters()["rendezvous_splits"] == 2
    assert not any(r.done for r in (*sends, *recvs))
    world.mark_rank_dead(0, RuntimeError("injected"))
    for r in recvs:
        assert isinstance(r.error, RankDeadError)
        assert r.status is EMPTY_STATUS
    errors = [r.error for r in recvs]
    c0.engine.progress()
    c1.engine.progress()
    assert [r.error for r in recvs] == errors
    assert all(completions[id(r)] == 1 for r in (*sends, *recvs))
    assert not c0.engine.rndv_pending


def test_threads_racing_splits_complete_each_request_once(completions):
    """Three threads a rank (more threads than cores), every send in a
    backlog: the countdown must let exactly one party complete each
    transfer, whichever thread copies second."""
    threads, per, n = 3, 4, 200_001

    def payload(t: int, k: int) -> np.ndarray:
        return np.full(n, 17 * t + k, dtype=np.uint8)

    def prog(comm):
        out = {}

        def work(t: int) -> None:
            tags = [10 * t + k for k in range(per)]
            if comm.rank == 0:
                reqs = [
                    comm.isend(payload(t, k), 1, tag)
                    for k, tag in enumerate(tags)
                ]
                for r in reqs:
                    r.wait(timeout=30)
                out[t] = reqs
                return
            bufs = [np.zeros(n, dtype=np.uint8) for _ in tags]
            reqs = [comm.irecv(b, 0, tag) for b, tag in zip(bufs, tags)]
            counts = [r.wait(timeout=30).count for r in reqs]
            same = all((b == payload(t, k)).all() for k, b in enumerate(bufs))
            out[t] = (reqs, counts, same)

        pool = [
            threading.Thread(target=work, args=(t,)) for t in range(threads)
        ]
        for th in pool:
            th.start()
        for th in pool:
            th.join(60)
        assert not any(th.is_alive() for th in pool)
        return out, comm.engine.counters()["rendezvous_splits"]

    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        (sent, _), (got, splits) = run_world_mt(2, prog, timeout=90)
    finally:
        sys.setswitchinterval(prev)
    assert splits > 0
    for t in range(threads):
        reqs, counts, same = got[t]
        assert counts == [n] * per and same
        assert all(completions[id(r)] == 1 for r in (*sent[t], *reqs))
