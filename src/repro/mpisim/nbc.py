"""Schedule-based nonblocking collectives (MPI-3 ``MPI_I...``).

Each nonblocking collective compiles, at call time, into a per-rank
*schedule*: a list of rounds, where a round posts some point-to-point
requests and, once they all complete, runs a finalize step (e.g. a
local reduction) before the next round is posted.

The schedule advances only when the owning rank's progress engine is
pumped — by ``test``/``wait`` on the request, by any other MPI call, or
by the offload thread's idle ``Testany`` loop.  That last case is what
Figure 3 of the paper measures: with a dedicated progress thread, NBC
schedules advance *during application compute*, yielding near-total
overlap; without one they advance only inside ``MPI_Wait``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.mpisim.communicator import Communicator
from repro.mpisim.reduce_ops import ReduceOp, SUM
from repro.mpisim.requests import Request
from repro.mpisim.status import EMPTY_STATUS

#: A round: ``post()`` returns the round's sub-requests; ``finish()``
#: runs after they all complete (may be ``None``).
Round = tuple[Callable[[], list[Request]], Callable[[], None] | None]


class NBCRequest(Request):
    """Request handle driving a compiled collective schedule."""

    __slots__ = ("_rounds", "_round_idx", "_current", "_finish")

    def __init__(self, comm: Communicator, rounds: list[Round]) -> None:
        super().__init__(comm.engine)
        self._rounds = rounds
        self._round_idx = 0
        self._current: list[Request] | None = None
        self._finish: Callable[[], None] | None = None
        # Kick the schedule so round 0 is posted immediately (matching
        # MPI semantics: the collective starts at the I-call).  A post
        # that raises (a dead peer, a revoked communicator) raises
        # here, with nothing registered for progress to re-post.
        self._advance()
        if not self.done:
            comm.engine.register_nbc(self)

    def _advance(self) -> None:
        """Advance as many rounds as are currently completable.

        Guarded by the owning engine's library lock: with concurrent
        progress contexts (e.g. a multi-thread offload engine group),
        two threads must never both observe a round as "unposted" and
        post it twice — that would duplicate the round's messages and
        corrupt the reduction.  Checks sub-request ``done`` flags
        directly to avoid re-entering progress.
        """
        self.engine._acquire()
        try:
            self._advance_locked()
        finally:
            self.engine._release()

    def _advance_locked(self) -> None:
        if self.done:
            return
        while True:
            if self._current is None:
                if self._round_idx >= len(self._rounds):
                    self._complete(EMPTY_STATUS)
                    return
                post, finish = self._rounds[self._round_idx]
                self._current = post()
                self._finish = finish
            for r in self._current:
                if r.error is not None:
                    # the sub-operation's own typed error (RankDeadError,
                    # CommRevokedError, ...), as a blocking caller of
                    # the point-to-point schedule would have seen it
                    raise r.error
            if not all(r.done for r in self._current):
                return
            if self._finish is not None:
                self._finish()
            self._current = None
            self._finish = None
            self._round_idx += 1


def ibarrier(comm: Communicator) -> NBCRequest:
    """Nonblocking dissemination barrier."""
    tag = comm.next_coll_tag()
    size, rank = comm.size, comm.rank
    ctx = comm.ctx_coll
    token = np.zeros(1, dtype=np.uint8)
    rounds: list[Round] = []
    dist = 1
    while dist < size:
        dst = (rank + dist) % size
        src = (rank - dist) % size
        sink = np.zeros(1, dtype=np.uint8)

        def post(dst=dst, src=src, sink=sink) -> list[Request]:
            return [
                comm._irecv_internal(sink, src, tag, ctx),
                comm._isend_internal(token, dst, tag, ctx),
            ]

        rounds.append((post, None))
        dist <<= 1
    return NBCRequest(comm, rounds)


def ibcast(
    comm: Communicator, buf: np.ndarray, root: int = 0
) -> NBCRequest:
    """Nonblocking binomial broadcast."""
    tag = comm.next_coll_tag()
    size, rank = comm.size, comm.rank
    ctx = comm.ctx_coll
    vrank = (rank - root) % size
    rounds: list[Round] = []

    recv_bit = 0
    mask = 1
    while mask < size:
        if vrank & mask:
            recv_bit = mask
            break
        mask <<= 1

    if recv_bit:
        parent = ((vrank - recv_bit) + root) % size

        def post_recv() -> list[Request]:
            return [comm._irecv_internal(buf, parent, tag, ctx)]

        rounds.append((post_recv, None))
        child_mask = recv_bit >> 1
    else:
        child_mask = 1
        while child_mask < size:
            child_mask <<= 1
        child_mask >>= 1

    children = []
    m = child_mask
    while m > 0:
        if vrank + m < size:
            children.append(((vrank + m) + root) % size)
        m >>= 1

    if children:

        def post_sends() -> list[Request]:
            return [
                comm._isend_internal(buf, child, tag, ctx)
                for child in children
            ]

        rounds.append((post_sends, None))
    return NBCRequest(comm, rounds)


def iallreduce(
    comm: Communicator,
    sendbuf: np.ndarray,
    recvbuf: np.ndarray,
    op: ReduceOp = SUM,
) -> NBCRequest:
    """Nonblocking allreduce.

    Recursive doubling for power-of-two sizes; binomial reduce to rank 0
    followed by binomial broadcast otherwise.
    """
    size, rank = comm.size, comm.rank
    ctx = comm.ctx_coll
    if recvbuf is sendbuf:
        raise ValueError("iallreduce requires distinct send/recv buffers")
    np.copyto(recvbuf, sendbuf)
    if size == 1:
        tag = comm.next_coll_tag()  # keep tag sequence aligned
        return NBCRequest(comm, [])
    rounds: list[Round] = []
    if size & (size - 1) == 0:
        tag = comm.next_coll_tag()
        tmp = np.empty_like(sendbuf)
        mask = 1
        while mask < size:
            partner = rank ^ mask

            def post(partner=partner) -> list[Request]:
                return [
                    comm._irecv_internal(tmp, partner, tag, ctx),
                    comm._isend_internal(recvbuf, partner, tag, ctx),
                ]

            def finish() -> None:
                op(recvbuf, tmp, out=recvbuf)

            rounds.append((post, finish))
            mask <<= 1
        return NBCRequest(comm, rounds)
    # Non-power-of-two: reduce-to-0 rounds then bcast-from-0 rounds.
    rtag = comm.next_coll_tag()
    btag = comm.next_coll_tag()
    tmp = np.empty_like(sendbuf)
    vrank = rank
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = vrank - mask

            def post_send(parent=parent) -> list[Request]:
                return [comm._isend_internal(recvbuf, parent, rtag, ctx)]

            rounds.append((post_send, None))
            break
        child = vrank + mask
        if child < size:

            def post_recv(child=child) -> list[Request]:
                return [comm._irecv_internal(tmp, child, rtag, ctx)]

            def finish() -> None:
                op(recvbuf, tmp, out=recvbuf)

            rounds.append((post_recv, finish))
        mask <<= 1
    # Broadcast phase (root 0 binomial, same construction as ibcast).
    recv_bit = 0
    mask = 1
    while mask < size:
        if vrank & mask:
            recv_bit = mask
            break
        mask <<= 1
    if recv_bit:
        parent = vrank - recv_bit

        def post_brecv(parent=parent) -> list[Request]:
            return [comm._irecv_internal(recvbuf, parent, btag, ctx)]

        rounds.append((post_brecv, None))
        child_mask = recv_bit >> 1
    else:
        child_mask = 1
        while child_mask < size:
            child_mask <<= 1
        child_mask >>= 1
    children = []
    m = child_mask
    while m > 0:
        if vrank + m < size:
            children.append(vrank + m)
        m >>= 1
    if children:

        def post_bsends() -> list[Request]:
            return [
                comm._isend_internal(recvbuf, child, btag, ctx)
                for child in children
            ]

        rounds.append((post_bsends, None))
    return NBCRequest(comm, rounds)


def igather(
    comm: Communicator,
    sendbuf: np.ndarray,
    recvbuf: np.ndarray | None = None,
    root: int = 0,
) -> NBCRequest:
    """Nonblocking linear gather.

    At root, ``recvbuf`` must be preallocated with a leading ``size``
    axis (the request cannot return a fresh array).
    """
    tag = comm.next_coll_tag()
    size, rank = comm.size, comm.rank
    ctx = comm.ctx_coll
    if rank == root:
        if recvbuf is None:
            raise ValueError("igather at root requires a recvbuf")
        flat = recvbuf.reshape(size, -1)

        def post_root() -> list[Request]:
            flat[root] = sendbuf.reshape(-1)
            return [
                comm._irecv_internal(flat[r], r, tag, ctx)
                for r in range(size)
                if r != root
            ]

        return NBCRequest(comm, [(post_root, None)])

    def post_leaf() -> list[Request]:
        return [comm._isend_internal(sendbuf, root, tag, ctx)]

    return NBCRequest(comm, [(post_leaf, None)])


def ialltoall(
    comm: Communicator, sendbuf: np.ndarray, recvbuf: np.ndarray
) -> NBCRequest:
    """Nonblocking fully posted pairwise all-to-all exchange."""
    size, rank = comm.size, comm.rank
    if sendbuf.shape[0] != size:
        raise ValueError(
            f"sendbuf leading dimension {sendbuf.shape[0]} != size {size}"
        )
    tag = comm.next_coll_tag()
    ctx = comm.ctx_coll
    sflat = sendbuf.reshape(size, -1)
    rflat = recvbuf.reshape(size, -1)

    def post() -> list[Request]:
        rflat[rank] = sflat[rank]
        reqs: list[Request] = []
        for off in range(1, size):
            peer = (rank + off) % size
            reqs.append(comm._irecv_internal(rflat[peer], peer, tag, ctx))
        for off in range(1, size):
            peer = (rank - off) % size
            reqs.append(comm._isend_internal(sflat[peer], peer, tag, ctx))
        return reqs

    return NBCRequest(comm, [(post, None)])
