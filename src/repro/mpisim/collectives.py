"""Blocking collectives written over point-to-point.

The blocking collectives with a nonblocking form (barrier, bcast,
allreduce, gather, alltoall) are a wait on the schedules of
:mod:`repro.mpisim.nbc`, written once in
:class:`~repro.mpisim.communicator.CommunicatorBase`.  The rest are
here, each a function of the plain communicator that either
communicator runs through its ``_collective`` hook, with the textbook
algorithms production MPIs use at these scales:

* reduce — binomial tree;
* scatter — linear rooted exchange;
* allgather — ring;
* reduce_scatter — reduce + scatter;
* scan — linear chain;
* gatherv / scatterv / alltoallv — linear, variable counts.

Each checks its own arguments (a root outside the communicator raises
:class:`~repro.mpisim.exceptions.InvalidRankError`) before any traffic.
All traffic runs on the communicator's *collective* context with a
per-call sequence tag, so user point-to-point can never match it and
back-to-back collectives cannot cross-talk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.mpisim.reduce_ops import ReduceOp, SUM
from repro.mpisim.requests import waitall

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.communicator import Communicator


def _contig(arr: np.ndarray, name: str) -> np.ndarray:
    if not isinstance(arr, np.ndarray):
        raise TypeError(f"{name} must be a NumPy array")
    if not arr.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    return arr


def reduce(
    comm: Communicator,
    sendbuf: np.ndarray,
    recvbuf: np.ndarray | None = None,
    op: ReduceOp = SUM,
    root: int = 0,
) -> np.ndarray | None:
    """Binomial-tree reduction to ``root``.

    Returns the filled ``recvbuf`` at root, ``None`` elsewhere.
    """
    comm._check_rank(root)
    sendbuf = _contig(sendbuf, "sendbuf")
    tag = comm.next_coll_tag()
    size, rank = comm.size, comm.rank
    ctx = comm.ctx_coll
    vrank = (rank - root) % size
    acc = sendbuf.copy()
    tmp = np.empty_like(sendbuf)
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank - mask) + root) % size
            comm._isend_internal(acc, parent, tag, ctx).wait()
            break
        child_v = vrank + mask
        if child_v < size:
            child = (child_v + root) % size
            comm._irecv_internal(tmp, child, tag, ctx).wait()
            op(acc, tmp, out=acc)
        mask <<= 1
    if rank == root:
        if recvbuf is None:
            recvbuf = np.empty_like(sendbuf)
        np.copyto(recvbuf, acc)
        return recvbuf
    return None


def scatter(
    comm: Communicator,
    sendbuf: np.ndarray | None,
    recvbuf: np.ndarray,
    root: int = 0,
) -> np.ndarray:
    """Linear scatter: rank ``i`` receives ``sendbuf[i]`` from root."""
    comm._check_rank(root)
    recvbuf = _contig(recvbuf, "recvbuf")
    tag = comm.next_coll_tag()
    size, rank = comm.size, comm.rank
    ctx = comm.ctx_coll
    if rank == root:
        if sendbuf is None:
            raise ValueError("root must supply sendbuf")
        sendbuf = _contig(sendbuf, "sendbuf")
        if sendbuf.shape[0] != size:
            raise ValueError(
                f"sendbuf leading dimension {sendbuf.shape[0]} != size {size}"
            )
        flat = sendbuf.reshape(size, -1)
        reqs = []
        for r in range(size):
            if r == root:
                recvbuf.reshape(-1)[:] = flat[r]
            else:
                reqs.append(comm._isend_internal(flat[r], r, tag, ctx))
        waitall(reqs)
    else:
        comm._irecv_internal(recvbuf, root, tag, ctx).wait()
    return recvbuf


def allgather(
    comm: Communicator,
    sendbuf: np.ndarray,
    recvbuf: np.ndarray | None = None,
) -> np.ndarray:
    """Ring allgather: ``size - 1`` steps, each forwarding one block."""
    sendbuf = _contig(sendbuf, "sendbuf")
    tag = comm.next_coll_tag()
    size, rank = comm.size, comm.rank
    if recvbuf is None:
        recvbuf = np.empty((size,) + sendbuf.shape, dtype=sendbuf.dtype)
    recvbuf = _contig(recvbuf, "recvbuf")
    flat = recvbuf.reshape(size, -1)
    flat[rank] = sendbuf.reshape(-1)
    if size == 1:
        return recvbuf
    right = (rank + 1) % size
    left = (rank - 1) % size
    ctx = comm.ctx_coll
    for step in range(1, size):
        send_idx = (rank - step + 1) % size
        recv_idx = (rank - step) % size
        rreq = comm._irecv_internal(flat[recv_idx], left, tag, ctx)
        sreq = comm._isend_internal(flat[send_idx], right, tag, ctx)
        waitall([sreq, rreq])
    return recvbuf


def reduce_scatter(
    comm: Communicator,
    sendbuf: np.ndarray,
    recvbuf: np.ndarray | None = None,
    op: ReduceOp = SUM,
) -> np.ndarray:
    """Equal-block reduce-scatter (reduce to rank 0, then scatter)."""
    sendbuf = _contig(sendbuf, "sendbuf")
    size, rank = comm.size, comm.rank
    if sendbuf.shape[0] != size:
        raise ValueError(
            f"sendbuf leading dimension {sendbuf.shape[0]} != size {size}"
        )
    if recvbuf is None:
        recvbuf = np.empty(sendbuf.shape[1:], dtype=sendbuf.dtype)
    total = reduce(comm, sendbuf, None, op, 0)
    scatter(comm, total if rank == 0 else None, recvbuf, 0)
    return recvbuf


def scan(
    comm: Communicator,
    sendbuf: np.ndarray,
    recvbuf: np.ndarray | None = None,
    op: ReduceOp = SUM,
) -> np.ndarray:
    """Inclusive prefix reduction along rank order (linear chain)."""
    sendbuf = _contig(sendbuf, "sendbuf")
    tag = comm.next_coll_tag()
    size, rank = comm.size, comm.rank
    ctx = comm.ctx_coll
    if recvbuf is None:
        recvbuf = np.empty_like(sendbuf)
    recvbuf = _contig(recvbuf, "recvbuf")
    if rank == 0:
        np.copyto(recvbuf, sendbuf)
    else:
        prev = np.empty_like(sendbuf)
        comm._irecv_internal(prev, rank - 1, tag, ctx).wait()
        op(prev, sendbuf, out=recvbuf)
    if rank + 1 < size:
        comm._isend_internal(recvbuf, rank + 1, tag, ctx).wait()
    return recvbuf


def _check_counts(counts, size: int, name: str) -> list[int]:
    counts = [int(c) for c in counts]
    if len(counts) != size:
        raise ValueError(f"{name} must have one entry per rank")
    if any(c < 0 for c in counts):
        raise ValueError(f"{name} entries must be nonnegative")
    return counts


def gatherv(
    comm: Communicator,
    sendbuf: np.ndarray,
    recvcounts,
    recvbuf: np.ndarray | None = None,
    root: int = 0,
) -> np.ndarray | None:
    """Variable-count gather (``MPI_Gatherv``), flat 1-D buffers.

    ``recvcounts[i]`` elements arrive from rank ``i``; at root they are
    packed contiguously in rank order.
    """
    comm._check_rank(root)
    sendbuf = _contig(np.asarray(sendbuf).reshape(-1), "sendbuf")
    tag = comm.next_coll_tag()
    size, rank = comm.size, comm.rank
    ctx = comm.ctx_coll
    counts = _check_counts(recvcounts, size, "recvcounts")
    if sendbuf.size != counts[rank]:
        raise ValueError(
            f"rank {rank} sends {sendbuf.size} elements but recvcounts "
            f"says {counts[rank]}"
        )
    if rank == root:
        total = sum(counts)
        if recvbuf is None:
            recvbuf = np.empty(total, dtype=sendbuf.dtype)
        recvbuf = _contig(recvbuf.reshape(-1), "recvbuf")
        if recvbuf.size != total:
            raise ValueError(
                f"recvbuf holds {recvbuf.size} elements, need {total}"
            )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        reqs = []
        for r in range(size):
            dest = recvbuf[offsets[r] : offsets[r + 1]]
            if r == root:
                dest[:] = sendbuf
            elif counts[r]:
                reqs.append(comm._irecv_internal(dest, r, tag, ctx))
        waitall(reqs)
        return recvbuf
    if counts[rank]:
        comm._isend_internal(sendbuf, root, tag, ctx).wait()
    return None


def scatterv(
    comm: Communicator,
    sendbuf: np.ndarray | None,
    sendcounts,
    recvbuf: np.ndarray,
    root: int = 0,
) -> np.ndarray:
    """Variable-count scatter (``MPI_Scatterv``), flat 1-D buffers."""
    comm._check_rank(root)
    recvbuf = _contig(recvbuf.reshape(-1), "recvbuf")
    tag = comm.next_coll_tag()
    size, rank = comm.size, comm.rank
    ctx = comm.ctx_coll
    counts = _check_counts(sendcounts, size, "sendcounts")
    if recvbuf.size != counts[rank]:
        raise ValueError(
            f"rank {rank} expects {counts[rank]} elements but recvbuf "
            f"holds {recvbuf.size}"
        )
    if rank == root:
        if sendbuf is None:
            raise ValueError("root must supply sendbuf")
        sendbuf = _contig(np.asarray(sendbuf).reshape(-1), "sendbuf")
        total = sum(counts)
        if sendbuf.size != total:
            raise ValueError(
                f"sendbuf holds {sendbuf.size} elements, need {total}"
            )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        reqs = []
        for r in range(size):
            block = sendbuf[offsets[r] : offsets[r + 1]]
            if r == root:
                recvbuf[:] = block
            elif counts[r]:
                reqs.append(comm._isend_internal(block, r, tag, ctx))
        waitall(reqs)
    elif counts[rank]:
        comm._irecv_internal(recvbuf, root, tag, ctx).wait()
    return recvbuf


def alltoallv(
    comm: Communicator,
    sendbuf: np.ndarray,
    sendcounts,
    recvbuf: np.ndarray,
    recvcounts,
) -> np.ndarray:
    """Variable-count all-to-all (``MPI_Alltoallv``), flat 1-D buffers.

    ``sendcounts[r]`` elements go to rank ``r`` (packed contiguously in
    rank order in ``sendbuf``); ``recvcounts[r]`` arrive from rank
    ``r`` (packed likewise in ``recvbuf``).  Callers must supply
    consistent counts: ``sendcounts[q]`` on rank ``p`` must equal
    ``recvcounts[p]`` on rank ``q``.
    """
    sendbuf = _contig(np.asarray(sendbuf).reshape(-1), "sendbuf")
    recvbuf = _contig(recvbuf.reshape(-1), "recvbuf")
    tag = comm.next_coll_tag()
    size, rank = comm.size, comm.rank
    ctx = comm.ctx_coll
    scounts = _check_counts(sendcounts, size, "sendcounts")
    rcounts = _check_counts(recvcounts, size, "recvcounts")
    if sendbuf.size != sum(scounts):
        raise ValueError(
            f"sendbuf holds {sendbuf.size} elements, counts say "
            f"{sum(scounts)}"
        )
    if recvbuf.size != sum(rcounts):
        raise ValueError(
            f"recvbuf holds {recvbuf.size} elements, counts say "
            f"{sum(rcounts)}"
        )
    soff = np.concatenate(([0], np.cumsum(scounts)))
    roff = np.concatenate(([0], np.cumsum(rcounts)))
    recvbuf[roff[rank] : roff[rank + 1]] = sendbuf[
        soff[rank] : soff[rank + 1]
    ]
    reqs = []
    for off in range(1, size):
        peer = (rank + off) % size
        if rcounts[peer]:
            reqs.append(
                comm._irecv_internal(
                    recvbuf[roff[peer] : roff[peer + 1]], peer, tag, ctx
                )
            )
    for off in range(1, size):
        peer = (rank - off) % size
        if scounts[peer]:
            reqs.append(
                comm._isend_internal(
                    sendbuf[soff[peer] : soff[peer + 1]], peer, tag, ctx
                )
            )
    waitall(reqs)
    return recvbuf
