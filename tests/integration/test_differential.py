"""Differential testing: offload must be observationally equivalent.

Hypothesis generates arbitrary sequences of MPI operations; each
sequence runs once over the plain communicator and once through the
offload engine.  Every user-visible result must match exactly — the
strongest form of the paper's "no modification to the application"
claim.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import offloaded
from repro.mpisim import MAX, SUM, THREAD_MULTIPLE, World
from repro.util.rng import seeded_rng

NRANKS = 3

OPS = (
    "ring_small",
    "ring_big",
    "allreduce",
    "bcast",
    "gather",
    "alltoall",
    "barrier",
    "scan",
    "iallreduce",
    "sendrecv_obj",
    "bcast_obj",
    "probe",
    "reduce",
    "scatter",
    "allgather",
    "reduce_scatter",
    "gatherv",
    "scatterv",
    "alltoallv",
    "persistent",
)


def _run_sequence(comm, ops: list[str], seed: int) -> list:
    """Execute the op sequence; returns a list of comparable results."""
    n = comm.size
    rank = comm.rank
    right, left = (rank + 1) % n, (rank - 1) % n
    rng = seeded_rng("diff", seed, rank)
    out: list = []
    for i, op in enumerate(ops):
        if op == "ring_small":
            send = rng.standard_normal(4)
            recv = np.empty(4)
            comm.sendrecv(send, right, recv, left, sendtag=i)
            out.append(recv.copy())
        elif op == "ring_big":
            send = np.full(200_000, float(rank), dtype=np.float64)
            recv = np.empty_like(send)  # 1.6 MB: rendezvous
            comm.sendrecv(send, right, recv, left, sendtag=i)
            out.append(recv[::50_000].copy())
        elif op == "allreduce":
            out.append(comm.allreduce(rng.standard_normal(3)).copy())
        elif op == "bcast":
            buf = (
                rng.standard_normal(3)
                if rank == i % n
                else np.zeros(3)
            )
            comm.bcast(buf, root=i % n)
            out.append(buf.copy())
        elif op == "gather":
            g = comm.gather(np.array([float(rank + i)]), root=0)
            out.append(None if g is None else g.copy())
        elif op == "alltoall":
            a = comm.alltoall(
                np.arange(n * 2, dtype=np.float64).reshape(n, 2)
                * (rank + 1)
            )
            out.append(a.copy())
        elif op == "barrier":
            comm.barrier()
            out.append("barrier")
        elif op == "scan":
            out.append(comm.scan(np.array([float(rank)]), op=MAX).copy())
        elif op == "iallreduce":
            res = np.empty(2)
            comm.iallreduce(rng.standard_normal(2), res, op=SUM).wait(
                timeout=60
            )
            out.append(res.copy())
        elif op == "sendrecv_obj":
            comm.isend_obj({"r": rank, "i": i}, right, tag=100 + i)
            got = comm.recv_obj(source=left, tag=100 + i, timeout=60)
            out.append(got)
        elif op == "bcast_obj":
            obj = {"i": i, "r": rank} if rank == i % n else None
            out.append(comm.bcast_obj(obj, root=i % n))
        elif op == "probe":
            send = np.full((rank + i) % 3 + 1, float(i))
            req = comm.isend(send, right, 200 + i)
            st = comm.probe(source=left, tag=200 + i, timeout=60)
            buf = np.empty(st.count // 8)
            comm.recv(buf, st.source, st.tag)
            req.wait()
            out.append((st.source, st.tag, st.count, buf.tolist()))
        elif op == "reduce":
            r = comm.reduce(rng.standard_normal(3), root=i % n)
            out.append(None if r is None else r.copy())
        elif op == "scatter":
            root = i % n
            send = (
                np.arange(n * 2, dtype=np.float64).reshape(n, 2) + i
                if rank == root
                else None
            )
            recv = np.empty(2)
            comm.scatter(send, recv, root=root)
            out.append(recv.copy())
        elif op == "allgather":
            g = comm.allgather(np.array([float(rank), float(i)]))
            out.append(g.copy())
        elif op == "reduce_scatter":
            send = np.arange(n * 2.0).reshape(n, 2) * (rank + 1)
            out.append(comm.reduce_scatter(send).copy())
        elif op == "gatherv":
            counts = [r + 1 for r in range(n)]
            send = np.full(rank + 1, float(rank + i))
            g = comm.gatherv(send, counts, root=0)
            out.append(None if g is None else g.copy())
        elif op == "scatterv":
            root = i % n
            counts = [r + 1 for r in range(n)]
            send = (
                np.arange(sum(counts), dtype=np.float64) + i
                if rank == root
                else None
            )
            recv = np.empty(rank + 1)
            comm.scatterv(send, counts, recv, root=root)
            out.append(recv.copy())
        elif op == "alltoallv":
            # rank p sends (p + q) % 2 + 1 elements to rank q: symmetric,
            # so each rank's receive counts equal its send counts
            counts = [(rank + r) % 2 + 1 for r in range(n)]
            send = np.arange(sum(counts), dtype=np.float64) + 10 * rank + i
            recv = np.empty(sum(counts))
            comm.alltoallv(send, counts, recv, counts)
            out.append(recv.copy())
        elif op == "persistent":
            send = rng.standard_normal(3)
            recv = np.empty(3)
            sreq = comm.send_init(send, right, tag=300 + i)
            rreq = comm.recv_init(recv, left, tag=300 + i)
            rreq.start()
            sreq.start()
            sreq.wait(timeout=60)
            st = rreq.wait(timeout=60)
            out.append((st.source, st.tag, recv.tolist()))
    return out


def _run_both(body) -> tuple[list, list]:
    """``body(comm)`` on every rank, once over the plain communicator
    and once through the offload engine: both worlds' results."""

    def prog(mode):
        def run(comm):
            if mode == "plain":
                return body(comm)
            with offloaded(comm) as oc:
                return body(oc)

        return run

    return tuple(
        World(NRANKS, thread_level=THREAD_MULTIPLE).run(prog(m), timeout=120)
        for m in ("plain", "offload")
    )


def _assert_equal(a, b, ctx):
    assert type(a) is type(b) or (
        isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
    ), ctx
    if isinstance(a, np.ndarray):
        np.testing.assert_allclose(a, b, atol=1e-12, err_msg=str(ctx))
    else:
        assert a == b, ctx


@settings(max_examples=12, deadline=None)
@given(
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=5),
    seed=st.integers(0, 10**6),
)
def test_offload_is_observationally_equivalent(ops, seed):
    plain, offl = _run_both(lambda comm: _run_sequence(comm, ops, seed))
    for rank in range(NRANKS):
        for j, (a, b) in enumerate(zip(plain[rank], offl[rank])):
            _assert_equal(a, b, (rank, j, ops[j]))


def test_long_mixed_sequence_smoke():
    """One long deterministic sequence touching every op type."""
    ops = list(OPS) * 2
    plain, offl = _run_both(lambda comm: _run_sequence(comm, ops, seed=7))
    for rank in range(NRANKS):
        for j, (a, b) in enumerate(zip(plain[rank], offl[rank])):
            _assert_equal(a, b, (rank, j, ops[j]))


@pytest.mark.parametrize("bad", ["list", "strided"])
@pytest.mark.parametrize("op", ["allreduce", "alltoall", "gather", "bcast"])
def test_invalid_buffer_raises_alike(op, bad):
    """A blocking collective handed a list or a non-C-contiguous array
    raises the same exception type on both communicators, before any
    traffic (the buffer prologue is written once)."""

    def body(comm):
        n = comm.size
        buf = [1.0] * (2 * n) if bad == "list" else np.zeros((n, 4))[:, ::2]
        try:
            getattr(comm, op)(buf)
        except Exception as exc:
            return type(exc)
        return None

    plain, offl = _run_both(body)
    assert plain == offl
    assert all(t in (TypeError, ValueError) for t in plain), plain
