"""Application-facing facade: an MPI interface backed by the offload
engine.

Mirrors :class:`repro.mpisim.communicator.Communicator`'s API so that
application code is *unchanged* — it simply holds this object instead
(see :mod:`repro.core.interpose`).  Every method serializes its
parameters into a :class:`~repro.core.commands.Command` and enqueues it;
the calling thread never enters MPI:

* every call allocates a request-pool slot and submits a command
  through one path (``_call``); a nonblocking call returns an
  :class:`~repro.core.request_pool.OffloadRequest` on the slot
  immediately — the paper's constant ~140 ns post cost (Figure 4);
* a blocking call is its nonblocking equivalent plus a wait on the
  slot's done flag (§3.3; §3.1: the paper's caller spins on it, under
  one GIL it parks, see DESIGN.md §17) — no handle is built for it;
* many application threads may call concurrently — the queue and pool
  are lock-free, which is the paper's ``MPI_THREAD_MULTIPLE`` story
  (§3.3, Figure 6).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.commands import ISSUE, Command, CommandKind
from repro.core.request_pool import (
    OffloadEngineDied,
    OffloadRequest,
    raise_typed,
    recovery_wait,
)
from repro.mpisim import datatypes
from repro.mpisim.constants import (
    ANY_SOURCE,
    ANY_TAG,
    ThreadLevel,
)
from repro.mpisim.reduce_ops import ReduceOp, SUM
from repro.mpisim.status import Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import OffloadEngine
    from repro.core.engine_pool import EnginePool
    from repro.mpisim.communicator import Communicator

K = CommandKind

#: Longest :func:`offload_waitany` sleeps between scans of its handles.
_WAITANY_SLICE = 1e-3


class OffloadCommunicator:
    """Drop-in communicator whose MPI calls run on the offload thread.

    ``engine`` is the rank's :class:`~repro.core.engine_pool.EnginePool`
    (one shard for the paper's one offload thread); each call goes to
    the shard that carries its stream.

    ``op_timeout`` (optional) stamps every command with an absolute
    deadline; the engine terminal-fails commands that miss it with
    :class:`~repro.core.recovery.OffloadTimeout`, so no operation can
    outlive ``op_timeout`` once the engine has seen it.

    When the pool carries a :class:`~repro.core.recovery.RecoveryPolicy`
    with ``degrade=True``, calls issued *after* their shard died run
    inline on the calling thread (the FUNNELED fallback) instead of
    raising — nonblocking calls then return the substrate's own request
    handle, which exposes the same ``done``/``test``/``wait`` surface
    as :class:`~repro.core.request_pool.OffloadRequest`.
    """

    def __init__(
        self,
        comm: "Communicator",
        engine: "EnginePool",
        op_timeout: float | None = None,
    ) -> None:
        self.inner = comm
        self.engine = engine
        self.op_timeout = op_timeout

    # ------------------------------------------------------------- identity

    @property
    def rank(self) -> int:
        return self.inner.rank

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def group(self) -> tuple[int, ...]:
        return self.inner.group

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OffloadCommunicator({self.inner!r})"

    # ------------------------------------------------------------- plumbing

    def _call(
        self,
        cmd: Command,
        wait: bool = True,
        engine: "OffloadEngine | None" = None,
    ) -> Any:
        """Submit ``cmd`` and wait on its slot (a blocking call, §3.3)
        — or, with ``wait=False``, return the caller's handle.

        The one submission path.  The caller allocated ``cmd``'s slot:
        the request pool is shared by the pool's shards, so the slot
        exists before the command is routed.  ``engine`` pins the shard
        (a flush fence); otherwise the shard that carries the command's
        stream takes it — a pool of one's only shard, or ``route(cmd)``.
        When that shard (or every shard) is dead and the recovery
        policy degrades, the call runs on this thread instead.
        """
        holder = self.engine
        if engine is None:
            engine = holder._lone
        try:
            if engine is None:
                engine = holder.route(cmd)
            if self.op_timeout is not None:
                cmd.deadline = time.perf_counter() + self.op_timeout
            engine.submit(cmd)
        except OffloadEngineDied:
            # The command never reached an engine, so the slot can be
            # recycled safely (no later completion can touch it).
            holder.pool.release(cmd.slot)
            rec = holder.recovery
            if rec is None or not rec.degrade:
                raise
            return self._degraded(engine or holder.engines[0], cmd, wait)
        rec = engine.recovery
        pool = engine.pool
        if not wait:
            return OffloadRequest(
                pool, cmd.slot, engine if rec is not None else None
            )
        # A blocking call is a wait on the slot, with no handle built.
        slot = pool._slots[cmd.slot]
        if not slot.flag.done:
            if rec is None:
                slot.flag.wait()
            else:  # raises if the engine died: the slot is abandoned
                recovery_wait(slot, cmd.slot, engine, None)
        error = slot.error
        payload = slot.flag.payload
        pool.release(cmd.slot)
        if error is not None:
            raise_typed(error)
        return payload

    def _run(self, fn, *args) -> Any:
        """Run the collective ``fn(*args)`` on the offload thread and
        return its result (a CALL: no nonblocking form in the
        substrate).  The CALL carries this facade's communicator, so it
        travels the communicator's collective stream."""
        return self._call(
            Command(
                K.CALL,
                self.inner,
                slot=self.engine.pool.alloc(),
                fn=lambda: fn(*args),
            )
        )

    def _coll(
        self,
        kind: CommandKind,
        buf: Any = None,
        buf2: Any = None,
        root: int = -1,
        op: ReduceOp | None = None,
        wait: bool = True,
    ) -> Any:
        """Submit a collective of ``kind`` on this communicator."""
        return self._call(
            Command(
                kind, self.inner, buf, buf2, root, 0, op,
                self.engine.pool.alloc(),
            ),
            wait,
        )

    # --------------------------------------------------- degraded (FUNNELED)

    def _degraded(self, engine: "OffloadEngine", cmd: Command, wait: bool):
        """Run ``cmd`` inline on the calling thread (the FUNNELED
        fallback): the same :data:`~repro.core.commands.ISSUE` call the
        engine would have made.  A nonblocking call returns the
        substrate's own request, a blocking one waits on it here.

        Under FUNNELED the dead offload thread still holds the funnel
        designation; the substrate would reject inline calls from this
        thread, so the degraded caller takes the designation over.
        """
        engine.degraded_mode_commands += 1
        world = self.inner.world
        rank = self.inner.engine.rank
        if world.thread_level is ThreadLevel.FUNNELED:
            if world.funnel_thread(rank) != threading.get_ident():
                world.set_funnel_thread(rank, threading.get_ident())
        kind = cmd.kind
        if kind is K.FLUSH:
            # The dead shard failed its backlog, and inline calls
            # complete synchronously: nothing is left to fence.
            return None
        out = ISSUE[kind](cmd)
        return out.wait() if wait and not kind.immediate else out

    # ------------------------------------------------------------------ p2p

    def isend(self, buf: Any, dest: int, tag: int = 0) -> OffloadRequest:
        """Nonblocking send; returns immediately after one enqueue."""
        # positional: (kind, comm, buf, buf2, peer, tag, op, slot)
        return self._call(
            Command(
                K.ISEND, self.inner, buf, None, dest, tag, None,
                self.engine.pool.alloc(),
            ),
            False,
        )

    def irecv(
        self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> OffloadRequest:
        """Nonblocking receive; returns immediately after one enqueue."""
        return self._call(
            Command(
                K.IRECV, self.inner, buf, None, source, tag, None,
                self.engine.pool.alloc(),
            ),
            False,
        )

    def send(self, buf: Any, dest: int, tag: int = 0) -> None:
        self._call(
            Command(
                K.ISEND, self.inner, buf, None, dest, tag, None,
                self.engine.pool.alloc(),
            )
        )

    def recv(
        self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Status:
        return self._call(
            Command(
                K.IRECV, self.inner, buf, None, source, tag, None,
                self.engine.pool.alloc(),
            )
        )

    def sendrecv(
        self,
        sendbuf: Any,
        dest: int,
        recvbuf: Any,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Status:
        # Validate the send before the receive is posted: a send that
        # fails must not leave the receive behind to match the next
        # message from ``source``.
        self.inner._p2p_op(True, sendbuf, dest, sendtag)
        rreq = self.irecv(recvbuf, source, recvtag)
        sreq = self.isend(sendbuf, dest, sendtag)
        sreq.wait()
        return rreq.wait()

    # ---------------------------------------------------------------- probes

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Status | None:
        return self._call(
            Command(
                K.IPROBE, self.inner, None, None, source, tag, None,
                self.engine.pool.alloc(),
            )
        )

    def probe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Status:
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            st = self.iprobe(source, tag)
            if st is not None:
                return st
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeoutError("probe timed out")
            time.sleep(1e-5)

    # ---------------------------------------------------------------- objects

    def send_obj(self, obj: Any, dest: int, tag: int = 0) -> None:
        self.send(datatypes.pack_object(obj), dest, tag)

    def isend_obj(self, obj: Any, dest: int, tag: int = 0) -> OffloadRequest:
        return self.isend(datatypes.pack_object(obj), dest, tag)

    def recv_obj(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Any:
        st = self.probe(source, tag, timeout=timeout)
        buf = np.empty(st.count, dtype=np.uint8)
        self.recv(buf, st.source, st.tag)
        return datatypes.unpack_object(buf)

    # ------------------------------------------------------------ collectives
    # Those with a nonblocking form submit it (blocking: and wait); the
    # rest run as CALLs on the offload thread.

    def barrier(self) -> None:
        self._coll(K.IBARRIER)

    def ibarrier(self) -> OffloadRequest:
        return self._coll(K.IBARRIER, wait=False)

    def bcast(self, buf: np.ndarray, root: int = 0) -> None:
        self._coll(K.IBCAST, buf, root=root)

    def ibcast(self, buf: np.ndarray, root: int = 0) -> OffloadRequest:
        return self._coll(K.IBCAST, buf, root=root, wait=False)

    def bcast_obj(self, obj: Any = None, root: int = 0) -> Any:
        size_buf = np.zeros(1, dtype=np.int64)
        if self.rank == root:
            payload = datatypes.pack_object(obj)
            size_buf[0] = payload.nbytes
        self.bcast(size_buf, root)
        if self.rank != root:
            payload = np.empty(int(size_buf[0]), dtype=np.uint8)
        self.bcast(payload, root)
        return obj if self.rank == root else datatypes.unpack_object(payload)

    def allreduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        op: ReduceOp = SUM,
    ) -> np.ndarray:
        if recvbuf is None:
            recvbuf = np.empty_like(sendbuf)
        elif recvbuf is sendbuf:
            sendbuf = sendbuf.copy()  # in place
        self._coll(K.IALLREDUCE, sendbuf, recvbuf, op=op)
        return recvbuf

    def iallreduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        op: ReduceOp = SUM,
    ) -> OffloadRequest:
        return self._coll(K.IALLREDUCE, sendbuf, recvbuf, op=op, wait=False)

    def gather(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        root: int = 0,
    ) -> np.ndarray | None:
        if self.rank != root:
            recvbuf = None
        elif recvbuf is None:
            recvbuf = np.empty(
                (self.size,) + sendbuf.shape, dtype=sendbuf.dtype
            )
        self._coll(K.IGATHER, sendbuf, recvbuf, root)
        return recvbuf

    def igather(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        root: int = 0,
    ) -> OffloadRequest:
        return self._coll(K.IGATHER, sendbuf, recvbuf, root, wait=False)

    def alltoall(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray | None = None
    ) -> np.ndarray:
        if recvbuf is None:
            recvbuf = np.empty_like(sendbuf)
        self._coll(K.IALLTOALL, sendbuf, recvbuf)
        return recvbuf

    def ialltoall(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray
    ) -> OffloadRequest:
        return self._coll(K.IALLTOALL, sendbuf, recvbuf, wait=False)

    def reduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        op: ReduceOp = SUM,
        root: int = 0,
    ) -> np.ndarray | None:
        return self._run(self.inner.reduce, sendbuf, recvbuf, op, root)

    def scatter(
        self,
        sendbuf: np.ndarray | None,
        recvbuf: np.ndarray,
        root: int = 0,
    ) -> np.ndarray:
        return self._run(self.inner.scatter, sendbuf, recvbuf, root)

    def allgather(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray | None = None
    ) -> np.ndarray:
        return self._run(self.inner.allgather, sendbuf, recvbuf)

    def reduce_scatter(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        op: ReduceOp = SUM,
    ) -> np.ndarray:
        return self._run(self.inner.reduce_scatter, sendbuf, recvbuf, op)

    def scan(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        op: ReduceOp = SUM,
    ) -> np.ndarray:
        return self._run(self.inner.scan, sendbuf, recvbuf, op)

    def gatherv(
        self,
        sendbuf: np.ndarray,
        recvcounts,
        recvbuf: np.ndarray | None = None,
        root: int = 0,
    ) -> np.ndarray | None:
        return self._run(
            self.inner.gatherv, sendbuf, recvcounts, recvbuf, root
        )

    def scatterv(
        self,
        sendbuf: np.ndarray | None,
        sendcounts,
        recvbuf: np.ndarray,
        root: int = 0,
    ) -> np.ndarray:
        return self._run(
            self.inner.scatterv, sendbuf, sendcounts, recvbuf, root
        )

    def alltoallv(
        self,
        sendbuf: np.ndarray,
        sendcounts,
        recvbuf: np.ndarray,
        recvcounts,
    ) -> np.ndarray:
        return self._run(
            self.inner.alltoallv, sendbuf, sendcounts, recvbuf, recvcounts
        )

    # ------------------------------------------------------ communicator algebra

    def dup(self) -> "OffloadCommunicator":
        """Collective duplicate executed on the offload thread."""
        new_inner = self._run(self.inner.dup)
        return OffloadCommunicator(new_inner, self.engine, self.op_timeout)

    def split(
        self, color: int | None, key: int = 0
    ) -> "OffloadCommunicator | None":
        new_inner = self._run(self.inner.split, color, key)
        if new_inner is None:
            return None
        return OffloadCommunicator(new_inner, self.engine, self.op_timeout)

    # ------------------------------------------------------ fault tolerance

    @property
    def revoked(self) -> bool:
        """True once the wrapped communicator has been revoked."""
        return self.inner.revoked

    def revoke(self) -> None:
        """Revoke the wrapped communicator (see ULFM semantics).

        Runs *inline on the calling thread*, never through the offload
        ring: revocation is the fault plane, and it must work exactly
        when the offload path is wedged or poisoned.  The substrate's
        ``revoke`` takes the library lock directly and needs no engine
        cooperation.
        """
        self.inner.revoke()

    def agree(self, flag: int = 1, timeout: float = 60.0) -> int:
        """Fault-tolerant agreement over the survivors (inline).

        Like :meth:`revoke`, this bypasses the offload ring: agreement
        must terminate even when the shards serving this communicator
        are drowning in typed failures.  The protocol pumps the
        substrate progress engine from the calling thread.
        """
        return self.inner.agree(flag, timeout=timeout)

    def shrink(self, timeout: float = 60.0) -> "OffloadCommunicator":
        """Revoke + agree on survivors + rebuild, offload-side.

        Returns a fresh facade over the shrunk substrate communicator
        and releases the revoked communicator's stream pins from the
        pool router, so the survivor's streams get fresh shard
        assignments instead of inheriting dead sticky state.
        """
        new_inner = self.inner.shrink(timeout=timeout)
        self.engine.remap_shrunk(self.inner, new_inner)
        return OffloadCommunicator(new_inner, self.engine, self.op_timeout)

    def flush(self) -> None:
        """Wait until every previously submitted operation completed.

        The fence is broadcast: one FLUSH per live shard, since
        previously submitted work may be spread over every ring.  A
        shard that died needs no fence — its backlog was already
        terminally failed, so there is nothing left to wait for.  With
        no shard alive, flush fails like every other blocking call:
        :class:`~repro.core.request_pool.OffloadEngineDied`, or the
        inline no-op under ``degrade=True``.
        """
        pool = self.engine.pool
        live = [e for e in self.engine.engines if e.dead is None]
        if not live:
            self._call(Command(K.FLUSH, slot=pool.alloc()))
        for e in live:
            try:
                self._call(Command(K.FLUSH, slot=pool.alloc()), engine=e)
            except OffloadEngineDied:
                # Raced a shard crash: the crash failed all its
                # pending work typed, so the fence it would have
                # provided is vacuous.
                pass

    def payload_counters(self) -> tuple[int, int]:
        """``(payload_copies, payload_zero_copy_hits)`` for this rank.

        Reads the substrate progress engine's data-plane accounting
        (DESIGN.md §14): intermediate payload materializations versus
        deliveries satisfied directly from the sender's user buffer.
        The final copy into a posted receive buffer is never counted —
        ``payload_copies == 0`` on the happy path means every byte
        moved exactly once.
        """
        eng = self.inner.engine
        return eng.payload_copies, eng.payload_zero_copy_hits

    # ------------------------------------------------------------ persistent

    def send_init(self, buf: Any, dest: int, tag: int = 0):
        """Persistent send whose every ``start`` is an offloaded isend."""
        from repro.mpisim.persistent import PersistentSend

        return PersistentSend(self, buf, dest, tag)

    def recv_init(
        self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ):
        from repro.mpisim.persistent import PersistentRecv

        return PersistentRecv(self, buf, source, tag)

    # ------------------------------------------------------------- one-sided

    def win_create(self, local: np.ndarray):
        """Collectively create an offloaded RMA window (paper §7
        future work; see :mod:`repro.core.rma_offload`)."""
        from repro.core.rma_offload import OffloadWindow

        return OffloadWindow.create(self, local)


def offload_waitall(
    requests: Sequence[OffloadRequest], timeout: float | None = None
) -> list[Status]:
    """Wait on offloaded handles; pure flag checks, no MPI entry.

    ``timeout`` is one overall budget for the whole set — each wait
    gets the *remaining* budget, so N requests cannot stack up to
    ``N * timeout`` of wall clock.

    When an engine dies mid-wait the *engine side* fails the tail:
    ``_fail_pending`` flags every outstanding slot typed, and any
    registered continuations fire from there.  This function then owns
    draining those already-failed tail handles — each one is consumed
    (typed error observed, slot released) instead of being abandoned
    when the first wait raises — so a waitall caller and a
    continuation observer see the same per-request outcomes.  The
    first error is re-raised after the sweep.
    """
    deadline = (
        None if timeout is None else time.perf_counter() + timeout
    )

    def _budget() -> float | None:
        if deadline is None:
            return None
        return max(0.0, deadline - time.perf_counter())

    out: list[Status] = []
    for i, r in enumerate(requests):
        try:
            out.append(r.wait(_budget()))
        except OffloadEngineDied:
            # Sweep the tail: the dead engine's _fail_pending has (or
            # is about to have) flagged every outstanding slot typed,
            # so each remaining handle is consumed — typed error
            # observed, slot released — rather than abandoned.
            # Bounded: a slot whose flag never sets within the grace
            # (a wedged-alive engine holding it) stays pending,
            # exactly as before the sweep.
            for tail in requests[i + 1 :]:
                grace = _budget()
                if grace is None:
                    grace = 1.0
                try:
                    tail.wait(min(grace, 1.0))
                except BaseException:
                    pass
            raise
    return out


def offload_waitany(
    requests: Sequence[OffloadRequest], timeout: float | None = None
) -> tuple[int, Status]:
    """Wait until one handle completes; returns its index and status.

    Between scans the caller parks on the first handle, in slices: that
    handle completing wakes it at once, any other is seen one slice
    later.  ``timeout`` bounds the whole wait.
    """
    if not requests:
        raise ValueError("offload_waitany on empty list")
    deadline = None if timeout is None else time.perf_counter() + timeout
    while True:
        for i, r in enumerate(requests):
            if r.done:
                return i, r.wait()
        step = _WAITANY_SLICE
        if deadline is not None:
            step = min(step, deadline - time.perf_counter())
            if step <= 0:
                raise TimeoutError("offload_waitany: nothing completed")
        requests[0].park(step)
