"""Application-facing facade: an MPI interface backed by the offload
engine.

Mirrors :class:`repro.mpisim.communicator.Communicator`'s API so that
application code is *unchanged* — it simply holds this object instead
(see :mod:`repro.core.interpose`).  Every method serializes its
parameters into a :class:`~repro.core.commands.Command` and enqueues it;
the calling thread never enters MPI:

* nonblocking calls allocate a request-pool slot and return an
  :class:`~repro.core.request_pool.OffloadRequest` immediately — the
  paper's constant ~140 ns post cost (Figure 4);
* blocking calls wait on the command's done flag (§3.1: the paper's
  caller spins on it; under one GIL it parks, see DESIGN.md §17);
* many application threads may call concurrently — the queue and pool
  are lock-free, which is the paper's ``MPI_THREAD_MULTIPLE`` story
  (§3.3, Figure 6).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.commands import Command, CommandKind
from repro.core.recovery import EngineWatchdog, RecoveryPolicy
from repro.core.request_pool import (
    OffloadEngineDied,
    OffloadError,
    OffloadRequest,
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

    def _blocking(self, cmd: Command) -> Any:
        # The shard that must carry this command: a pool of one's only
        # shard, or route(cmd) — sends keyed by destination, receives/
        # collectives by communicator, etc. so every MPI-ordered stream
        # stays on one ring.
        holder = self.engine
        try:
            engine = holder._lone or holder.route(cmd)
        except OffloadEngineDied:
            # Every shard is dead.
            rec = holder.recovery
            if rec is not None and rec.degrade:
                return self._degraded_blocking(holder.engines[0], cmd)
            raise
        return self._blocking_on(engine, cmd)

    def _blocking_on(self, engine: "OffloadEngine", cmd: Command) -> Any:
        assert cmd.done is not None
        rec = engine.recovery
        if rec is not None and rec.degrade and engine.dead is not None:
            return self._degraded_blocking(engine, cmd)
        if self.op_timeout is not None and cmd.deadline is None:
            cmd.deadline = time.perf_counter() + self.op_timeout
        try:
            engine.submit(cmd)
        except OffloadEngineDied:
            if rec is not None and rec.degrade:
                return self._degraded_blocking(engine, cmd)
            raise
        if rec is None:
            cmd.done.wait()
        else:
            self._watchful_wait(engine, cmd, rec)
        if cmd.error is not None:
            err = cmd.error
            if isinstance(err, OffloadError):
                raise err
            raise OffloadError(str(err)) from err
        return cmd.done.payload

    @staticmethod
    def _watchful_wait(
        engine: "OffloadEngine", cmd: Command, rec: RecoveryPolicy
    ) -> None:
        """Wait on ``cmd.done`` while sampling engine health.

        Bounded-hang guarantee: if the engine dies (or the watchdog
        trips it), the waiter fails the command locally — even a
        command the engine can no longer reach (wedged mid-dispatch)
        terminates within ``watchdog_timeout + poll_interval``.
        """
        assert cmd.done is not None
        done = cmd.done
        watchdog = (
            EngineWatchdog(engine, rec.watchdog_timeout)
            if rec.watchdog_timeout is not None
            else None
        )
        while True:
            if done.wait(rec.poll_interval):
                return
            if engine.dead is not None:
                if not done.is_set():
                    cmd.error = OffloadEngineDied(
                        f"offload engine terminated with {cmd.kind.name} "
                        f"pending: {engine.dead}"
                    )
                    done.set(None)
                return
            if watchdog is not None:
                watchdog.check()

    def _nonblocking(self, cmd: Command) -> Any:
        """Route and enqueue ``cmd``, whose pool slot the caller has
        allocated (the request pool is shared across the pool's shards,
        so the slot exists before the command is routed)."""
        holder = self.engine
        slot = cmd.slot
        try:
            engine = holder._lone or holder.route(cmd)
        except OffloadEngineDied:
            holder.pool.release(slot)
            rec = holder.recovery
            if rec is not None and rec.degrade:
                return self._degraded_nonblocking(holder.engines[0], cmd)
            raise
        rec = engine.recovery
        if rec is not None and rec.degrade and engine.dead is not None:
            holder.pool.release(slot)
            return self._degraded_nonblocking(engine, cmd)
        if self.op_timeout is not None:
            cmd.deadline = time.perf_counter() + self.op_timeout
        handle = OffloadRequest(
            engine.pool, slot, engine if rec is not None else None
        )
        try:
            engine.submit(cmd)
        except OffloadEngineDied:
            # The command never reached the engine, so the slot can be
            # recycled safely (no later completion can touch it).
            engine.pool.release(slot)
            if rec is not None and rec.degrade:
                return self._degraded_nonblocking(engine, cmd)
            raise
        return handle

    # --------------------------------------------------- degraded (FUNNELED)

    def _note_degraded(self, engine: "OffloadEngine") -> None:
        """Account one inline-fallback command and adopt the funnel.

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

    def _degraded_blocking(self, engine: "OffloadEngine", cmd: Command) -> Any:
        self._note_degraded(engine)
        comm = cmd.comm if cmd.comm is not None else self.inner
        k = cmd.kind
        if k is K.SEND:
            return comm.send(cmd.buf, cmd.peer, cmd.tag)
        if k is K.RECV:
            return comm.recv(cmd.buf, cmd.peer, cmd.tag)
        if k is K.IPROBE:
            return comm.iprobe(cmd.peer, cmd.tag)
        if k is K.BARRIER:
            return comm.barrier()
        if k is K.BCAST:
            return comm.bcast(cmd.buf, cmd.peer)
        if k is K.ALLREDUCE:
            return comm.allreduce(cmd.buf, cmd.buf2, cmd.op)
        if k is K.GATHER:
            return comm.gather(cmd.buf, cmd.buf2, cmd.peer)
        if k is K.ALLTOALL:
            return comm.alltoall(cmd.buf, cmd.buf2)
        if k is K.REDUCE:
            return comm.reduce(cmd.buf, cmd.buf2, cmd.op, cmd.peer)
        if k is K.SCATTER:
            return comm.scatter(cmd.buf, cmd.buf2, cmd.peer)
        if k is K.ALLGATHER:
            return comm.allgather(cmd.buf, cmd.buf2)
        if k is K.REDUCE_SCATTER:
            return comm.reduce_scatter(cmd.buf, cmd.buf2, cmd.op)
        if k is K.SCAN:
            return comm.scan(cmd.buf, cmd.buf2, cmd.op)
        if k is K.CALL:
            return cmd.fn()
        if k is K.FLUSH:
            # Nothing can be in flight on the engine for *this* caller
            # anymore (it is dead and failed its backlog); inline ops
            # complete synchronously, so flush is a no-op.
            return None
        raise OffloadError(
            f"no degraded inline fallback for {k.name}"
        )  # pragma: no cover - all facade kinds handled above

    def _degraded_nonblocking(
        self, engine: "OffloadEngine", cmd: Command
    ) -> Any:
        self._note_degraded(engine)
        comm = cmd.comm if cmd.comm is not None else self.inner
        k = cmd.kind
        if k is K.ISEND:
            return comm.isend(cmd.buf, cmd.peer, cmd.tag)
        if k is K.IRECV:
            return comm.irecv(cmd.buf, cmd.peer, cmd.tag)
        if k is K.IBARRIER:
            return comm.ibarrier()
        if k is K.IBCAST:
            return comm.ibcast(cmd.buf, cmd.peer)
        if k is K.IALLREDUCE:
            return comm.iallreduce(cmd.buf, cmd.buf2, cmd.op)
        if k is K.IGATHER:
            return comm.igather(cmd.buf, cmd.buf2, cmd.peer)
        if k is K.IALLTOALL:
            return comm.ialltoall(cmd.buf, cmd.buf2)
        raise OffloadError(
            f"no degraded inline fallback for {k.name}"
        )  # pragma: no cover - all facade kinds handled above

    # ------------------------------------------------------------------ p2p

    def isend(self, buf: Any, dest: int, tag: int = 0) -> OffloadRequest:
        """Nonblocking send; returns immediately after one enqueue."""
        # positional: (kind, comm, buf, buf2, peer, tag, op, slot)
        return self._nonblocking(
            Command(
                K.ISEND, self.inner, buf, None, dest, tag, None,
                self.engine.pool.alloc(),
            )
        )

    def irecv(
        self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> OffloadRequest:
        """Nonblocking receive; returns immediately after one enqueue."""
        return self._nonblocking(
            Command(
                K.IRECV, self.inner, buf, None, source, tag, None,
                self.engine.pool.alloc(),
            )
        )

    def send(self, buf: Any, dest: int, tag: int = 0) -> None:
        self._blocking(
            Command(kind=K.SEND, comm=self.inner, buf=buf, peer=dest, tag=tag)
        )

    def recv(
        self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Status:
        st = self._blocking(
            Command(
                kind=K.RECV, comm=self.inner, buf=buf, peer=source, tag=tag
            )
        )
        assert isinstance(st, Status)
        return st

    def sendrecv(
        self,
        sendbuf: Any,
        dest: int,
        recvbuf: Any,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Status:
        rreq = self.irecv(recvbuf, source, recvtag)
        sreq = self.isend(sendbuf, dest, sendtag)
        sreq.wait()
        return rreq.wait()

    # ---------------------------------------------------------------- probes

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Status | None:
        return self._blocking(
            Command(kind=K.IPROBE, comm=self.inner, peer=source, tag=tag)
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

    def barrier(self) -> None:
        self._blocking(Command(kind=K.BARRIER, comm=self.inner))

    def bcast(self, buf: np.ndarray, root: int = 0) -> None:
        self._blocking(
            Command(kind=K.BCAST, comm=self.inner, buf=buf, peer=root)
        )

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
        self._blocking(
            Command(
                kind=K.ALLREDUCE,
                comm=self.inner,
                buf=sendbuf,
                buf2=recvbuf,
                op=op,
            )
        )
        return recvbuf

    def reduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        op: ReduceOp = SUM,
        root: int = 0,
    ) -> np.ndarray | None:
        if recvbuf is None and self.rank == root:
            recvbuf = np.empty_like(sendbuf)
        return self._blocking(
            Command(
                kind=K.REDUCE,
                comm=self.inner,
                buf=sendbuf,
                buf2=recvbuf,
                op=op,
                peer=root,
            )
        )

    def gather(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        root: int = 0,
    ) -> np.ndarray | None:
        if recvbuf is None and self.rank == root:
            recvbuf = np.empty(
                (self.size,) + sendbuf.shape, dtype=sendbuf.dtype
            )
        self._blocking(
            Command(
                kind=K.GATHER,
                comm=self.inner,
                buf=sendbuf,
                buf2=recvbuf,
                peer=root,
            )
        )
        return recvbuf if self.rank == root else None

    def scatter(
        self,
        sendbuf: np.ndarray | None,
        recvbuf: np.ndarray,
        root: int = 0,
    ) -> np.ndarray:
        self._blocking(
            Command(
                kind=K.SCATTER,
                comm=self.inner,
                buf=sendbuf,
                buf2=recvbuf,
                peer=root,
            )
        )
        return recvbuf

    def allgather(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray | None = None
    ) -> np.ndarray:
        if recvbuf is None:
            recvbuf = np.empty(
                (self.size,) + sendbuf.shape, dtype=sendbuf.dtype
            )
        self._blocking(
            Command(
                kind=K.ALLGATHER, comm=self.inner, buf=sendbuf, buf2=recvbuf
            )
        )
        return recvbuf

    def alltoall(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray | None = None
    ) -> np.ndarray:
        if recvbuf is None:
            recvbuf = np.empty_like(sendbuf)
        self._blocking(
            Command(
                kind=K.ALLTOALL, comm=self.inner, buf=sendbuf, buf2=recvbuf
            )
        )
        return recvbuf

    def reduce_scatter(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        op: ReduceOp = SUM,
    ) -> np.ndarray:
        if recvbuf is None:
            recvbuf = np.empty(sendbuf.shape[1:], dtype=sendbuf.dtype)
        self._blocking(
            Command(
                kind=K.REDUCE_SCATTER,
                comm=self.inner,
                buf=sendbuf,
                buf2=recvbuf,
                op=op,
            )
        )
        return recvbuf

    def scan(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        op: ReduceOp = SUM,
    ) -> np.ndarray:
        if recvbuf is None:
            recvbuf = np.empty_like(sendbuf)
        self._blocking(
            Command(
                kind=K.SCAN, comm=self.inner, buf=sendbuf, buf2=recvbuf, op=op
            )
        )
        return recvbuf

    def gatherv(
        self,
        sendbuf: np.ndarray,
        recvcounts,
        recvbuf: np.ndarray | None = None,
        root: int = 0,
    ) -> np.ndarray | None:
        """Variable-count gather, executed inline on the offload thread
        (no nonblocking equivalent in the substrate — the §3.3 class)."""
        return self._blocking(
            Command(
                kind=K.CALL,
                fn=lambda: self.inner.gatherv(
                    sendbuf, recvcounts, recvbuf, root
                ),
            )
        )

    def scatterv(
        self,
        sendbuf: np.ndarray | None,
        sendcounts,
        recvbuf: np.ndarray,
        root: int = 0,
    ) -> np.ndarray:
        return self._blocking(
            Command(
                kind=K.CALL,
                fn=lambda: self.inner.scatterv(
                    sendbuf, sendcounts, recvbuf, root
                ),
            )
        )

    def alltoallv(
        self,
        sendbuf: np.ndarray,
        sendcounts,
        recvbuf: np.ndarray,
        recvcounts,
    ) -> np.ndarray:
        return self._blocking(
            Command(
                kind=K.CALL,
                fn=lambda: self.inner.alltoallv(
                    sendbuf, sendcounts, recvbuf, recvcounts
                ),
            )
        )

    # -------------------------------------------------- nonblocking collectives

    def ibarrier(self) -> OffloadRequest:
        return self._nonblocking(
            Command(K.IBARRIER, self.inner, slot=self.engine.pool.alloc())
        )

    def ibcast(self, buf: np.ndarray, root: int = 0) -> OffloadRequest:
        return self._nonblocking(
            Command(
                K.IBCAST, self.inner, buf, peer=root,
                slot=self.engine.pool.alloc(),
            )
        )

    def iallreduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        op: ReduceOp = SUM,
    ) -> OffloadRequest:
        return self._nonblocking(
            Command(
                K.IALLREDUCE, self.inner, sendbuf, recvbuf, op=op,
                slot=self.engine.pool.alloc(),
            )
        )

    def igather(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        root: int = 0,
    ) -> OffloadRequest:
        return self._nonblocking(
            Command(
                K.IGATHER, self.inner, sendbuf, recvbuf, root,
                slot=self.engine.pool.alloc(),
            )
        )

    def ialltoall(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray
    ) -> OffloadRequest:
        return self._nonblocking(
            Command(
                K.IALLTOALL, self.inner, sendbuf, recvbuf,
                slot=self.engine.pool.alloc(),
            )
        )

    # ------------------------------------------------------ communicator algebra

    def dup(self) -> "OffloadCommunicator":
        """Collective duplicate executed on the offload thread."""
        new_inner = self._blocking(
            Command(kind=K.CALL, fn=self.inner.dup)
        )
        return OffloadCommunicator(new_inner, self.engine, self.op_timeout)

    def split(
        self, color: int | None, key: int = 0
    ) -> "OffloadCommunicator | None":
        new_inner = self._blocking(
            Command(kind=K.CALL, fn=lambda: self.inner.split(color, key))
        )
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
        live = [e for e in self.engine.engines if e.dead is None]
        if not live:
            self._blocking(Command(kind=K.FLUSH))
        for e in live:
            try:
                self._blocking_on(e, Command(kind=K.FLUSH))
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
