"""One-sided communication (MPI RMA) — the paper's §7 future work.

The paper closes by intending to "explore efficient implementations of
other MPI operations, including RMA (i.e. one-sided)", and its related
work discusses Casper [30], which provides asynchronous progress for
exactly these operations.  This module implements windows with the
same progress semantics as the two-sided substrate:

* ``put``/``accumulate`` ship an RMA record to the target rank's
  progress engine; the data is applied to the window **only when the
  target's progress runs** — precisely the asynchronous-progress
  problem Casper attacks (a target busy computing applies nothing);
* ``get`` requires a round trip: target progress serves the read,
  origin progress completes it;
* ``fence`` is an *active-target* epoch boundary: it completes every
  locally-issued operation (requiring remote progress) and then
  barriers — and, being blocking-with-no-nonblocking-equivalent, it is
  the very call the paper names (§3.3) as the offload approach's
  acknowledged limitation;
* ``lock``/``unlock`` provide *passive-target* epochs with shared or
  exclusive semantics granted by the target's progress engine.

Origin-completion bookkeeping uses acknowledgements, so ``flush`` has
real meaning: data is in the window when the ack arrived, not when the
call returned.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.mpisim import nbc
from repro.mpisim.envelope import BufferRef
from repro.mpisim.exceptions import MPIError
from repro.mpisim.requests import Request
from repro.mpisim.status import EMPTY_STATUS

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.communicator import Communicator

LOCK_SHARED = "shared"
LOCK_EXCLUSIVE = "exclusive"


class RMAError(MPIError):
    """Invalid one-sided operation (bad offset, missing epoch, ...)."""


@dataclass(slots=True)
class RMAMessage:
    """One one-sided operation in flight to a target engine."""

    op: str  # "put" | "get" | "acc" | "ack" | "get_reply" | "lock" | ...
    win_id: int
    origin: int  # global rank
    target: int  # global rank
    offset: int = 0
    #: put/acc carry a :class:`BufferRef` (borrowed under zero-copy:
    #: the origin buffer is only read at target-apply time, which the
    #: RMA contract makes legal — origin buffers must stay untouched
    #: until local completion); control ops carry plain arrays
    payload: "np.ndarray | BufferRef | None" = None
    reduce_op: Any = None
    request: "Request | None" = None  # origin-side completion
    lock_kind: str = LOCK_SHARED
    #: get only: the origin-side destination view the reply fills
    dest: np.ndarray | None = None


@dataclass
class _LockState:
    """Per-window lock manager living at each target rank."""

    exclusive_held_by: int | None = None
    shared_holders: set[int] = field(default_factory=set)
    queue: list[RMAMessage] = field(default_factory=list)

    def try_grant(self, msg: RMAMessage) -> bool:
        if msg.lock_kind == LOCK_EXCLUSIVE:
            if self.exclusive_held_by is None and not self.shared_holders:
                self.exclusive_held_by = msg.origin
                return True
            return False
        if self.exclusive_held_by is None:
            self.shared_holders.add(msg.origin)
            return True
        return False

    def release(self, origin: int) -> None:
        if self.exclusive_held_by == origin:
            self.exclusive_held_by = None
        else:
            self.shared_holders.discard(origin)


class Window:
    """An RMA window over one NumPy array per rank.

    Created collectively via :meth:`create`; all ranks must call with
    arrays of identical dtype (sizes may differ).
    """

    def __init__(
        self, comm: "Communicator", local: np.ndarray, win_id: int
    ) -> None:
        if not isinstance(local, np.ndarray) or not local.flags.c_contiguous:
            raise TypeError("window memory must be a contiguous ndarray")
        self.comm = comm
        self.local = local.reshape(-1)
        self.win_id = win_id
        self.dtype = local.dtype
        #: origin-side: outstanding ops awaiting acks, per target rank
        self._pending: dict[int, list[Request]] = {}
        #: target-side lock manager
        self._locks = _LockState()
        self._mutex = threading.Lock()
        #: epochs this rank currently holds (passive target)
        self._held_locks: dict[int, str] = {}
        comm.engine.register_window(self)

    # ------------------------------------------------------------ creation

    @classmethod
    def create(cls, comm: "Communicator", local: np.ndarray) -> "Window":
        """Collective window creation (allocates an agreed id)."""
        wid_buf = np.empty(1, dtype=np.int64)
        if comm.rank == 0:
            wid_buf[0] = comm.world.allocate_cid()
        nbc.ibcast(comm, wid_buf, 0).wait()
        win = cls(comm, local, int(wid_buf[0]))
        nbc.ibarrier(comm).wait()
        return win

    def free(self) -> None:
        """Collective window destruction."""
        self.fence()
        self.comm.engine.unregister_window(self)
        nbc.ibarrier(self.comm).wait()

    # ------------------------------------------------------------ plumbing

    def _track(self, target: int, req: Request) -> None:
        with self._mutex:
            self._pending.setdefault(target, []).append(req)

    def _send(self, msg: RMAMessage) -> None:
        self.comm.engine.send_rma(msg)

    def _pack_origin(self, origin: np.ndarray) -> BufferRef:
        """Origin data for put/accumulate as a :class:`BufferRef`.

        Under the engine's zero-copy mode a contiguous, dtype-matching
        origin is *borrowed* — no copy here; the target's apply reads
        straight out of the user buffer (legal until local completion
        per the RMA contract).  Otherwise the bytes are materialized
        exactly once (a derived-datatype pack or the classic
        copy-at-post path), counted in ``payload_copies``.
        """
        engine = self.comm.engine
        data = np.asarray(origin)
        if data.dtype != self.dtype or not data.flags.c_contiguous:
            # Pack: one materialization, unavoidable (dtype/stride
            # conversion), and the result is ours to keep.
            packed = np.ascontiguousarray(
                origin, dtype=self.dtype
            ).reshape(-1)
            engine.payload_copies += 1
            return BufferRef(
                view=packed.view(np.uint8),
                owned=True,
                dtype=str(self.dtype),
                shape=packed.shape,
            )
        flat = data.reshape(-1)
        if engine.zero_copy:
            return BufferRef.borrow(flat)
        engine.payload_copies += 1
        return BufferRef.own(flat)

    def _check_range(self, target_offset: int, count: int) -> None:
        if target_offset < 0 or count < 0:
            raise RMAError("negative offset or count")

    def _global(self, rank: int) -> int:
        return self.comm.group[rank]

    # ------------------------------------------------------------ operations

    def put(
        self, origin: np.ndarray, target_rank: int, target_offset: int = 0
    ) -> Request:
        """One-sided write; returns an origin-completion request.

        The data lands in the target window only once the *target's*
        progress engine processes the record (and the returned request
        completes only when the ack comes back) — synchronize with
        ``fence``/``flush``/``unlock``.
        """
        ref = self._pack_origin(origin)
        self._check_range(target_offset, ref.nbytes // self.dtype.itemsize)
        req = Request(self.comm.engine)
        msg = RMAMessage(
            op="put",
            win_id=self.win_id,
            origin=self.comm.engine.rank,
            target=self._global(target_rank),
            offset=target_offset,
            payload=ref,
            request=req,
        )
        self._track(target_rank, req)
        self._send(msg)
        return req

    def get(
        self,
        dest: np.ndarray,
        target_rank: int,
        target_offset: int = 0,
    ) -> Request:
        """One-sided read into ``dest``; completes at sync/wait."""
        if dest.dtype != self.dtype:
            raise RMAError(
                f"dest dtype {dest.dtype} != window dtype {self.dtype}"
            )
        flat = dest.reshape(-1)
        self._check_range(target_offset, flat.size)
        req = Request(self.comm.engine)
        msg = RMAMessage(
            op="get",
            win_id=self.win_id,
            origin=self.comm.engine.rank,
            target=self._global(target_rank),
            offset=target_offset,
            payload=np.array([flat.size], dtype=np.int64),
            request=req,
            dest=flat,
        )
        self._track(target_rank, req)
        self._send(msg)
        return req

    def accumulate(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_offset: int = 0,
        op: Any = None,
    ) -> Request:
        """One-sided reduction into the target window (default SUM).

        Applied atomically with respect to other accumulates at the
        target (the target engine applies records serially).
        """
        from repro.mpisim.reduce_ops import SUM

        ref = self._pack_origin(origin)
        self._check_range(target_offset, ref.nbytes // self.dtype.itemsize)
        req = Request(self.comm.engine)
        msg = RMAMessage(
            op="acc",
            win_id=self.win_id,
            origin=self.comm.engine.rank,
            target=self._global(target_rank),
            offset=target_offset,
            payload=ref,
            reduce_op=op or SUM,
            request=req,
        )
        self._track(target_rank, req)
        self._send(msg)
        return req

    # -------------------------------------------------------- synchronization

    def flush(self, target_rank: int | None = None, timeout: float = 60.0):
        """Wait until all outstanding ops to ``target_rank`` (or all
        targets) have been applied and acknowledged."""
        with self._mutex:
            if target_rank is None:
                reqs = [r for lst in self._pending.values() for r in lst]
                self._pending.clear()
            else:
                reqs = self._pending.pop(target_rank, [])
        for r in reqs:
            r.wait(timeout=timeout)

    def fence(self, timeout: float = 60.0) -> None:
        """Active-target epoch boundary: flush everything, then
        barrier.  Blocking with no nonblocking equivalent — the §3.3
        caveat call."""
        self.flush(timeout=timeout)
        nbc.ibarrier(self.comm).wait()

    def lock(
        self,
        target_rank: int,
        kind: str = LOCK_SHARED,
        timeout: float = 60.0,
    ) -> None:
        """Begin a passive-target epoch at ``target_rank``."""
        if kind not in (LOCK_SHARED, LOCK_EXCLUSIVE):
            raise RMAError(f"unknown lock kind {kind!r}")
        if target_rank in self._held_locks:
            raise RMAError(f"lock already held on rank {target_rank}")
        req = Request(self.comm.engine)
        msg = RMAMessage(
            op="lock",
            win_id=self.win_id,
            origin=self.comm.engine.rank,
            target=self._global(target_rank),
            lock_kind=kind,
            request=req,
        )
        self._send(msg)
        req.wait(timeout=timeout)  # grant
        self._held_locks[target_rank] = kind

    def unlock(self, target_rank: int, timeout: float = 60.0) -> None:
        """End a passive-target epoch: flush ops to the target, then
        release the lock."""
        if target_rank not in self._held_locks:
            raise RMAError(f"no lock held on rank {target_rank}")
        self.flush(target_rank, timeout=timeout)
        req = Request(self.comm.engine)
        msg = RMAMessage(
            op="unlock",
            win_id=self.win_id,
            origin=self.comm.engine.rank,
            target=self._global(target_rank),
            request=req,
        )
        self._send(msg)
        req.wait(timeout=timeout)
        del self._held_locks[target_rank]

    # ------------------------------------------------- target-side application

    def _apply(self, msg: RMAMessage, engine) -> None:
        """Run on the *target's* progress engine (one record at a time,
        hence target-side atomicity)."""
        if msg.op == "put":
            assert msg.payload is not None
            data = self._payload_array(msg.payload, engine)
            end = msg.offset + data.size
            if end > self.local.size:
                self._nack(msg, engine, f"put outside window ({end})")
                return
            self.local[msg.offset : end] = data
            self._ack(msg, engine)
        elif msg.op == "acc":
            assert msg.payload is not None
            data = self._payload_array(msg.payload, engine)
            end = msg.offset + data.size
            if end > self.local.size:
                self._nack(msg, engine, f"accumulate outside window ({end})")
                return
            view = self.local[msg.offset : end]
            msg.reduce_op(view, data, out=view)
            self._ack(msg, engine)
        elif msg.op == "get":
            assert msg.payload is not None
            count = int(msg.payload[0])
            end = msg.offset + count
            if end > self.local.size:
                self._nack(msg, engine, f"get outside window ({end})")
                return
            reply = RMAMessage(
                op="get_reply",
                win_id=self.win_id,
                origin=msg.target,
                target=msg.origin,
                payload=self.local[msg.offset : end].copy(),
                request=msg.request,
                dest=msg.dest,
            )
            engine.send_rma(reply)
        elif msg.op == "get_reply":
            # back at the origin: deliver into the destination buffer
            req = msg.request
            assert req is not None and msg.payload is not None
            assert msg.dest is not None
            msg.dest[: msg.payload.size] = msg.payload
            req._complete(EMPTY_STATUS)
        elif msg.op == "ack":
            assert msg.request is not None
            msg.request._complete(EMPTY_STATUS)
        elif msg.op == "nack":
            assert msg.request is not None and msg.payload is not None
            msg.request._fail(RMAError(bytes(msg.payload).decode()))
        elif msg.op == "lock":
            if self._locks.try_grant(msg):
                self._ack(msg, engine)
            else:
                self._locks.queue.append(msg)
        elif msg.op == "unlock":
            self._locks.release(msg.origin)
            self._ack(msg, engine)
            # grant queued waiters now permitted
            still = []
            for waiting in self._locks.queue:
                if self._locks.try_grant(waiting):
                    self._ack(waiting, engine)
                else:
                    still.append(waiting)
            self._locks.queue = still
        else:  # pragma: no cover - defensive
            raise RMAError(f"unknown RMA op {msg.op!r}")

    def _payload_array(self, payload, engine) -> np.ndarray:
        """Window-typed view of a put/acc payload (no copy).

        A *borrowed* ref means the bytes are coming straight out of the
        origin's user buffer right now — the zero-copy hit, counted on
        the target engine (mirroring the two-sided receiver side).
        """
        if isinstance(payload, BufferRef):
            if not payload.owned:
                engine.payload_zero_copy_hits += 1
            return payload.as_array().view(self.dtype)
        return payload.view(self.dtype)

    def _ack(self, msg: RMAMessage, engine) -> None:
        engine.send_rma(
            RMAMessage(
                op="ack",
                win_id=self.win_id,
                origin=msg.target,
                target=msg.origin,
                request=msg.request,
            )
        )

    def _nack(self, msg: RMAMessage, engine, reason: str) -> None:
        engine.send_rma(
            RMAMessage(
                op="nack",
                win_id=self.win_id,
                origin=msg.target,
                target=msg.origin,
                payload=np.frombuffer(reason.encode(), dtype=np.uint8).copy(),
                request=msg.request,
            )
        )
