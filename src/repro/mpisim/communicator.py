"""The user-facing communicator: point-to-point, probes, collectives.

Mirrors mpi4py conventions: buffer methods (``send``/``recv``/...)
move NumPy arrays or buffer-protocol objects with zero pickling;
``*_obj`` variants move arbitrary picklable Python objects.

Thread-level rules (paper Section 1/3.3) are enforced at every entry
point:

* ``THREAD_SINGLE`` / ``THREAD_FUNNELED`` — only the rank's designated
  funnel thread may call MPI (the offload engine re-designates this to
  its communication thread);
* ``THREAD_SERIALIZED`` — any thread, but concurrent entry is an error
  and is detected;
* ``THREAD_MULTIPLE`` — anything goes; the price is library-lock
  contention, which the engine counts.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.dst import hooks as _dst
from repro.mpisim import datatypes
from repro.mpisim.constants import (
    ANY_SOURCE,
    ANY_TAG,
    MAX_USER_TAG,
    PROC_NULL,
    ThreadLevel,
)
from repro.mpisim.envelope import Envelope, EnvelopeKind
from repro.mpisim.exceptions import (
    InvalidRankError,
    InvalidTagError,
    MPIError,
    RankDeadError,
    ThreadLevelError,
)
from repro.mpisim.reduce_ops import ReduceOp, SUM
from repro.mpisim.requests import Request
from repro.mpisim.status import Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.progress import ProgressEngine
    from repro.mpisim.world import World

#: Internal tag space base for collective traffic (beyond user tags).
_COLL_TAG_BASE = MAX_USER_TAG + 1

#: Agreement-protocol message kinds (wire word [1] of an ft message).
_FT_CAND = 0  # candidate value for a round
_FT_DECIDED = 1  # final value; receivers adopt and re-disseminate


class Communicator:
    """Per-rank communicator handle.

    Instances are cheap views over a shared (group, context) identity;
    ``dup``/``split`` are collective calls producing new identities.
    """

    def __init__(
        self,
        world: "World",
        engine: "ProgressEngine",
        group: tuple[int, ...],
        cid: int,
    ) -> None:
        self.world = world
        self.engine = engine
        self.group = group
        self.cid = cid
        #: context ids: even for point-to-point, odd for collectives
        self.ctx_p2p = 2 * cid
        self.ctx_coll = 2 * cid + 1
        #: fault-management context (negative by construction): the
        #: ULFM plane — ``agree``/``shrink`` traffic — which bypasses
        #: every revoked-communicator guard, so survivors can still
        #: coordinate on a revoked communicator (DESIGN.md §15)
        self.ctx_ft = -(2 * cid + 2)
        self.rank = group.index(engine.rank)
        self.size = len(group)
        #: global rank -> comm-local rank, or None when the two
        #: numberings coincide (the world communicator and its dups)
        self._local_rank: dict[int, int] | None = (
            None
            if group == tuple(range(len(group)))
            else {g: i for i, g in enumerate(group)}
        )
        if self._local_rank is not None:
            engine.local_ranks[self.ctx_p2p] = self._local_rank
        self._coll_seq = 0
        self._coll_lock = threading.Lock()
        #: agreement epoch counter (one per ``agree`` call; collective
        #: call order keeps survivors' epochs aligned)
        self._agree_seq = 0
        self._agree_lock = threading.Lock()
        #: ft-plane messages pulled but belonging to a later epoch,
        #: per comm-local peer (consumed before posting new receives)
        self._ft_backlog: dict[int, deque[np.ndarray]] = {}
        self._serial_guard: int | None = None
        self._serial_lock = threading.Lock()

    # ------------------------------------------------------------------ basics

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Communicator(cid={self.cid}, rank={self.rank}/{self.size})"
        )

    @property
    def thread_level(self) -> ThreadLevel:
        return self.world.thread_level

    # ------------------------------------------------------- thread-level police

    def _enter(self) -> None:
        level = self.world.thread_level
        ident = threading.get_ident()
        if level <= ThreadLevel.FUNNELED:
            funnel = self.world.funnel_thread(self.engine.rank)
            if funnel is not None and ident != funnel:
                raise ThreadLevelError(
                    f"thread {ident} called MPI under "
                    f"{'THREAD_SINGLE' if level == ThreadLevel.SINGLE else 'THREAD_FUNNELED'}; "
                    f"only thread {funnel} may"
                )
        elif level == ThreadLevel.SERIALIZED:
            with self._serial_lock:
                if self._serial_guard is not None and self._serial_guard != ident:
                    raise ThreadLevelError(
                        "concurrent MPI calls detected under THREAD_SERIALIZED "
                        f"(threads {self._serial_guard} and {ident})"
                    )
                self._serial_guard = ident

    def _exit(self) -> None:
        if self.world.thread_level == ThreadLevel.SERIALIZED:
            with self._serial_lock:
                if self._serial_guard == threading.get_ident():
                    self._serial_guard = None

    # ----------------------------------------------------------------- checking

    def _check_rank(self, r: int, *, wildcard: bool = False) -> None:
        if r == PROC_NULL:
            return
        if wildcard and r == ANY_SOURCE:
            return
        if not 0 <= r < self.size:
            raise InvalidRankError(
                f"rank {r} outside communicator of size {self.size}"
            )

    @staticmethod
    def _check_tag(tag: int, *, wildcard: bool = False) -> None:
        if wildcard and tag == ANY_TAG:
            return
        if not 0 <= tag <= MAX_USER_TAG:
            raise InvalidTagError(f"tag {tag} out of range")

    def _global(self, r: int) -> int:
        return r if r == PROC_NULL else self.group[r]

    # -------------------------------------------------------------- internal p2p
    # Used by collectives: explicit context, no thread-level re-entry check.

    def _isend_internal(
        self, payload: np.ndarray, dst: int, tag: int, ctx: int
    ) -> Request:
        return self.engine.post_send(
            datatypes.as_send_buffer(payload), self._global(dst), tag, ctx
        )

    def _irecv_internal(
        self, buffer: np.ndarray, src: int, tag: int, ctx: int
    ) -> Request:
        return self.engine.post_recv(
            datatypes.as_recv_buffer(buffer), self._global(src), tag, ctx
        )

    def next_coll_tag(self) -> int:
        """Per-communicator collective sequence number.

        MPI requires all ranks to issue collectives on a communicator in
        the same order, so each rank's local counter yields identical
        tags for the matching calls.
        """
        with self._coll_lock:
            tag = _COLL_TAG_BASE + self._coll_seq
            self._coll_seq += 1
            return tag

    # ---------------------------------------------------------------- public p2p

    def isend(self, buf: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking buffer send."""
        self._enter()
        try:
            self._check_rank(dest)
            self._check_tag(tag)
            payload = datatypes.as_send_buffer(buf)
            return self.engine.post_send(
                payload, self._global(dest), tag, self.ctx_p2p
            )
        finally:
            self._exit()

    def irecv(
        self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Request:
        """Nonblocking buffer receive."""
        self._enter()
        try:
            self._check_rank(source, wildcard=True)
            self._check_tag(tag, wildcard=True)
            buffer = datatypes.as_recv_buffer(buf)
            gsrc = source if source in (ANY_SOURCE, PROC_NULL) else self.group[source]
            return self.engine.post_recv(buffer, gsrc, tag, self.ctx_p2p)
        finally:
            self._exit()

    def send(self, buf: Any, dest: int, tag: int = 0) -> None:
        """Blocking buffer send (returns when the buffer is reusable)."""
        self.isend(buf, dest, tag).wait()

    def recv(
        self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Status:
        """Blocking buffer receive; returns the message status."""
        return self.irecv(buf, source, tag).wait()

    def sendrecv(
        self,
        sendbuf: Any,
        dest: int,
        recvbuf: Any,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Status:
        """Combined send+receive; deadlock-free for exchange patterns."""
        # Validate the send before the receive is posted: a send that
        # raises must not leave the receive behind to match the next
        # message from ``source``.
        self._p2p_op(True, sendbuf, dest, sendtag)
        rreq = self.irecv(recvbuf, source, recvtag)
        sreq = self.isend(sendbuf, dest, sendtag)
        sreq.wait()
        return rreq.wait()

    def _localize_status(self, st: Status) -> Status:
        """Convert the engine's global source rank to a comm-local one."""
        local = self._local_rank
        if local is None or st.source < 0:
            return st
        return Status(local[st.source], st.tag, st.count, st.cancelled)

    # ---------------------------------------------------------- runs of p2p
    # The offload engine posts a drained run of point-to-point commands
    # through these two: per-op validation, then one thread-level
    # check and one substrate entry for the whole run (DESIGN.md §19).

    def _p2p_op(self, is_send: bool, buf: Any, peer: int, tag: int) -> tuple:
        """Validate and normalise one ``isend``/``irecv`` into the op
        tuple :meth:`ProgressEngine.post_batch` takes; raises exactly
        what the lone call would have raised before entering the
        substrate."""
        # In-range arguments (the common case) take no call; anything
        # else goes through the checkers for the wildcard rules.
        if not 0 <= peer < self.size:
            self._check_rank(peer, wildcard=not is_send)
        if not 0 <= tag <= MAX_USER_TAG:
            self._check_tag(tag, wildcard=not is_send)
        buffer = (
            datatypes.as_send_buffer(buf)
            if is_send
            else datatypes.as_recv_buffer(buf)
        )
        # negative peers (ANY_SOURCE, PROC_NULL) are not group members
        gpeer = self.group[peer] if peer >= 0 else peer
        return (is_send, buffer, gpeer, tag, self.ctx_p2p)

    def _post_run(self, ops: list[tuple]) -> tuple[list, bool]:
        """Post a run of :meth:`_p2p_op` tuples in order; per op the
        request, or the exception its lone post would have raised —
        and whether any did raise."""
        self._enter()
        try:
            return self.engine.post_batch(ops)
        finally:
            self._exit()

    # -------------------------------------------------------------------- probes

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Status | None:
        """Nonblocking probe.  Also drives progress — which is exactly
        how the paper's *iprobe* approach uses it (Section 2.1)."""
        self._enter()
        try:
            self._check_rank(source, wildcard=True)
            self._check_tag(tag, wildcard=True)
            gsrc = source if source == ANY_SOURCE else self.group[source]
            st = self.engine.iprobe(gsrc, tag, self.ctx_p2p)
            return None if st is None else self._localize_status(st)
        finally:
            self._exit()

    def probe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Status:
        """Blocking probe."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            st = self.iprobe(source, tag)
            if st is not None:
                return st
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeoutError("probe timed out")
            time.sleep(1e-5)

    # ------------------------------------------------------------------- objects

    def isend_obj(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking pickled-object send."""
        return self.isend(datatypes.pack_object(obj), dest, tag)

    def send_obj(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking pickled-object send."""
        self.isend_obj(obj, dest, tag).wait()

    def recv_obj(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Any:
        """Blocking pickled-object receive.

        Probes for the matching message to size the buffer, then
        receives it.  FIFO matching guarantees the subsequent receive
        takes the same message the probe saw.
        """
        st = self.probe(source, tag, timeout=timeout)
        buf = np.empty(st.count, dtype=np.uint8)
        self.recv(buf, st.source, st.tag)
        return datatypes.unpack_object(buf)

    # --------------------------------------------------------------- collectives
    # Implemented in repro.mpisim.collectives / nbc; thin wrappers here.

    def barrier(self) -> None:
        from repro.mpisim import collectives

        self._enter()
        try:
            collectives.barrier(self)
        finally:
            self._exit()

    def bcast(self, buf: Any, root: int = 0) -> None:
        from repro.mpisim import collectives

        self._enter()
        try:
            self._check_rank(root)
            collectives.bcast(self, buf, root)
        finally:
            self._exit()

    def bcast_obj(self, obj: Any = None, root: int = 0) -> Any:
        from repro.mpisim import collectives

        self._enter()
        try:
            self._check_rank(root)
            return collectives.bcast_obj(self, obj, root)
        finally:
            self._exit()

    def reduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        op: ReduceOp = SUM,
        root: int = 0,
    ) -> np.ndarray | None:
        from repro.mpisim import collectives

        self._enter()
        try:
            self._check_rank(root)
            return collectives.reduce(self, sendbuf, recvbuf, op, root)
        finally:
            self._exit()

    def allreduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        op: ReduceOp = SUM,
    ) -> np.ndarray:
        from repro.mpisim import collectives

        self._enter()
        try:
            return collectives.allreduce(self, sendbuf, recvbuf, op)
        finally:
            self._exit()

    def gather(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        root: int = 0,
    ) -> np.ndarray | None:
        from repro.mpisim import collectives

        self._enter()
        try:
            self._check_rank(root)
            return collectives.gather(self, sendbuf, recvbuf, root)
        finally:
            self._exit()

    def scatter(
        self,
        sendbuf: np.ndarray | None,
        recvbuf: np.ndarray,
        root: int = 0,
    ) -> np.ndarray:
        from repro.mpisim import collectives

        self._enter()
        try:
            self._check_rank(root)
            return collectives.scatter(self, sendbuf, recvbuf, root)
        finally:
            self._exit()

    def allgather(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray | None = None
    ) -> np.ndarray:
        from repro.mpisim import collectives

        self._enter()
        try:
            return collectives.allgather(self, sendbuf, recvbuf)
        finally:
            self._exit()

    def alltoall(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray | None = None
    ) -> np.ndarray:
        from repro.mpisim import collectives

        self._enter()
        try:
            return collectives.alltoall(self, sendbuf, recvbuf)
        finally:
            self._exit()

    def gatherv(
        self,
        sendbuf: np.ndarray,
        recvcounts,
        recvbuf: np.ndarray | None = None,
        root: int = 0,
    ) -> np.ndarray | None:
        from repro.mpisim import collectives

        self._enter()
        try:
            self._check_rank(root)
            return collectives.gatherv(self, sendbuf, recvcounts, recvbuf, root)
        finally:
            self._exit()

    def scatterv(
        self,
        sendbuf: np.ndarray | None,
        sendcounts,
        recvbuf: np.ndarray,
        root: int = 0,
    ) -> np.ndarray:
        from repro.mpisim import collectives

        self._enter()
        try:
            self._check_rank(root)
            return collectives.scatterv(self, sendbuf, sendcounts, recvbuf, root)
        finally:
            self._exit()

    def alltoallv(
        self,
        sendbuf: np.ndarray,
        sendcounts,
        recvbuf: np.ndarray,
        recvcounts,
    ) -> np.ndarray:
        from repro.mpisim import collectives

        self._enter()
        try:
            return collectives.alltoallv(
                self, sendbuf, sendcounts, recvbuf, recvcounts
            )
        finally:
            self._exit()

    def reduce_scatter(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        op: ReduceOp = SUM,
    ) -> np.ndarray:
        from repro.mpisim import collectives

        self._enter()
        try:
            return collectives.reduce_scatter(self, sendbuf, recvbuf, op)
        finally:
            self._exit()

    def scan(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        op: ReduceOp = SUM,
    ) -> np.ndarray:
        from repro.mpisim import collectives

        self._enter()
        try:
            return collectives.scan(self, sendbuf, recvbuf, op)
        finally:
            self._exit()

    # ---------------------------------------------------- nonblocking collectives

    def ibarrier(self) -> Request:
        from repro.mpisim import nbc

        self._enter()
        try:
            return nbc.ibarrier(self)
        finally:
            self._exit()

    def ibcast(self, buf: np.ndarray, root: int = 0) -> Request:
        from repro.mpisim import nbc

        self._enter()
        try:
            self._check_rank(root)
            return nbc.ibcast(self, buf, root)
        finally:
            self._exit()

    def iallreduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        op: ReduceOp = SUM,
    ) -> Request:
        from repro.mpisim import nbc

        self._enter()
        try:
            return nbc.iallreduce(self, sendbuf, recvbuf, op)
        finally:
            self._exit()

    def igather(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray | None = None,
        root: int = 0,
    ) -> Request:
        from repro.mpisim import nbc

        self._enter()
        try:
            self._check_rank(root)
            return nbc.igather(self, sendbuf, recvbuf, root)
        finally:
            self._exit()

    def ialltoall(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray
    ) -> Request:
        from repro.mpisim import nbc

        self._enter()
        try:
            return nbc.ialltoall(self, sendbuf, recvbuf)
        finally:
            self._exit()

    # ---------------------------------------------- fault tolerance (ULFM)
    # The fault-management plane: callable from any thread (no _enter —
    # recovery must run even when the funnel/offload thread is the
    # casualty), working even on a revoked communicator (ctx_ft is
    # negative, bypassing every revoked guard).  DESIGN.md §15.

    @property
    def revoked(self) -> bool:
        """Has this communicator been revoked (locally known)?"""
        return self.cid in self.engine._revoked

    def revoke(self) -> None:
        """Revoke the communicator (ULFM ``MPI_Comm_revoke``).

        Poisons every in-flight and future operation on it — locally at
        once, remotely via an explicit ``REVOKE`` notice to every group
        member plus piggybacked notices on all subsequent traffic
        (``World._deliver`` stamps them), so peers learn of the revoke
        without a side channel.  Idempotent; never raises on dead peers.
        """
        if not self.engine.apply_revoke(self.cid):
            return
        for g in self.group:
            if g == self.engine.rank:
                continue
            self.world._deliver(
                g,
                Envelope(
                    kind=EnvelopeKind.REVOKE,
                    src=self.engine.rank,
                    dst=g,
                    context_id=self.ctx_p2p,
                    tag=-1,
                    nbytes=0,
                ),
            )

    # -- agreement ---------------------------------------------------------

    def _ft_send(
        self, peer: int, epoch: int, kind: int, rnd: int, value: int,
        mask_bits: int,
    ) -> None:
        """Ship one ft-plane word to comm-local ``peer`` (eager, 40 B)."""
        msg = np.array(
            [epoch, kind, rnd, value, mask_bits], dtype=np.int64
        )
        self.engine.post_send(msg, self.group[peer], 0, self.ctx_ft)

    def _ft_wait(self, req: Request, deadline: float) -> None:
        """Actively pump progress until ``req`` completes.

        Must not park on the request event: nobody else pumps this
        rank's engine during agreement, so the waiter drives its own
        progress.  Under a DST scheduler each iteration is a yield
        point instead of a sleep, keeping the wait replayable.
        """
        while True:
            self.engine.progress()
            if req.done:
                if req.error is not None:
                    raise req.error
                return
            if _dst.is_virtual_thread():
                _dst.yield_point("agree.recv_wait")
            else:
                if time.perf_counter() > deadline:
                    raise MPIError(
                        "agree: timed out waiting for a peer message"
                    )
                time.sleep(1e-5)

    def _ft_next_msg(
        self, peer: int, epoch: int, deadline: float
    ) -> np.ndarray:
        """Next ft-plane message from ``peer`` with epoch >= ``epoch``.

        Stale-epoch messages (leftovers of an agreement this rank
        already finished) are dropped; per-pair FIFO guarantees a
        peer's traffic arrives in the order it was sent, so the first
        non-stale message is the relevant one.
        """
        backlog = self._ft_backlog.setdefault(peer, deque())
        while True:
            while backlog:
                msg = backlog.popleft()
                if int(msg[0]) >= epoch:
                    return msg
            buf = np.empty(5, dtype=np.int64)
            req = self.engine.post_recv(
                buf, self.group[peer], 0, self.ctx_ft
            )
            self._ft_wait(req, deadline)
            if int(buf[0]) >= epoch:
                return buf.copy()

    def agree(self, flag: int = 1, timeout: float = 60.0) -> int:
        """Fault-tolerant agreement (ULFM ``MPI_Comm_agree``).

        Returns the bitwise AND of every participant's ``flag``, with
        the guarantee that **all survivors return the same value** even
        when participants die mid-protocol.  Works on a revoked
        communicator (it runs on the fault-management context).

        Protocol (DESIGN.md §15): rounds of all-to-all candidate
        exchange.  Each round a rank sends ``CAND(epoch, round, cand,
        mask)`` to every peer it believes live, then gathers exactly
        one in-round message from each; a round *decides* only if no
        send or receive failed, every gathered message was this exact
        round's candidate, and every participant reported the identical
        live-mask — i.e. all deciders of a round consumed identical
        candidate sets, hence compute identical values.  Non-deciders
        retry; per-pair FIFO means they next consume a decider's
        ``DECIDED`` notice and adopt its value, re-disseminating before
        returning so chains of adopters stay consistent.  Candidates
        only shrink (bitwise AND is monotone), and the shared dead-rank
        table means live-masks converge once deaths stop — so the loop
        terminates.
        """
        with self._agree_lock:
            epoch = self._agree_seq
            self._agree_seq += 1
        deadline = time.perf_counter() + timeout
        cand = int(flag)
        max_rounds = 4 * self.size + 8
        stash: dict[int, np.ndarray] = {}
        rnd = 0
        decided_value: int | None = None
        while decided_value is None:
            rnd += 1
            if rnd > max_rounds:
                raise MPIError(
                    f"agree: no decision after {max_rounds} rounds "
                    f"(cid {self.cid}, epoch {epoch})"
                )
            decisive, cand, decided_value = self._agree_round(
                epoch, rnd, cand, stash, deadline
            )
            if decisive and decided_value is None:
                decided_value = cand
        # Decision reached (own or adopted): disseminate before
        # returning, so peers still gathering consume DECIDED as this
        # rank's next message and adopt the same value.
        dead = self.world.dead_ranks
        for i in range(self.size):
            if i == self.rank or self.group[i] in dead:
                continue
            try:
                self._ft_send(
                    i, epoch, _FT_DECIDED, rnd, decided_value, 0
                )
            except RankDeadError:
                pass
        return decided_value

    def _agree_round(
        self,
        epoch: int,
        rnd: int,
        cand: int,
        stash: dict[int, np.ndarray],
        deadline: float,
    ) -> tuple[bool, int, int | None]:
        """One round of :meth:`agree`: send the candidate to every peer
        this rank believes live, then gather one message from each.

        Returns ``(decisive, cand, adopted)``: whether the round may
        decide, the candidate ANDed with everything gathered, and the
        value of a ``DECIDED`` notice if one arrived instead (else
        ``None``).
        """
        eng = self.engine
        eng.agree_rounds += 1
        dead = self.world.dead_ranks
        mask = [
            i
            for i in range(self.size)
            if self.group[i] == eng.rank or self.group[i] not in dead
        ]
        mask_bits = 0
        for i in mask:
            mask_bits |= 1 << i
        decisive = True
        for i in mask:
            if i == self.rank:
                continue
            try:
                self._ft_send(i, epoch, _FT_CAND, rnd, cand, mask_bits)
            except RankDeadError:
                decisive = False
        for i in mask:
            if i == self.rank:
                continue
            msg = stash.pop(i, None)
            while True:
                if msg is None:
                    try:
                        msg = self._ft_next_msg(i, epoch, deadline)
                    except RankDeadError:
                        decisive = False
                        break
                if int(msg[1]) == _FT_DECIDED:
                    return decisive, cand, int(msg[3])
                mrnd = int(msg[2])
                if mrnd < rnd:
                    # Stale round (we retried past it): drop.
                    msg = None
                    continue
                cand &= int(msg[3])
                if mrnd > rnd:
                    # Peer ran ahead; its value is safe to AND
                    # (monotone) but deciding on drifted rounds is
                    # not — keep it for the round it belongs to.
                    stash[i] = msg
                    decisive = False
                if int(msg[4]) != mask_bits:
                    decisive = False
                break
        return decisive, cand, None

    def shrink(self, timeout: float = 60.0) -> "Communicator":
        """Build a live-members-only communicator (ULFM ``MPI_Comm_shrink``).

        Revokes this communicator (idempotent), agrees on the surviving
        membership, renumbers ranks in old-group order, and drains the
        dead peers' orphaned queue entries.  Every survivor returns a
        communicator with the identical (group, context) identity; a
        repeat death during the protocol restarts the membership
        agreement, so the result is always a membership every survivor
        confirmed *after* it was fixed.
        """
        eng = self.engine
        world = self.world
        self.revoke()
        deadline = time.perf_counter() + timeout
        attempts = 0
        while True:
            attempts += 1
            if attempts > self.size + 2:
                raise MPIError(
                    f"shrink: membership did not stabilize after "
                    f"{attempts - 1} attempts (cid {self.cid})"
                )
            budget = max(1.0, deadline - time.perf_counter())
            dead = world.dead_ranks
            my_mask = 0
            for i in range(self.size):
                if (
                    self.group[i] == eng.rank
                    or self.group[i] not in dead
                ):
                    my_mask |= 1 << i
            agreed_mask = self.agree(my_mask, timeout=budget)
            members = [
                self.group[i]
                for i in range(self.size)
                if (agreed_mask >> i) & 1
            ]
            if eng.rank not in members:
                raise MPIError(
                    f"shrink: rank {eng.rank} excluded from the agreed "
                    f"membership (marked dead by a peer)"
                )
            # Confirmation pass: 1 iff no agreed member has died since.
            # Running it through agree keeps every survivor's epoch
            # counter aligned and the verdict identical everywhere.
            dead = world.dead_ranks
            ok = 1 if all(
                g == eng.rank or g not in dead for g in members
            ) else 0
            if self.agree(ok, timeout=budget):
                break
        dead_snapshot = set(world.dead_ranks)
        new_cid = world.allocate_cid_keyed(
            ("shrink", self.cid, self._agree_seq)
        )
        eng.shrink_cleanup(self.cid, dead_snapshot)
        return Communicator(world, eng, tuple(members), new_cid)

    # ------------------------------------------------------- communicator algebra

    def dup(self) -> "Communicator":
        """Collective duplicate with a fresh context."""
        self._enter()
        try:
            cid_buf = np.empty(1, dtype=np.int64)
            if self.rank == 0:
                cid_buf[0] = self.world.allocate_cid()
            from repro.mpisim import collectives

            collectives.bcast(self, cid_buf, 0)
            return Communicator(
                self.world, self.engine, self.group, int(cid_buf[0])
            )
        finally:
            self._exit()

    def split(self, color: int | None, key: int = 0) -> "Communicator | None":
        """Collective split into disjoint sub-communicators.

        ``color=None`` opts out (returns ``None``), like
        ``MPI_UNDEFINED``.
        """
        self._enter()
        try:
            from repro.mpisim import collectives

            # Exchange (color, key, global rank); None -> sentinel.
            mine = np.array(
                [
                    -1 if color is None else color,
                    key,
                    self.engine.rank,
                ],
                dtype=np.int64,
            )
            table = collectives.allgather(self, mine)
            table = table.reshape(self.size, 3)
            colors = sorted({int(c) for c in table[:, 0] if c >= 0})
            base_buf = np.empty(1, dtype=np.int64)
            if self.rank == 0:
                base_buf[0] = self.world.allocate_cid_block(
                    max(1, len(colors))
                )
            collectives.bcast(self, base_buf, 0)
            if color is None:
                return None
            members = [
                (int(k), int(g))
                for c, k, g in table
                if int(c) == color
            ]
            # Sort by key, breaking ties by original global rank.
            members.sort()
            group = tuple(g for _, g in members)
            cid = int(base_buf[0]) + colors.index(color)
            return Communicator(self.world, self.engine, group, cid)
        finally:
            self._exit()

    def translate_rank(self, local_rank: int) -> int:
        """Map a comm-local rank to a world rank."""
        self._check_rank(local_rank)
        return self.group[local_rank]

    def send_init(self, buf: Any, dest: int, tag: int = 0):
        """Create a persistent send bound to ``buf`` (``MPI_Send_init``);
        fire with ``.start()``, complete with ``.wait()``, repeat."""
        from repro.mpisim.persistent import PersistentSend

        self._check_rank(dest)
        self._check_tag(tag)
        return PersistentSend(self, buf, dest, tag)

    def recv_init(self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Create a persistent receive bound to ``buf``."""
        from repro.mpisim.persistent import PersistentRecv

        self._check_rank(source, wildcard=True)
        self._check_tag(tag, wildcard=True)
        return PersistentRecv(self, buf, source, tag)

    def win_create(self, local: np.ndarray):
        """Collectively create a one-sided RMA window (see
        :mod:`repro.mpisim.rma`)."""
        from repro.mpisim.rma import Window

        self._enter()
        try:
            return Window.create(self, local)
        finally:
            self._exit()

    def progress(self) -> int:
        """Explicitly pump this rank's progress engine."""
        return self.engine.progress()
