"""Per-rank progress engine: the MPI library's beating heart.

One :class:`ProgressEngine` exists per rank.  Every MPI call on that
rank enters through it, serialized by the **library lock** — the same
global critical section that makes ``MPI_THREAD_MULTIPLE`` slow in
production MPI implementations (paper Sections 2.2/3.3).  The engine
counts lock contention so benchmarks can observe exactly that effect.

Progress is *explicit*: envelopes delivered by peer ranks sit in this
rank's inbox until some thread calls :meth:`progress` (directly, or via
any blocking call / ``test`` / ``wait``).  In particular a rendezvous
send posted with ``isend`` completes only when the sender side pumps
progress after the receiver has matched (with a backlog the receiver
moves half the bytes, DESIGN.md §23) — reproducing the overlap
pathology the offload thread exists to fix.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.dst import hooks as _dst
from repro.mpisim import datatypes
from repro.mpisim.constants import DEFAULT_EAGER_THRESHOLD, PROC_NULL
from repro.mpisim.envelope import BufferRef, Envelope, EnvelopeKind
from repro.mpisim.exceptions import (
    CommRevokedError,
    DatatypeMismatch,
    MPIError,
    RankDeadError,
    TruncationError,
)
from repro.mpisim.matching import PostedReceiveQueue, UnexpectedQueue
from repro.mpisim.requests import (
    CompletedRequest,
    RecvRequest,
    Request,
    SendRequest,
)
from repro.mpisim.status import EMPTY_STATUS, Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.lockfree.atomics import Doorbell
    from repro.mpisim.nbc import NBCRequest

#: a split rendezvous's two parties count down under it (§23)
_split_lock = threading.Lock()


class ProgressEngine:
    """Matching, protocols and progress for one rank."""

    def __init__(
        self,
        rank: int,
        deliver: Callable[[int, Envelope], None],
        eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
        zero_copy: bool = False,
    ) -> None:
        self.rank = rank
        self._deliver = deliver  # world-level routing: (dst, env) -> None
        self.eager_threshold = eager_threshold
        #: zero-copy data plane (DESIGN.md §14): eager sends ship a
        #: *borrowed* :class:`BufferRef` aliasing the user buffer and
        #: complete at match time, after the single direct copy into
        #: the receiver's posted buffer.  Off by default: classic eager
        #: semantics (copy at post time, complete immediately).
        self.zero_copy = zero_copy
        self._inbox: deque[Envelope] = deque()
        self._prq = PostedReceiveQueue()
        self._umq = UnexpectedQueue()
        self._lock = threading.RLock()
        self._active_nbc: list["NBCRequest"] = []
        #: doorbells of whoever drives this rank's progress (an offload
        #: engine's ``_wake``, DESIGN.md §17): rung after every arrival
        #: and after every completion of a request this rank owns.
        #: Replaced, never mutated, so ringers iterate it without a
        #: lock; a ringer skips a bell that is rung already.
        self._doorbells: tuple[Doorbell, ...] = ()
        #: one-sided windows registered on this rank, by window id
        self._windows: dict[int, object] = {}
        #: rendezvous sends not yet terminal: two or more are a backlog,
        #: whose transfers the receiver splits (DESIGN.md §23)
        self.rndv_pending: set[SendRequest] = set()
        # --- introspection counters -------------------------------------
        self.lock_contentions = 0
        self.progress_calls = 0
        self.eager_sends = 0
        self.rendezvous_sends = 0
        #: rendezvous transfers this rank received split in halves
        self.rendezvous_splits = 0
        self.bytes_sent = 0
        self.envelopes_handled = 0
        #: intermediate payload materializations (send-time eager
        #: copies, fault-duplicate deep copies) — NOT the final copy
        #: into the receiver's posted buffer, which every protocol pays
        self.payload_copies = 0
        #: deliveries satisfied directly from the sender's user buffer
        #: (one copy total, no intermediate materialization)
        self.payload_zero_copy_hits = 0
        #: what is pending on this rank beyond its queues: callables
        #: returning description lines (an engine pool registers its
        #: ``pending_work`` while it runs), read by a hang report
        self.describers: list[Callable[[], list[str]]] = []
        #: fault-injection hook: a :class:`repro.faults.plan.FaultPlan`
        #: the world installs (else None; single `is None` check)
        self.faults = None
        #: ranks known dead, shared across the world's engines (empty
        #: dict in normal operation: the guard is one truthiness check)
        self.dead_ranks: dict[int, BaseException] = {}
        #: communicator ids this rank knows revoked (ULFM semantics,
        #: DESIGN.md §15).  Empty set in normal operation — every hot
        #: path guard is one truthiness check.
        self._revoked: set[int] = set()
        #: point-to-point context id -> global-to-local rank map, for
        #: every communicator on this rank whose numbering differs from
        #: the world's (registered by ``Communicator``); a receive
        #: posted there reports its status in local ranks
        self.local_ranks: dict[int, dict[int, int]] = {}
        # --- fault-tolerance counters (DESIGN.md §15) --------------------
        self.comm_revokes = 0
        self.agree_rounds = 0
        self.shrink_epochs = 0

    # -- library lock ------------------------------------------------------

    def _acquire(self) -> None:
        if not self._lock.acquire(blocking=False):
            self.lock_contentions += 1
            self._lock.acquire()

    def _release(self) -> None:
        self._lock.release()

    # -- envelope delivery (called by PEER rank threads) --------------------

    def inject(self, env: Envelope) -> None:
        """Called by a remote engine's thread; must not take our lock."""
        self._inbox.append(env)  # deque.append is atomic
        for bell in self._doorbells:  # publish, then ring
            if not bell._flag:
                bell.set()

    # -- doorbells ---------------------------------------------------------

    def add_doorbell(self, bell: Doorbell) -> None:
        """Have ``bell`` rung after every arrival (eager, RTS/CTS, RMA,
        REVOKE) and after every completion or failure of a request
        this rank owns — whichever thread causes it."""
        with self._lock:
            self._doorbells += (bell,)

    def remove_doorbell(self, bell: Doorbell) -> None:
        with self._lock:
            self._doorbells = tuple(
                b for b in self._doorbells if b is not bell
            )

    # -- posting -------------------------------------------------------------

    def post_send(
        self,
        payload: np.ndarray,
        dst: int,
        tag: int,
        context_id: int,
    ) -> Request:
        """Nonblocking send entry point (``isend``).

        Eager messages are buffered and complete immediately — unless
        :attr:`zero_copy` is on, in which case they ship a *borrowed*
        view of the user buffer and complete only once the receiver's
        match copies it (exactly one copy, paid at match time).
        Larger messages post a ready-to-send and complete once the
        rendezvous is driven to the data transfer by later progress.
        """
        if dst == PROC_NULL:
            return CompletedRequest()
        if self.dead_ranks and dst in self.dead_ranks:
            raise self._dead_peer(f"send to rank {dst}", dst, context_id)
        self._acquire()
        try:
            if self._revoked:
                self._check_revoked(context_id, f"send to rank {dst}")
            self.bytes_sent += payload.nbytes
            if payload.nbytes <= self.eager_threshold:
                self.eager_sends += 1
                if self.zero_copy:
                    req = SendRequest(self, payload, dst, tag, context_id)
                    env = Envelope(
                        kind=EnvelopeKind.EAGER,
                        src=self.rank,
                        dst=dst,
                        context_id=context_id,
                        tag=tag,
                        nbytes=payload.nbytes,
                        payload=BufferRef.borrow(payload),
                        send_req=req,
                    )
                    self._deliver(dst, env)
                    return req
                # Eager: copy now (this copy IS the cost the paper's
                # Figure 4 shows growing toward the 128 KB threshold).
                self.payload_copies += 1
                env = Envelope(
                    kind=EnvelopeKind.EAGER,
                    src=self.rank,
                    dst=dst,
                    context_id=context_id,
                    tag=tag,
                    nbytes=payload.nbytes,
                    payload=payload.copy(),
                )
                self._deliver(dst, env)
                return CompletedRequest(EMPTY_STATUS)
            # Rendezvous: hand off only a control message.
            self.rendezvous_sends += 1
            req = SendRequest(self, payload, dst, tag, context_id)
            self.rndv_pending.add(req)  # before a bounce completes it
            env = Envelope(
                kind=EnvelopeKind.RTS,
                src=self.rank,
                dst=dst,
                context_id=context_id,
                tag=tag,
                nbytes=payload.nbytes,
                send_req=req,
            )
            self._deliver(dst, env)
            return req
        finally:
            self._release()

    def post_recv(
        self,
        buffer: np.ndarray,
        source: int,
        tag: int,
        context_id: int,
    ) -> Request:
        """Nonblocking receive entry point (``irecv``)."""
        if source == PROC_NULL:
            return CompletedRequest(Status(PROC_NULL, tag, 0))
        self._acquire()
        try:
            # Drain arrivals first so the unexpected queue is current.
            # With nothing arrived and nothing revoked both steps are
            # no-ops and the call is skipped; anything that appends to
            # the inbox after this look is an arrival after the drain.
            if self._inbox or self._revoked:
                self._drain_then_check(
                    context_id, f"receive from rank {source}"
                )
            req = RecvRequest(self, buffer, source, tag, context_id)
            if self.local_ranks:
                req.local = self.local_ranks.get(context_id)
            env = self._umq.match(source, tag, context_id)
            if env is None:
                if self.dead_ranks and source in self.dead_ranks:
                    # Nothing already arrived can satisfy it and the
                    # source can never send again: fail fast.
                    raise self._dead_peer(
                        f"receive from rank {source}", source, context_id
                    )
                self._prq.post(req)
            else:
                self._match_pair(env, req)
            return req
        finally:
            self._release()

    def post_batch(self, ops: list[tuple]) -> tuple[list, bool]:
        """Post a run of operations under one hold of the library lock.

        ``ops`` are ``(is_send, buffer, peer, tag, context_id)`` tuples
        (global peer ranks); they are posted in order through
        :meth:`post_send` / :meth:`post_recv` — still the per-operation
        entry points, re-entering the (re-entrant) lock — so matching,
        protocol choice, revocation and dead-peer handling are exactly
        those of the same calls made one by one.  An operation whose
        lone post would have raised yields that exception in its place
        and the run goes on: op *k* failing says nothing about *k±1*.
        Returns the outcomes and whether any of them is an exception,
        so the caller of a clean run need not ask each one.
        """
        out: list = [None] * len(ops)
        raised = False
        i = 0
        self._acquire()
        try:
            for is_send, buffer, peer, tag, context_id in ops:
                try:
                    out[i] = (
                        self.post_send(buffer, peer, tag, context_id)
                        if is_send
                        else self.post_recv(buffer, peer, tag, context_id)
                    )
                except BaseException as exc:  # noqa: BLE001
                    # The caller owns every op's outcome: an exception
                    # escaping here would orphan the ops already posted.
                    out[i] = exc
                    raised = True
                i += 1
        finally:
            self._release()
        return out, raised

    def cancel_recv(self, req: RecvRequest) -> bool:
        """Withdraw an unmatched posted receive."""
        self._acquire()
        try:
            if req.done or req.matched:
                return False
            if self._prq.remove(req):
                req.cancelled = True
                req._complete(
                    Status(req.source, req.tag, 0, cancelled=True)
                )
                return True
            return False
        finally:
            self._release()

    # -- probing ---------------------------------------------------------------

    def iprobe(
        self, source: int, tag: int, context_id: int
    ) -> Status | None:
        """Nonblocking probe; also pumps progress (as real iprobe does)."""
        self._acquire()
        try:
            self._drain_then_check(context_id, f"probe of rank {source}")
            self._advance_nbc()
            env = self._umq.peek(source, tag, context_id)
            if env is None:
                return None
            return Status(env.src, env.tag, env.nbytes)
        finally:
            self._release()

    # -- progress ----------------------------------------------------------------

    def progress(self) -> int:
        """Pump the engine once; returns envelopes processed."""
        self._acquire()
        try:
            self.progress_calls += 1
            if self.faults is not None:
                # Straggler/stall sleeps happen inside this call (under
                # the library lock, so a stall wedges the rank); matured
                # DELAY'd messages are re-queued for delivery now.
                for env in self.faults.on_progress(self):
                    self._inbox.append(env)
            n = self._drain_inbox()
            self._advance_nbc()
            return n
        finally:
            self._release()

    # -- dead-rank handling ------------------------------------------------

    def _dead_peer(self, what: str, rank: int, context_id: int):
        """The error of an operation posted against dead ``rank``."""
        exc = self.dead_ranks[rank]
        return RankDeadError(
            f"{what} cannot complete: rank is dead ({exc})",
            rank=rank,
            rule_id=getattr(exc, "rule_id", None),
            cid=context_id >> 1 if context_id >= 0 else None,
        )

    def notify_rank_death(self, rank: int, exc: BaseException) -> None:
        """A peer rank died: fail everything here that depends on it.

        * posted receives naming ``rank`` as their source can never be
          matched — fail them with :class:`RankDeadError` now (bounded
          detection instead of a silent hang);
        * unexpected RTS control messages from ``rank`` reference a
          send that will never transfer — drop them and fail the
          (dead-owned) send request.

        EAGER envelopes from the dead rank stay receivable: their data
        already arrived, matching fail-stop MPI semantics for sends
        that completed before the failure.
        """
        err = _rank_dead_error(rank, exc)
        self._acquire()
        try:
            for req in self._prq.remove_where(
                lambda r: r.source == rank
            ):
                req._fail(err)
            for env in self._umq.remove_where(
                lambda e: e.src == rank and e.kind is EnvelopeKind.RTS
            ):
                self._poison_envelope(env, err)
        finally:
            self._release()

    def fail_pending_on_death(self, exc: BaseException) -> None:
        """*This* rank died: fail peers' requests parked on it.

        Peers' rendezvous sends (RTS in our inbox/unexpected queue),
        zero-copy eager sends still awaiting our match, and matched
        transfers awaiting our copy (CTS in our inbox) would otherwise
        wait forever for a progress pump that will never run.
        """
        err = _rank_dead_error(self.rank, exc)
        self._acquire()
        try:
            while True:
                try:
                    env = self._inbox.popleft()
                except IndexError:
                    break
                self._poison_envelope(env, err)
            for env in self._umq.remove_where(
                lambda e: e.kind is EnvelopeKind.RTS
                or e.send_req is not None
            ):
                self._poison_envelope(env, err)
            for req in self._prq.remove_where(lambda r: True):
                req._fail(err)
        finally:
            self._release()

    # -- communicator revocation (ULFM semantics, DESIGN.md §15) -----------

    def _check_revoked(self, context_id: int, what: str) -> None:
        """Fail-fast guard at every post entry point.

        Negative context ids belong to the fault-management plane
        (``Communicator.ctx_ft`` — the agreement protocol), which MUST
        keep working on a revoked communicator so survivors can agree
        and shrink; they bypass the guard by construction.
        """
        if (
            self._revoked
            and context_id >= 0
            and (context_id >> 1) in self._revoked
        ):
            cid = context_id >> 1
            raise CommRevokedError(
                f"{what}: communicator {cid} has been revoked", cid=cid
            )

    def _drain_then_check(self, context_id: int, what: str) -> None:
        """Bring the queues up to date, *then* refuse a revoked
        communicator.

        In that order because the drain may handle the REVOKE notice
        itself: :meth:`apply_revoke` purges the posted queue, and a
        receive checked before the drain and posted after it would sit
        on the revoked communicator for ever, never to fail (DST target
        ``revoke-vs-post-recv``).
        """
        self._drain_inbox()
        self._check_revoked(context_id, what)

    def apply_revoke(self, cid: int) -> bool:
        """Record ``cid`` revoked and poison everything queued on it.

        Idempotent; returns ``True`` only on the first application (the
        caller then propagates the revoke to peers).  Poisons, with
        :class:`CommRevokedError`:

        * every posted receive on the communicator's contexts,
        * every unexpected envelope on them (failing the sender's
          request where one is pending — zero-copy eager and RTS).

        The fault-management context (negative id) is untouched, so
        ``agree`` still runs on a revoked communicator.
        """
        if cid < 0:
            return False
        self._acquire()
        try:
            if cid in self._revoked:
                return False
            self._revoked.add(cid)
            self.comm_revokes += 1
            ctxs = (2 * cid, 2 * cid + 1)
            err = CommRevokedError(
                f"communicator {cid} has been revoked", cid=cid
            )
            for req in self._prq.remove_where(
                lambda r: r.context_id in ctxs
            ):
                req._fail(err)
            for env in self._umq.remove_where(
                lambda e: e.context_id in ctxs
            ):
                self._poison_envelope(env, err)
            return True
        finally:
            self._release()

    def shrink_cleanup(self, cid: int, dead: set[int]) -> None:
        """Post-shrink sweep: drop the dead peers' leftovers.

        Called once per survivor after ``Communicator.shrink`` agreed
        on the new membership: drains orphaned unexpected envelopes and
        posted receives tied to the old communicator (its p2p/coll
        contexts were already purged by :meth:`apply_revoke`; this
        additionally clears the fault-management context of stale
        agreement traffic from ranks that did not survive).
        """
        ctxs = (2 * cid, 2 * cid + 1, -(2 * cid + 2))
        err = CommRevokedError(
            f"communicator {cid} was shrunk away", cid=cid
        )
        self._acquire()
        try:
            self.shrink_epochs += 1
            for req in self._prq.remove_where(
                lambda r: r.context_id in ctxs and r.source in dead
            ):
                req._fail(err)
            for env in self._umq.remove_where(
                lambda e: e.context_id in ctxs and e.src in dead
            ):
                self._poison_envelope(env, err)
        finally:
            self._release()

    def _poison_envelope(self, env: Envelope, err: MPIError) -> None:
        """Terminally fail every live request an envelope references."""
        for req in (env.send_req, env.recv_req):
            if req is not None and not req.done:
                req._fail(err)

    # -- one-sided windows -------------------------------------------------

    def register_window(self, win) -> None:
        """Attach an RMA window so incoming records can be applied."""
        self._acquire()
        try:
            self._windows[win.win_id] = win
        finally:
            self._release()

    def unregister_window(self, win) -> None:
        self._acquire()
        try:
            self._windows.pop(win.win_id, None)
        finally:
            self._release()

    def send_rma(self, msg) -> None:
        """Ship a one-sided record to its target rank's engine."""
        env = Envelope(
            kind=EnvelopeKind.RMA,
            src=self.rank,
            dst=msg.target,
            context_id=-1,
            tag=-1,
            nbytes=msg.payload.nbytes if msg.payload is not None else 0,
            rma=msg,
        )
        self._deliver(msg.target, env)

    def register_nbc(self, req: "NBCRequest") -> None:
        """Track a schedule-based nonblocking collective for progress."""
        self._acquire()
        try:
            self._active_nbc.append(req)
        finally:
            self._release()

    def _advance_nbc(self) -> None:
        if not self._active_nbc:
            return
        still = []
        for req in self._active_nbc:
            try:
                req._advance()
            except MPIError as exc:
                req._fail(exc)
            if not req.done:
                still.append(req)
        self._active_nbc = still

    # -- internals ------------------------------------------------------------------

    def _drain_inbox(self) -> int:
        n = 0
        while True:
            try:
                env = self._inbox.popleft()
            except IndexError:
                return n
            n += 1
            self._handle(env)

    def _handle(self, env: Envelope) -> None:
        self.envelopes_handled += 1
        if env.revoked:
            # Piggybacked revoke notice: the sender knew these cids
            # were revoked when it sent — learn them before handling,
            # so no traffic from a revoke-aware rank is ever matched
            # on a communicator we should consider revoked.
            for cid in env.revoked:
                self.apply_revoke(cid)
        if env.kind is EnvelopeKind.REVOKE:
            self.apply_revoke(env.context_id >> 1)
            return
        if env.kind is EnvelopeKind.CTS:
            self._handle_cts(env)
            return
        if env.kind is EnvelopeKind.RMA:
            self._handle_rma(env)
            return
        if (
            self._revoked
            and env.context_id >= 0
            and (env.context_id >> 1) in self._revoked
        ):
            # The cid was revoked after this envelope left its sender:
            # without this check a zero-copy eager arrival would park
            # in the UMQ forever (nothing can legally receive it) and
            # its sender's request would never complete — the
            # shrink-vs-inflight-eager race in the DST corpus.
            cid = env.context_id >> 1
            self._poison_envelope(
                env,
                CommRevokedError(
                    f"communicator {cid} has been revoked", cid=cid
                ),
            )
            return
        # EAGER or RTS: try to match a posted receive.
        req = self._prq.match(env)
        if req is None:
            self._umq.add(env)
        else:
            self._match_pair(env, req)

    def _match_pair(self, env: Envelope, req: RecvRequest) -> None:
        """A receive and an envelope found each other."""
        req.matched = True
        if env.kind is EnvelopeKind.EAGER:
            payload = env.payload
            send_req = env.send_req
            assert payload is not None
            try:
                n = datatypes.copy_into(req.buffer, payload)
            except (TruncationError, DatatypeMismatch) as exc:
                req._fail(exc)
                # Truncation is the receiver's error (MPI_ERR_TRUNCATE
                # surfaces on the receive); the zero-copy sender's data
                # still left its buffer, so its request completes.
                if send_req is not None and not send_req.done:
                    send_req._complete(EMPTY_STATUS)
                return
            if isinstance(payload, BufferRef) and not payload.owned:
                # Single copy, straight out of the sender's live user
                # buffer into the posted receive: the zero-copy hit.
                self.payload_zero_copy_hits += 1
            if send_req is not None and not send_req.done:
                # Deferred completion: only now — with the bytes safely
                # in the receiver's buffer — does the sender's buffer
                # legally revert to the application.  Completing before
                # this copy is the classic zero-copy race (DST target
                # ``eager-deferred-copy``).
                send_req._complete(EMPTY_STATUS)
            req._complete(Status(env.src, env.tag, n))
        elif env.kind is EnvelopeKind.RTS:
            # Rendezvous: tell the sender where the data goes.  The
            # sender's engine performs the copy (its head half, when
            # split below) when IT next progresses.
            assert env.send_req is not None
            if env.nbytes > req.buffer.nbytes:
                # Fail fast on truncation: notify both sides.
                exc = TruncationError(
                    f"rendezvous message of {env.nbytes} bytes exceeds "
                    f"receive buffer of {req.buffer.nbytes}"
                )
                req._fail(exc)
                env.send_req._fail(exc)
                return
            # A sender with another rendezvous send outstanding has a
            # backlog its engine would copy one payload at a time: split
            # this one, the receiver moving the tail half (§23).
            split = (
                len(env.send_req.engine.rndv_pending) >= 2
                and req.buffer.flags.c_contiguous
            )
            cts = Envelope(
                kind=EnvelopeKind.CTS,
                src=self.rank,
                dst=env.src,
                context_id=env.context_id,
                tag=env.tag,
                nbytes=env.nbytes,
                send_req=env.send_req,
                recv_req=req,
                parties=2 if split else 0,
            )
            self._deliver(env.src, cts)
            if split:
                self.rendezvous_splits += 1
                _dst.yield_point("rendezvous.split")
                if not req.done:  # a bounced CTS failed it: hands off
                    _move_half(cts, head=False)
        else:  # pragma: no cover - defensive
            raise MPIError(f"unexpected envelope kind {env.kind}")

    def _handle_cts(self, env: Envelope) -> None:
        """Receiver granted clear-to-send: do the rendezvous transfer.

        Ranks share one address space, so the copy goes straight into
        the receiver's buffer; completing the receive request from this
        (the sender's) thread is safe because the buffer is exclusively
        owned by the pending receive until completion.
        """
        send_req = env.send_req
        recv_req = env.recv_req
        assert send_req is not None and recv_req is not None
        if env.parties:  # split (§23): the head half is ours
            _move_half(env, head=True)
            return
        n = datatypes.copy_into(recv_req.buffer, send_req.payload)
        send_req._complete(EMPTY_STATUS)
        recv_req._complete(Status(send_req.engine.rank, env.tag, n))

    def _handle_rma(self, env: Envelope) -> None:
        """Apply a one-sided record to its window (we are the target,
        or the origin for replies/acks)."""
        msg = env.rma
        win = self._windows.get(msg.win_id)
        if win is None:
            # Window not (yet/anymore) attached here: fail the origin.
            if msg.request is not None and msg.op not in ("ack", "nack"):
                from repro.mpisim.rma import RMAError

                msg.request._fail(
                    RMAError(
                        f"window {msg.win_id} not registered on rank "
                        f"{self.rank}"
                    )
                )
            return
        win._apply(msg, self)

    # -- diagnostics --------------------------------------------------------------------

    def pending_counts(self) -> dict[str, int]:
        """Snapshot of queue depths (diagnostic)."""
        self._acquire()
        try:
            return {
                "inbox": len(self._inbox),
                "posted_recvs": len(self._prq),
                "unexpected": len(self._umq),
                "active_nbc": len(self._active_nbc),
            }
        finally:
            self._release()

    def counters(self) -> dict[str, int]:
        """All introspection counters plus current queue depths, as one
        flat dict (consumed by :mod:`repro.obs.report`)."""
        out = {
            "progress_calls": self.progress_calls,
            "lock_contentions": self.lock_contentions,
            "eager_sends": self.eager_sends,
            "rendezvous_sends": self.rendezvous_sends,
            "rendezvous_splits": self.rendezvous_splits,
            "bytes_sent": self.bytes_sent,
            "envelopes_handled": self.envelopes_handled,
            "payload_copies": self.payload_copies,
            "payload_zero_copy_hits": self.payload_zero_copy_hits,
            "comm_revokes": self.comm_revokes,
            "agree_rounds": self.agree_rounds,
            "shrink_epochs": self.shrink_epochs,
        }
        out.update(self.pending_counts())
        return out


def _move_half(cts: Envelope, head: bool) -> None:
    """Copy one half of a split rendezvous (the sender's is the head).
    The second half to land completes both requests, bar those a death
    or bounce sweep made terminal first (DESIGN.md §23)."""
    h = cts.nbytes // 2
    part = slice(0, h) if head else slice(h, cts.nbytes)
    src = cts.send_req.payload.reshape(-1).view(np.uint8)
    dst = cts.recv_req.buffer.reshape(-1).view(np.uint8)
    datatypes.copy_into(dst[part], src[part])
    with _split_lock:
        cts.parties -= 1
        if cts.parties:
            return
    if not cts.send_req.done:
        cts.send_req._complete(EMPTY_STATUS)
    if not cts.recv_req.done:
        cts.recv_req._complete(Status(cts.dst, cts.tag, cts.nbytes))


def _rank_dead_error(rank: int, exc: BaseException) -> RankDeadError:
    """Build the canonical "rank died" error, carrying structured
    context: the dead rank and — when the death was injected by a
    :class:`repro.faults.plan.FaultRule` — the originating rule id."""
    rule_id = getattr(exc, "rule_id", None)
    via = "" if rule_id is None else f" [fault-rule {rule_id}]"
    return RankDeadError(
        f"rank {rank} died{via}: {exc}", rank=rank, rule_id=rule_id
    )
