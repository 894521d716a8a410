"""DST regression corpus: known races re-run as explorer targets.

:data:`CORPUS` is the table.  Each row names a program, what it
checks, how to explore it and — for a target whose clean run is a
proof — the size of the schedule tree that run exhausts.

A *regression* target keeps a fixed race alive.  Its program takes
``fix_disabled``: with the fix on it runs the unmodified production
classes, so a clean run is a statement about shipped code; with the
fix off the harness swaps in the broken variant, a subclass or
stand-in defined here next to its program that steps the real code
(answering one look from memory, forgetting one step, or putting the
scheduler between steps).  Production carries no switch for any of
them.  The self-check (:func:`run_corpus`, ``python -m repro dst``)
demands both directions: the broken variant found within the budget,
the production code clean over it.

An *oracle* target records an operation history of a lock-free
structure and checks it against a sequential model spec
(:mod:`repro.dst.linearize`) — it catches classes of bugs no
hand-written invariant anticipates.

This module imports :mod:`repro.core` and therefore must never be
imported from :mod:`repro.dst.hooks`'s import path (see the package
docstring); consumers reach it via ``repro.dst.targets`` directly or
lazily through ``repro.dst``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from repro.core.commands import Command, CommandKind
from repro.core.engine import _BATCH, OffloadEngine
from repro.core.engine_pool import EnginePool, ShardRouter
from repro.core.request_pool import (
    OffloadEngineDied,
    OffloadError,
    OffloadRequest,
    OffloadRequestPool,
    _Slot,
)
from repro.dst import hooks as _dst
from repro.dst.explorer import ExplorationResult, Explorer, InvariantViolation
from repro.dst.linearize import (
    FreeListSpec,
    History,
    QueueSpec,
    RequestPoolSpec,
)
from repro.lockfree.atomics import AtomicFlag, DoneWord
from repro.lockfree.freelist import (
    DoubleFree,
    FreeList,
    FreeListExhausted,
)
from repro.lockfree.mpsc_queue import MPSCQueue, QueueClosed, QueueFull
from repro.mpisim.communicator import _FT_CAND, Communicator
from repro.mpisim.constants import ThreadLevel
from repro.mpisim.envelope import Envelope, EnvelopeKind
from repro.mpisim.exceptions import CommRevokedError, MPIError
from repro.mpisim.progress import ProgressEngine
from repro.mpisim.status import EMPTY_STATUS
from repro.mpisim.world import World
from repro.serve.bridge import AsyncOffloadEngine, _Landed


class _FakeComm:
    """Communicator stand-in for never-started engines and pools: a
    ``MULTIPLE`` world without faults and a progress engine with nothing
    copied, what the constructors and ``stats()`` read.  Commands that
    carry it are routed and drained, never issued."""

    world = SimpleNamespace(
        thread_level=ThreadLevel.MULTIPLE, fault_plan=None
    )
    engine = SimpleNamespace(
        rank=0, payload_copies=0, payload_zero_copy_hits=0
    )


# ---------------------------------------------------------------------------
# queue-close-enqueue
# ---------------------------------------------------------------------------


class _OneLookQueue(MPSCQueue):
    """The command ring with the pre-fix enqueue: a producer's look at
    ``_closed`` after it won the CAS is answered from its look before
    the CAS, so a ``close()`` landing in between goes unnoticed and the
    value is published into a ring already finally drained.  (No yield
    point is added: the word is read as production reads it.)"""

    def __init__(self, capacity: int) -> None:
        #: per producer thread: what its look before the CAS saw
        self._before_cas: dict[int, bool] = {}
        super().__init__(capacity)

    @property
    def _closed(self) -> bool:
        me = threading.get_ident()
        if me in self._before_cas:
            return self._before_cas.pop(me)
        closed = self._closed_word
        if not closed:  # an enqueue that goes on to its CAS looks again
            self._before_cas[me] = closed
        return closed

    @_closed.setter
    def _closed(self, value: bool) -> None:
        self._closed_word = value


class CloseEnqueueProgram:
    """Producers racing ``close()`` + final drain on the command ring.

    Invariant: every enqueue that *reported success* is either in the
    final drain or was delivered by an earlier dequeue — accepted items
    are never silently lost.  The fix is the post-CAS ``closed``
    re-check + tombstone; :class:`_OneLookQueue` is the ring without it.
    """

    def __init__(self, fix_disabled: bool, n_producers: int = 1) -> None:
        ring = _OneLookQueue if fix_disabled else MPSCQueue
        self.queue: MPSCQueue[str] = ring(8)
        self.n_producers = n_producers
        self.accepted: list[str] = []
        self.drained: list[str] | None = None

    def setup(self, sched: Any) -> None:
        def producer(label: str) -> None:
            try:
                self.queue.enqueue(label)
            except (QueueClosed, QueueFull):
                return
            self.accepted.append(label)

        def closer() -> None:
            self.queue.close()
            self.drained = self.queue.drain_closed()

        for i in range(self.n_producers):
            sched.spawn(producer, f"item{i}", name=f"producer{i}")
        sched.spawn(closer, name="closer")

    def check(self) -> None:
        drained = self.drained if self.drained is not None else []
        for item in self.accepted:
            if item not in drained:
                raise InvariantViolation(
                    f"enqueue of {item!r} reported success but the item "
                    f"is not in the final drain {drained!r} — silently "
                    "lost in the close/enqueue race"
                )


# ---------------------------------------------------------------------------
# freelist-double-free
# ---------------------------------------------------------------------------


class _ForgivingLedger(set):
    """An ownership ledger that lets a slot go twice: ``remove`` of an
    index that is not live succeeds, so no :class:`DoubleFree` is
    raised and both frees push the slot (the pre-fix free list)."""

    def remove(self, idx: int) -> None:
        self.discard(idx)


class DoubleFreeProgram:
    """Two threads racing ``free()`` of the same allocated slot.

    Invariant: exactly one of the racing frees succeeds (the other gets
    a typed :class:`DoubleFree`), and the list stays structurally sound
    — no cycle, and re-allocating never hands out duplicates.  The fix
    is the live-set ledger; the broken variant's is
    :class:`_ForgivingLedger`.
    """

    def __init__(self, fix_disabled: bool) -> None:
        self.freelist: FreeList[None] = FreeList(4)
        if fix_disabled:
            self.freelist._live = _ForgivingLedger()
        # Claimed on the (unscheduled) driver thread: the race below is
        # over *freeing*, not allocating.
        self.idx = self.freelist.alloc()
        self.free_outcomes: list[str] = []

    def setup(self, sched: Any) -> None:
        def racer(name: str) -> None:
            try:
                self.freelist.free(self.idx)
            except DoubleFree:
                self.free_outcomes.append("double_free")
            else:
                self.free_outcomes.append("ok")

        sched.spawn(racer, "freer0", name="freer0")
        sched.spawn(racer, "freer1", name="freer1")

    def check(self) -> None:
        ok = self.free_outcomes.count("ok")
        if ok != 1:
            raise InvariantViolation(
                f"{ok} of 2 racing frees of slot {self.idx} succeeded "
                "(expected exactly 1; the loser must get DoubleFree)"
            )
        # Structural soundness: free_count walks the list and raises on
        # a cycle; draining it must yield distinct slots.
        n_free = self.freelist.free_count()
        seen: set[int] = set()
        for _ in range(n_free):
            got = self.freelist.alloc()
            if got in seen:
                raise InvariantViolation(
                    f"free list handed out slot {got} twice — corrupted "
                    "by the unchecked double free"
                )
            seen.add(got)


# ---------------------------------------------------------------------------
# engine-mid-batch-crash, continuation-vs-crash: a crash inside the loop
# ---------------------------------------------------------------------------


class _EngineCrashProgram:
    """A never-started engine driven cooperatively against a producer.

    A virtual engine thread runs the drain + dispatch half of
    ``OffloadEngine._run`` while :meth:`produce` submits; the scheduler
    may fire the ``engine.dispatch`` crash point under any command, and
    the crash is handled exactly as ``_run`` handles it (terminal-fail
    everything pending).
    """

    def __init__(
        self,
        engine_cls: type[OffloadEngine],
        pool_cls: type[OffloadRequestPool],
        n_commands: int,
    ) -> None:
        self.engine = engine_cls(
            _FakeComm(),
            queue_capacity=16,
            telemetry=False,
            request_pool=pool_cls(8, cache_size=0),
        )
        self.n_commands = n_commands
        self._submitted_all = False

    def produce(self) -> None:
        raise NotImplementedError

    def setup(self, sched: Any) -> None:
        sched.spawn(self._engine_thread, name="engine")
        sched.spawn(self._producer, name="producer")

    def _producer(self) -> None:
        try:
            self.produce()
        finally:
            self._submitted_all = True

    def _engine_thread(self) -> None:
        eng = self.engine
        try:
            while True:
                batch = eng.queue.drain(_BATCH)
                if batch:
                    eng._drained.extend(batch)
                    eng._process_batch()
                    continue
                if self._submitted_all and eng.queue.empty():
                    return
                _dst.wait_until(
                    lambda: self._submitted_all or not eng.queue.empty()
                )
        except _dst.ScheduledCrash as exc:
            eng._fail_pending(eng._die(exc))


class _DropTailEngine(OffloadEngine):
    """``_fail_pending`` in the pre-fix order: the drained but not yet
    dispatched tail of a crashed batch is forgotten before the sweep."""

    def _fail_pending(self, exc: BaseException) -> None:
        self._drained.clear()
        super()._fail_pending(exc)


class MidBatchCrashProgram(_EngineCrashProgram):
    """Engine loop crashing partway through a drained batch.

    The producer submits CALL commands, each on its own slot.
    Invariant: every command whose ``submit`` reported success reaches
    a terminal slot state — completed or typed-failed, never silently
    dropped.  The fix keeps the batch on ``engine._drained`` where
    ``_fail_pending`` sweeps it; :class:`_DropTailEngine` forgets it.
    """

    def __init__(self, fix_disabled: bool, n_commands: int = 4) -> None:
        engine = _DropTailEngine if fix_disabled else OffloadEngine
        super().__init__(engine, OffloadRequestPool, n_commands)
        self.accepted: list[Command] = []
        # allocated here, outside the scheduler: the free list's CAS
        # yield points are not this target's subject
        self.slots = [self.engine.pool.alloc() for _ in range(n_commands)]

    def produce(self) -> None:
        for slot in self.slots:
            cmd = Command(CommandKind.CALL, fn=lambda: None, slot=slot)
            try:
                self.engine.submit(cmd)
            except OffloadEngineDied:
                return
            self.accepted.append(cmd)

    def check(self) -> None:
        pool = self.engine.pool
        for i, cmd in enumerate(self.accepted):
            if not pool.slot(cmd.slot).flag.is_set():
                raise InvariantViolation(
                    f"submitted command #{i} never reached a terminal "
                    "state (slot flag unset) — lost from the drained "
                    "batch by the mid-batch crash"
                )


class _DoneInnerRequest:
    """Inner request that is already complete when the engine tracks
    it: `_track` short-circuits straight into `_finish`."""

    done = True
    status = None
    error = None


class _ContComm:
    """``cmd.comm`` stand-in whose isend completes immediately."""

    @staticmethod
    def isend(buf: Any, peer: int, tag: int) -> _DoneInnerRequest:
        return _DoneInnerRequest()


class _SilentFailPool(OffloadRequestPool):
    """``fail`` without the delivery: the slot reaches its terminal
    state and its registered continuation never runs."""

    def fail(self, idx: int, error: BaseException) -> None:
        slot = self._slots[idx]
        slot.error = error
        slot.flag.set(None)


class ContinuationCrashProgram(_EngineCrashProgram):
    """Continuations registered on slot commands vs. an engine crash.

    The producer allocates slots, registers a continuation on each
    handle, and submits ISEND commands.  Invariant: every accepted
    command's continuation fires **exactly once** — success and crash
    (``_fail_pending`` → ``pool.fail``) are both firing paths, and so
    is a registration that arrives after the engine already finished
    the slot (every second command registers only after its submit).
    :class:`_SilentFailPool` fails slots without delivering: the
    asyncio awaiters the continuations stand for would hang forever.
    """

    def __init__(self, fix_disabled: bool, n_commands: int = 4) -> None:
        pool = _SilentFailPool if fix_disabled else OffloadRequestPool
        super().__init__(OffloadEngine, pool, n_commands)
        #: one fire-record per accepted command
        self.fires: list[list[int]] = []
        self._comm = _ContComm()

    def produce(self) -> None:
        pool = self.engine.pool
        for i in range(self.n_commands):
            idx = pool.alloc()
            handle = OffloadRequest(pool, idx)
            record: list[int] = []
            # Even commands register before the submit; odd ones after
            # it, so the registration races the engine's
            # complete/fail — the completer's lock-free look at
            # ``cont`` against the registrant's look at the flag.
            late = i % 2 == 1
            if not late:
                handle.add_continuation(lambda r=record: r.append(1))
            cmd = Command(
                CommandKind.ISEND,
                comm=self._comm,
                buf=None,
                peer=0,
                tag=i,
                slot=idx,
            )
            try:
                self.engine.submit(cmd)
            except OffloadEngineDied:
                return
            if late:
                handle.add_continuation(lambda r=record: r.append(1))
            self.fires.append(record)

    def check(self) -> None:
        for i, record in enumerate(self.fires):
            if len(record) != 1:
                raise InvariantViolation(
                    f"accepted command #{i}'s continuation fired "
                    f"{len(record)} times (expected exactly once) — "
                    "its awaiter "
                    + ("hangs forever" if not record else "was woken twice")
                )


# ---------------------------------------------------------------------------
# routing-order
# ---------------------------------------------------------------------------


class _RoundRobinRouter(ShardRouter):
    """A router without stickiness: every command goes to the next live
    shard in turn and nothing is ever pinned, so one ordered stream is
    split over the shards."""

    def assign(self, key: Any, candidates: list[int]) -> int:
        with self._lock:
            self._next += 1
            return candidates[(self._next - 1) % len(candidates)]


class RoutingOrderProgram:
    """Same-(dest, tag) sends routed through a 2-shard pool.

    A producer routes and submits one ordered send stream through an
    (unstarted) :class:`~repro.core.engine_pool.EnginePool` while one
    consumer per shard drains its ring into a shared issue log.
    Invariant: the log is a prefix of submission order.  Stickiness
    guarantees it trivially — the whole stream lands on one ring; under
    :class:`_RoundRobinRouter` the stream is spread over both rings and
    the two consumers interleave it out of order.
    """

    def __init__(self, fix_disabled: bool, n_sends: int = 6) -> None:
        self.pool = EnginePool(
            _FakeComm(),
            pool_size=2,
            router="dest",
            pool_capacity=8,
            queue_capacity=16,
            telemetry=False,
        )
        if fix_disabled:
            self.pool.router = _RoundRobinRouter("dest")
        self.dest_comm = _FakeComm()
        self.n_sends = n_sends
        self.submitted: list[Command] = []
        self.log: list[Command] = []

    def setup(self, sched: Any) -> None:
        pool = self.pool

        def producer() -> None:
            for i in range(self.n_sends):
                # Facade order: allocate a slot from the shared request
                # pool, then route, then submit to the routed shard.
                slot = pool.pool.alloc()
                cmd = Command(
                    CommandKind.ISEND,
                    comm=self.dest_comm,
                    peer=1,
                    tag=7,
                    slot=slot,
                )
                engine = pool.route(cmd)
                engine.submit(cmd)
                self.submitted.append(cmd)

        def consumer(idx: int) -> None:
            # Stay alive until the whole stream is issued (bounded so a
            # broken schedule cannot spin forever): a consumer that
            # exits while the producer still holds the CPU would never
            # witness the reordering it exists to detect.
            q = pool.engines[idx].queue
            for _ in range(8 * self.n_sends):
                if len(self.log) >= self.n_sends:
                    return
                for cmd in q.drain(2):
                    _dst.yield_point("pool.issue")
                    self.log.append(cmd)

        sched.spawn(producer, name="producer")
        sched.spawn(consumer, 0, name="shard0")
        sched.spawn(consumer, 1, name="shard1")

    def check(self) -> None:
        want = self.submitted[: len(self.log)]
        ok = len(self.log) <= len(self.submitted) and all(
            a is b for a, b in zip(self.log, want)
        )
        if not ok:
            ids = {id(c): i for i, c in enumerate(self.submitted)}
            got = [ids.get(id(c), "?") for c in self.log]
            raise InvariantViolation(
                f"issue order {got} is not a prefix of submission order "
                "— the send stream was split across shards and "
                "reordered"
            )


# ---------------------------------------------------------------------------
# eager-deferred-copy
# ---------------------------------------------------------------------------


class _CompleteAtPostEngine(ProgressEngine):
    """A rank whose zero-copy eager sends complete as soon as they are
    posted, while the envelope still borrows the sender's buffer (the
    pre-fix completion).  The engine's delivery route is wrapped: the
    envelope is delivered as before, then its send request completed.
    A data descriptor, so it also covers an engine built as a plain
    :class:`ProgressEngine` and re-classed afterwards."""

    @property
    def _deliver(self) -> Callable[[int, Envelope], None]:
        route = self.__dict__["_deliver"]

        def deliver_then_complete(dst: int, env: Envelope) -> None:
            route(dst, env)
            req = env.send_req
            eager = env.kind is EnvelopeKind.EAGER
            if eager and req is not None and not req.done:
                req._complete(EMPTY_STATUS)

        return deliver_then_complete

    @_deliver.setter
    def _deliver(self, route: Callable[[int, Envelope], None]) -> None:
        self.__dict__["_deliver"] = route


class EagerDeferredCopyProgram:
    """Zero-copy eager send racing the sender's buffer reuse.

    The zero-copy data plane (DESIGN.md §14) lets an eager send borrow
    the user's buffer and defer the single copy to match time.  That
    is only sound if the send request completes *at the match* — the
    classic zero-copy race is completing it at post time, which tells
    the sender "your buffer is reusable" while a late-matching
    receiver will still read it (:class:`_CompleteAtPostEngine`).

    Rank 0 posts a zero-copy eager send, waits for completion, then
    scribbles the buffer (legal reuse under MPI semantics); rank 1
    posts its receive at a schedule-chosen later point.  Invariant:
    the receiver observes the original payload, never the scribble.
    """

    def __init__(self, fix_disabled: bool, nbytes: int = 64) -> None:
        self.world = World(2, ThreadLevel.MULTIPLE, zero_copy=True)
        if fix_disabled:
            self.world.engines[0].__class__ = _CompleteAtPostEngine
        self.nbytes = nbytes
        self.expected = np.arange(nbytes, dtype=np.uint8)
        self.received: Any = None

    def setup(self, sched: Any) -> None:
        def sender() -> None:
            comm = self.world.comm_world(0)
            buf = self.expected.copy()
            req = comm.isend(buf, 1, tag=3)
            # Bounded completion wait: each pass is one atomic library
            # call (no lock held across a yield), and the schedule
            # decides how the receiver's posting interleaves with it.
            for _ in range(40):
                if req.done:
                    break
                _dst.yield_point("zc.send_wait")
            if req.done:
                # MPI contract: a completed send means the buffer is
                # ours again.  With completion deferred to the match
                # this can never be observed by the receiver.
                buf[:] = 0xEE

        def receiver() -> None:
            comm = self.world.comm_world(1)
            _dst.yield_point("zc.recv_delay")
            rbuf = np.empty(self.nbytes, dtype=np.uint8)
            rreq = comm.irecv(rbuf, 0, tag=3)
            for _ in range(40):
                if rreq.done:
                    break
                comm.engine.progress()
                _dst.yield_point("zc.recv_pump")
            if rreq.done:
                self.received = rbuf.copy()

        sched.spawn(sender, name="sender")
        sched.spawn(receiver, name="receiver")

    def check(self) -> None:
        if self.received is None:
            return  # delivery did not complete within this schedule
        if not (self.received == self.expected).all():
            raise InvariantViolation(
                "receiver observed the sender's post-completion "
                "scribble through a borrowed zero-copy buffer — the "
                "eager send completed before the deferred copy ran"
            )


# ---------------------------------------------------------------------------
# agree-participant-crash
# ---------------------------------------------------------------------------


class _DecideEveryRoundComm(Communicator):
    """``agree`` without the decisiveness guard: every round of the real
    protocol is called decisive, so a rank decides after round 1
    whatever failed or mismatched in it."""

    def _agree_round(self, *args: Any) -> tuple[bool, int, int | None]:
        _, cand, adopted = super()._agree_round(*args)
        return True, cand, adopted


class AgreeParticipantCrashProgram:
    """Fault-tolerant agreement racing a participant's death.

    The ULFM agreement (``Communicator.agree``, DESIGN.md §15) must
    return the **same** value on every survivor even when a participant
    dies mid-protocol.  The guard doing that work is the decisiveness
    check: a round only decides when no send/receive failed, every
    gathered candidate belonged to this exact round, and every
    participant reported the identical live-mask.

    Here rank 2 ships its round-1 candidate ``0`` to rank 0 *only*,
    then dies at a schedule-chosen point while ranks 0 and 1 run
    ``agree(1)``.  Without the guard (:class:`_DecideEveryRoundComm`)
    schedules where rank 0 still believed rank 2 live (it consumes the
    ``0``, decides ``0``) while rank 1 already saw it dead (its gather
    fails, it trusts its own ``1``) split-brain the agreement.  With
    the guard, the mask mismatch and gather failure force re-rounds,
    and the laggard adopts the decider's ``DECIDED`` notice — the
    values always match.
    """

    def __init__(self, fix_disabled: bool) -> None:
        self.world = World(3, ThreadLevel.MULTIPLE)
        self.comms = [self.world.comm_world(rank) for rank in (0, 1)]
        if fix_disabled:
            for comm in self.comms:
                comm.__class__ = _DecideEveryRoundComm
        self.values: dict[int, int] = {}

    def setup(self, sched: Any) -> None:
        def crasher() -> None:
            comm = self.world.comm_world(2)
            # Round-1 candidate 0 to rank 0 only, full live-mask —
            # exactly what a rank that dies between its sends leaves
            # behind.
            comm._ft_send(0, 0, _FT_CAND, 1, 0, 0b111)
            _dst.yield_point("agree.crash_window")
            self.world.mark_rank_dead(
                2, RuntimeError("participant died mid-agreement")
            )

        def participant(rank: int) -> None:
            try:
                self.values[rank] = self.comms[rank].agree(1)
            except MPIError:
                pass  # typed protocol failure: not a split brain

        sched.spawn(crasher, name="crasher")
        sched.spawn(participant, 0, name="agree0")
        sched.spawn(participant, 1, name="agree1")

    def check(self) -> None:
        if len(self.values) < 2:
            return  # a participant did not decide within this schedule
        if self.values[0] != self.values[1]:
            raise InvariantViolation(
                f"split-brain agreement: rank 0 returned "
                f"{self.values[0]}, rank 1 returned {self.values[1]} — "
                f"survivors of one agreement must return one value"
            )


# ---------------------------------------------------------------------------
# shrink-inflight-eager
# ---------------------------------------------------------------------------


class _ParkOnRevokedEngine(ProgressEngine):
    """``_handle`` without the drain-time revoked check: an arrival on a
    revoked communicator is matched or parked like any other (the
    pre-fix order).  The real ``_handle`` runs; where it would poison
    the arriving envelope, this does what came after the check."""

    _arriving: Envelope | None = None

    def _handle(self, env: Envelope) -> None:
        self._arriving = env
        try:
            super()._handle(env)
        finally:
            self._arriving = None

    def _poison_envelope(self, env: Envelope, err: Exception) -> None:
        if env is not self._arriving:  # a revoke purge: poison as ever
            super()._poison_envelope(env, err)
            return
        req = self._prq.match(env)
        if req is None:
            self._umq.add(env)
        else:
            self._match_pair(env, req)


class ShrinkInflightEagerProgram:
    """Revoke racing a zero-copy eager send already in flight.

    ``revoke()`` purges the receiver's unexpected-message queue and
    fails the purged senders' requests — but an envelope still in the
    delivery pipe at purge time arrives *afterwards*.  The drain-time
    revoked check in ``ProgressEngine._handle`` poisons such arrivals
    (failing the sender's request typed); without it
    (:class:`_ParkOnRevokedEngine`) the zero-copy envelope parks in the
    UMQ forever, nothing can legally receive it, and the sender's
    deferred-completion send request never reaches a terminal state —
    exactly the hang ``shrink`` exists to make impossible.

    Rank 0 posts a zero-copy eager send; rank 1 revokes the world
    communicator at a schedule-chosen point; both shrink (the
    fault-management plane ignores revoked guards, so recovery itself
    still runs).  Invariant: after recovery the send request is
    terminal — completed or typed-failed, never limbo.
    """

    def __init__(self, fix_disabled: bool, nbytes: int = 64) -> None:
        self.world = World(2, ThreadLevel.MULTIPLE, zero_copy=True)
        if fix_disabled:
            self.world.engines[1].__class__ = _ParkOnRevokedEngine
        self.nbytes = nbytes
        self.send_req: Any = None
        self.posted = False
        self.complete = 0

    def setup(self, sched: Any) -> None:
        def sender() -> None:
            comm = self.world.comm_world(0)
            buf = np.arange(self.nbytes, dtype=np.uint8)
            try:
                self.send_req = comm.isend(buf, 1, tag=5)
                self.posted = True
            except CommRevokedError:
                pass  # revoke won the race to the post: typed, fine
            for _ in range(40):
                if self.send_req is None or self.send_req.done:
                    break
                comm.engine.progress()
                _dst.yield_point("shrink.send_pump")
            try:
                comm.shrink()
            except MPIError:
                pass
            self.complete += 1

        def revoker() -> None:
            comm = self.world.comm_world(1)
            _dst.yield_point("shrink.revoke_delay")
            comm.revoke()
            for _ in range(40):
                comm.engine.progress()
                _dst.yield_point("shrink.revoke_pump")
                if self.posted and (
                    self.send_req is None or self.send_req.done
                ):
                    break
            try:
                comm.shrink()
            except MPIError:
                pass
            self.complete += 1

        sched.spawn(sender, name="sender")
        sched.spawn(revoker, name="revoker")

    def check(self) -> None:
        if self.complete < 2:
            return  # recovery did not finish within this schedule
        if self.send_req is not None and not self.send_req.done:
            raise InvariantViolation(
                "zero-copy eager send request still in limbo after "
                "revoke + shrink: the envelope arrived after the "
                "revoke purge and parked in the UMQ with no drain-time "
                "poisoning"
            )


# ---------------------------------------------------------------------------
# continuation-double-fire
# ---------------------------------------------------------------------------


class _UnclaimedSlot(_Slot):
    """A pool slot whose ``cont_fired`` claim always reads unclaimed, so
    every fire attempt that reaches ``_fire`` delivers."""

    __slots__ = ()

    @property
    def cont_fired(self) -> bool:
        return False

    @cont_fired.setter
    def cont_fired(self, value: bool) -> None:
        _Slot.cont_fired.__set__(self, value)


class ContinuationDoubleFireProgram:
    """Registration racing completion over the exactly-once claim.

    One thread registers a continuation on a live handle while another
    completes the slot.  Both sides can legitimately reach the fire
    path (the registrant when it observes the flag already set, the
    completer when it observes a registered continuation); the
    ``cont_fired`` claim under ``cont_lock`` is what collapses them to
    one delivery.  On an :class:`_UnclaimedSlot` the overlap window
    delivers twice.  Invariant: once both threads have finished, the
    continuation fired exactly once.  The completer's first look at
    ``cont`` takes no lock; run exhaustively (10 schedules) the same
    program shows that no order of the two looks loses the delivery
    either.
    """

    def __init__(self, fix_disabled: bool) -> None:
        self.pool = OffloadRequestPool(capacity=4, cache_size=0)
        self.idx = self.pool.alloc()
        if fix_disabled:
            self.pool._slots[self.idx] = _UnclaimedSlot()
        self.handle = OffloadRequest(self.pool, self.idx)
        self.fired: list[int] = []

    def setup(self, sched: Any) -> None:
        def registrant() -> None:
            self.handle.add_continuation(lambda: self.fired.append(1))

        def completer() -> None:
            self.pool.complete(self.idx, None)

        sched.spawn(registrant, name="registrant")
        sched.spawn(completer, name="completer")

    def check(self) -> None:
        if len(self.fired) != 1:
            raise InvariantViolation(
                f"continuation fired {len(self.fired)} times (expected "
                "exactly once: registration either beats the completer "
                "or fires immediately on the already-set flag; the "
                "claim must suppress the second delivery)"
            )
        # The delivery happened (exactly once), so nothing may be
        # reported as dropped: the losing fire attempt is silent.
        if self.pool.continuation_drops > 0:
            raise InvariantViolation(
                f"{self.pool.continuation_drops} continuation drops "
                "recorded although the delivery happened"
            )


# ---------------------------------------------------------------------------
# continuation-vs-release
# ---------------------------------------------------------------------------


class _CoopLock:
    """``_Slot.cont_lock`` stand-in that blocks on the scheduler, so a
    holder may sit at a choice point without wedging the other virtual
    threads on a real lock."""

    def __init__(self) -> None:
        self._held = False

    def __enter__(self) -> None:
        _dst.wait_until(lambda: not self._held)
        self._held = True

    def __exit__(self, *exc: Any) -> None:
        self._held = False


class _PlainFreeList:
    """Free list without yield points (its CAS interleavings belong
    to the free-list targets and would only multiply this tree)."""

    def __init__(self) -> None:
        self.freed: list[int] = []

    def mark_free(self, idx: int) -> None:
        pass

    def push_batch(self, chain: Any) -> None:
        self.freed.extend(chain)


class _SteppedSlot(_Slot):
    """A pool slot whose ``generation`` and ``cont`` words are choice
    points on every access; the code that runs is production's
    ``release`` / ``register_continuation`` / ``_fire``.

    ``no_recheck`` is the broken registrant, injected from here: its
    look at ``generation`` *after* it stored ``cont`` is answered from
    memory, i.e. it trusts the check it made before the store.
    """

    __slots__ = ("_no_recheck", "_last_read", "_from_memory")

    def __init__(self, no_recheck: bool) -> None:
        self._no_recheck = no_recheck
        self._last_read = 0
        self._from_memory = False
        super().__init__()
        self.cont_lock = _CoopLock()

    @property
    def generation(self) -> int:
        if self._from_memory:
            self._from_memory = False
            return self._last_read  # what the check before the store saw
        _dst.yield_point("slot.generation")
        self._last_read = _Slot.generation.__get__(self)
        return self._last_read

    @generation.setter
    def generation(self, value: int) -> None:
        _dst.yield_point("slot.generation=")
        _Slot.generation.__set__(self, value)

    @property
    def cont(self) -> Any:
        _dst.yield_point("slot.cont")
        return _Slot.cont.__get__(self)

    @cont.setter
    def cont(self, fn: Any) -> None:
        _dst.yield_point("slot.cont=")
        _Slot.cont.__set__(self, fn)
        self._from_memory = fn is not None and self._no_recheck


class ContinuationVsReleaseProgram:
    """A registration racing a direct consumer of the same handle.

    The operation is complete.  One thread consumes the handle
    (``test()`` → ``release``: bump the generation, *then* look for a
    continuation — without ``cont_lock`` when there is none); another
    registers a continuation on it (store ``cont``, *then* look at the
    generation again).  Invariant: the registration is delivered
    inline, refused as stale, or counted as a drop — and never left on
    the slot for its next owner, whose completion would fire it.
    """

    def __init__(self, fix_disabled: bool) -> None:
        self.pool = OffloadRequestPool(capacity=1, cache_size=0)
        self.idx = self.pool.alloc()
        self.pool._slots[self.idx] = _SteppedSlot(no_recheck=fix_disabled)
        self.pool._freelist = _PlainFreeList()
        self.handle = OffloadRequest(self.pool, self.idx)
        self.pool.complete(self.idx, None)
        self.fired: list[int] = []
        self.refused = False

    def setup(self, sched: Any) -> None:
        def registrant() -> None:
            try:
                self.handle.add_continuation(lambda: self.fired.append(1))
            except OffloadError:  # ContinuationError is one
                self.refused = True

        sched.spawn(registrant, name="registrant")
        sched.spawn(self.handle.test, name="consumer")

    def check(self) -> None:
        slot = self.pool._slots[self.idx]
        if _Slot.cont.__get__(slot) is not None:
            raise InvariantViolation(
                "a continuation registered on the released handle is "
                "still on the slot: the next owner's completion would "
                "fire it"
            )
        delivered = len(self.fired) + self.pool.continuation_drops
        if delivered != (0 if self.refused else 1):
            raise InvariantViolation(
                f"registration {'refused' if self.refused else 'accepted'}"
                f" but fired {len(self.fired)} time(s) and dropped "
                f"{self.pool.continuation_drops}: silently lost or "
                "doubly accounted"
            )


# ---------------------------------------------------------------------------
# park-vs-ring
# ---------------------------------------------------------------------------


class _Bell:
    """``OffloadEngine._wake`` stand-in under the scheduler.

    Every operation is a choice point, and ``wait`` blocks
    cooperatively with *no* timeout: under DST the safety tick cannot
    paper over a lost wake-up, it surfaces as a deadlock.

    ``late_clear`` is the broken protocol, injected from here so that
    production carries no switch for it: ``clear()`` — which the loop
    calls before it looks — does nothing, and the flag is reset at the
    start of ``wait()`` instead.  The loop then runs look → clear →
    park, and a ring landing between look and clear is erased.
    """

    def __init__(self, late_clear: bool) -> None:
        self._late_clear = late_clear
        self._flag = False

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        _dst.yield_point("bell.set")
        self._flag = True

    def clear(self) -> None:
        if not self._late_clear:
            _dst.yield_point("bell.clear")
            self._flag = False

    def wait(self, timeout: float | None = None) -> bool:
        _dst.yield_point("bell.wait")
        if self._late_clear:
            self._flag = False
        _dst.wait_until(self.is_set)
        return True


class _PlainRing:
    """Command ring without yield points: an enqueue is one atomic
    publish.  The MPSC ring's own interleavings belong to the queue
    targets; leaving them out keeps this schedule tree enumerable.

    The engine loop's look before it calls ``drain`` (``_seqs[pos &
    mask] == pos + 1``: published) is answered by one sequence number
    at position 0 that says whether anything is queued.  The cursors
    the engine's tally reads stay at zero."""

    _mask = _dequeue_pos = dequeue_count = 0
    _enqueue_pos = SimpleNamespace(_value=0)

    def __init__(self) -> None:
        self._items: deque = deque()
        self._closed = False

    @property
    def _seqs(self) -> list:
        return [1 if self._items else 0]

    def enqueue(self, value: Any) -> None:
        if self._closed:
            raise QueueClosed("ring closed")
        self._items.append(value)

    def drain(self, limit: int | None = None) -> list:
        out: list = []
        while self._items and (limit is None or len(out) < limit):
            out.append(self._items.popleft())
        return out

    def empty(self) -> bool:
        return not self._items

    def close(self) -> None:
        self._closed = True

    def drain_closed(self) -> list:
        return self.drain()


class ParkVsRingProgram:
    """The real engine loop against every kind of ringer.

    Rank 0 runs ``OffloadEngine._run`` on a virtual thread, with a
    rendezvous-sized IRECV already in its ring.  One more thread plays
    everybody else, in turn: as rank 1 (which has no engine) it posts
    the matching send — the RTS is an *arrival* ring at rank 0 — waits
    for the CTS and pumps rank 1's progress once, which copies the
    payload and completes rank 0's receive from this foreign thread,
    the *cross-thread completion* ring; as rank 0's application thread
    it waits for the slot's done flag and submits SHUTDOWN, the
    *submit* ring.  At each of the three the loop may be anywhere in
    clear → look → park.  (The ringers are sequential on purpose: each
    one's publish-then-ring races the loop on its own, and three
    concurrent ringer threads only multiply the tree — not exhausted
    within 20 000 schedules, against 246 — without adding an ordering
    the protocol argument distinguishes.)

    Invariant: the receive completes with the sender's bytes and the
    loop exits on SHUTDOWN.  A lost wake-up leaves the loop parked with
    work pending while everybody else waits on it: the scheduler
    reports the deadlock.
    """

    def __init__(self, fix_disabled: bool, nbytes: int = 64) -> None:
        self.world = World(2, ThreadLevel.MULTIPLE, eager_threshold=16)
        self.comm = self.world.comm_world(0)
        engine = OffloadEngine(
            self.comm,
            queue_capacity=4,
            telemetry=False,
            request_pool=OffloadRequestPool(4, cache_size=0),
        )
        engine.queue = _PlainRing()
        engine._wake = _Bell(late_clear=fix_disabled)
        engine._started_evt = threading.Event()
        self.engine = engine
        self.sent = np.arange(nbytes, dtype=np.uint8)
        self.received = np.zeros(nbytes, dtype=np.uint8)
        # allocated here, outside the scheduler: the free list's CAS
        # yield points are not this target's subject
        self.slot = engine.pool.alloc()
        engine.queue.enqueue(
            Command(
                CommandKind.IRECV,
                comm=self.comm,
                buf=self.received,
                peer=1,
                tag=4,
                slot=self.slot,
            )
        )
        self.loop_exited = False

    def setup(self, sched: Any) -> None:
        engine = self.engine
        # Wake-ups, not crashes: spend the schedule's one crash so the
        # ``engine.dispatch`` crash point stays out of the tree.
        sched.crashed = True

        def loop() -> None:
            engine._run()
            self.loop_exited = True

        def ringers() -> None:
            peer = self.world.comm_world(1)
            done = engine.pool.slot(self.slot).flag
            peer.isend(self.sent, 0, tag=4)
            _dst.wait_until(lambda: len(peer.engine._inbox) > 0)
            peer.engine.progress()
            _dst.wait_until(done.is_set)
            engine.submit(Command(CommandKind.SHUTDOWN))

        sched.spawn(loop, name="engine")
        sched.spawn(ringers, name="ringers")

    def check(self) -> None:
        if self.engine.dead is not None:
            raise InvariantViolation(
                f"engine loop died: {self.engine.dead!r}"
            )
        if not self.loop_exited:
            raise InvariantViolation("engine loop never saw SHUTDOWN")
        if not (self.received == self.sent).all():
            raise InvariantViolation(
                "receive completed without the sender's payload"
            )


# ---------------------------------------------------------------------------
# flag-park-vs-set
# ---------------------------------------------------------------------------


class _SteppedFlag(AtomicFlag):
    """The real :class:`AtomicFlag` with every step a choice point.

    The protocol code that runs is production's (``set``,
    ``park``, ``_register``, ``_wake``); this subclass only puts the
    scheduler between its steps: before and after every access to the
    ``done`` word, before registering, deregistering, waking and
    blocking.  Blocking is cooperative and has *no* timeout, so a lost
    wake-up is a deadlock the scheduler reports.

    ``one_look`` is the broken protocol, injected from here: the look
    that follows the registration is answered from memory — the waiter
    acts on what it saw *before* it registered — so a set that lands
    between its look and its registration finds nobody to wake and
    wakes nobody.
    """

    __slots__ = ("_one_look", "_answer_from_memory")

    def __init__(self, one_look: bool) -> None:
        self._one_look = one_look
        self._answer_from_memory = False
        super().__init__()

    @property
    def done(self) -> bool:
        if self._answer_from_memory:
            self._answer_from_memory = False
            return False  # it was clear when this waiter last looked
        if not DoneWord.done.__get__(self):
            # Once set the word never changes here, so only a look
            # that may still see it clear is worth a choice point.
            _dst.yield_point("flag.look")
        return DoneWord.done.__get__(self)

    @done.setter
    def done(self, value: bool) -> None:
        DoneWord.done.__set__(self, value)
        _dst.yield_point("flag.stored")

    def _register(self, token: Any) -> None:
        _dst.yield_point("flag.register")
        super()._register(token)
        self._answer_from_memory = self._one_look

    def _deregister(self, token: Any) -> None:
        _dst.yield_point("flag.deregister")
        super()._deregister(token)

    def _wake(self) -> None:
        _dst.yield_point("flag.wake")
        super()._wake()

    def _block(self, token: Any, timeout: float) -> bool:
        _dst.wait_until(lambda: not token.locked())
        return True


class FlagParkVsSetProgram:
    """Two waiters park on one done flag while a third thread sets it.

    The waiters call :meth:`DoneWord.park` — the real park, which is
    what ``OffloadRequest.wait``, a blocking facade call and
    ``mpisim.Request.wait`` reach when the flag is still clear (under
    the scheduler ``AtomicFlag.wait`` would turn cooperative before
    getting there).  Invariant: both waiters return, both see the
    payload, and no registration is left behind.
    """

    def __init__(self, fix_disabled: bool) -> None:
        self.flag = _SteppedFlag(one_look=fix_disabled)
        self.seen: list[Any] = []

    def setup(self, sched: Any) -> None:
        flag = self.flag

        def waiter() -> None:
            if flag.park():
                self.seen.append(flag.payload)

        for i in range(2):
            sched.spawn(waiter, name=f"waiter{i}")
        sched.spawn(lambda: flag.set("status"), name="setter")

    def check(self) -> None:
        if self.seen != ["status", "status"]:
            raise InvariantViolation(
                f"waiters returned {self.seen!r}, expected the payload "
                "twice"
            )
        if self.flag._waiters is not None:
            raise InvariantViolation(
                f"{len(self.flag._waiters)} waiter registration(s) "
                "left on the flag after everybody returned"
            )


# ---------------------------------------------------------------------------
# revoke-vs-post-recv
# ---------------------------------------------------------------------------


class _CheckBeforeDrainEngine(ProgressEngine):
    """``post_recv``/``iprobe`` in the pre-fix order, injected here:
    refuse a revoked communicator first, bring the queues up to date
    second."""

    def _drain_then_check(self, context_id: int, what: str) -> None:
        self._check_revoked(context_id, what)
        self._drain_inbox()


class RevokeVsPostRecvProgram:
    """Rank 1 revokes the world communicator while rank 0 posts a
    receive on it.

    When the REVOKE notice is already in rank 0's inbox, the drain
    inside ``post_recv`` is what handles it: ``apply_revoke`` purges the
    posted queue — and a receive that passed its revoked check *before*
    that drain is posted *after* the purge, on a communicator the rank
    now knows revoked, where nothing will ever fail it.  That is the
    ``run_resilient`` recovery hang: a survivor sits in a step receive
    for ever while the agreement waits for it.

    Invariant: once rank 0 has seen the notice, its receive is terminal
    — refused at the post with :class:`CommRevokedError` or failed with
    it afterwards — never pending.

    ``in_run`` posts the receive the way the offload engine does, as a
    run of one through ``Communicator._post_run`` →
    ``ProgressEngine.post_batch``: the same ``post_recv`` under the
    held lock, so the same harness breaks it and the same order fixes
    it.
    """

    def __init__(self, fix_disabled: bool, in_run: bool = False) -> None:
        self.world = World(2, ThreadLevel.MULTIPLE)
        self.in_run = in_run
        if fix_disabled:
            self.world.engines[0].__class__ = _CheckBeforeDrainEngine
        self.req: Any = None
        self.refused = False
        self.revoke_sent = False

    def setup(self, sched: Any) -> None:
        def receiver() -> None:
            comm = self.world.comm_world(0)
            _dst.yield_point("revoke.post_delay")
            buf = np.empty(8, dtype=np.uint8)
            try:
                if self.in_run:
                    (self.req,), raised = comm._post_run(
                        [comm._p2p_op(False, buf, 1, 3)]
                    )
                    if raised:
                        raise self.req
                else:
                    self.req = comm.irecv(buf, 1, tag=3)
            except CommRevokedError:
                self.refused = True
            # whatever MPI call this rank makes next pumps progress
            _dst.wait_until(lambda: self.revoke_sent)
            comm.engine.progress()

        def revoker() -> None:
            _dst.yield_point("revoke.delay")
            self.world.comm_world(1).revoke()
            self.revoke_sent = True

        sched.spawn(receiver, name="receiver")
        sched.spawn(revoker, name="revoker")

    def check(self) -> None:
        if self.refused:
            return
        if self.req is None or not self.req.done:
            raise InvariantViolation(
                "receive still pending on a communicator its rank knows "
                "revoked: it passed the revoked check, the drain that "
                "followed handled the REVOKE and purged the posted "
                "queue, and it was posted afterwards"
            )


# ---------------------------------------------------------------------------
# land-vs-drain
# ---------------------------------------------------------------------------


class _SteppedQueue(deque):
    """The landed queue with a choice point before an append and before
    every look.  (A pop is one step with the look that found the item:
    only the loop thread pops, and taking an item from the left
    commutes with appends on the right.)"""

    def __init__(self, landed: "_SteppedLanded") -> None:
        super().__init__()
        self._landed = landed

    def append(self, resolve: Any) -> None:
        _dst.yield_point("landed.append")
        super().append(resolve)

    def __bool__(self) -> bool:
        _dst.yield_point("landed.look")
        if len(self):
            return True
        self._landed._found_empty()
        return False


class _SteppedLanded(_Landed):
    """A loop's landed queue and bell, every access a choice point;
    the code that runs is the bridge's own ``fire`` and ``_drain``.

    ``late_clear`` is the broken drain, injected from here so that
    ``bridge.py`` carries no switch for it: the store that opens
    ``_drain`` (``rung = False``) does nothing, and the bell is cleared
    once the queue has answered "empty" instead — pop until empty,
    *then* clear.
    """

    __slots__ = ("_late_clear",)

    def __init__(self, loop: Any, late_clear: bool) -> None:
        self._late_clear = False  # the constructor's store goes through
        super().__init__(loop)
        self.queue = _SteppedQueue(self)
        self._late_clear = late_clear

    @property
    def rung(self) -> bool:
        _dst.yield_point("landed.rung")
        return _Landed.rung.__get__(self)

    @rung.setter
    def rung(self, value: bool) -> None:
        if self._late_clear and not value:
            return
        _dst.yield_point("landed.rung=")
        _Landed.rung.__set__(self, value)

    def _found_empty(self) -> None:
        if self._late_clear:
            _dst.yield_point("landed.rung=")
            _Landed.rung.__set__(self, False)


class _SteppedLoop:
    """Event-loop stand-in: :meth:`run_until` is the loop thread,
    blocked cooperatively while nothing is scheduled — a lost ring is
    a deadlock, not a stall some timer ends.  Scheduling is one step
    with the bell store before it: until the callback is queued the
    loop thread can only be blocked or inside an earlier drain, and
    the other completer reads nothing but the bell — with its own
    choice point the tree outgrows 20 000 schedules, without it the
    same orders are enumerated in 6 450."""

    def __init__(self) -> None:
        self._ready: deque = deque()

    def get_debug(self) -> bool:
        return False

    def is_closed(self) -> bool:
        return False

    def create_future(self) -> Any:
        import asyncio

        return asyncio.Future(loop=self)

    def call_soon_threadsafe(self, callback: Any, *args: Any) -> None:
        self._ready.append((callback, args))

    def run_until(self, finished: Callable[[], bool]) -> None:
        while not finished():
            _dst.wait_until(lambda: bool(self._ready) or finished())
            while self._ready:
                callback, args = self._ready.popleft()
                callback(*args)


class _LandedRequest:
    """A submitted request as the bridge sees it: a continuation to
    register and a handle to consume once it fired."""

    def __init__(self, status: Any) -> None:
        self.status = status
        self.fire: Any = None

    def add_continuation(self, fn: Callable[[], None]) -> None:
        self.fire = fn

    def test(self) -> tuple[bool, Any]:
        return True, self.status


class LandVsDrainProgram:
    """Two completers and one loop over the bridge's landed queue.

    Two requests are wrapped by the real ``awaitable``; each completer
    thread runs the continuation the bridge registered (publish: append
    ``resolve``; ring: look at the bell, set it, schedule one
    ``_drain``) and the loop thread runs whatever was scheduled (clear
    the bell, then pop and run until the queue is empty).  At every
    queue and bell access any of the three may run next.

    Invariant: both futures resolve, each with its own request's
    status.  A completion that landed behind a bell nobody will ring
    again leaves its future pending and the loop with nothing
    scheduled: the scheduler reports the deadlock.
    """

    def __init__(self, fix_disabled: bool) -> None:
        self.loop = _SteppedLoop()
        self.bridge = AsyncOffloadEngine(SimpleNamespace(), loop=self.loop)
        self.bridge._landed = _SteppedLanded(
            self.loop, late_clear=fix_disabled
        )
        self.requests = [_LandedRequest(f"status{i}") for i in range(2)]
        self.futures = [self.bridge.awaitable(r) for r in self.requests]

    def _resolved(self) -> bool:
        return all(fut.done() for fut in self.futures)

    def setup(self, sched: Any) -> None:
        for i, req in enumerate(self.requests):
            sched.spawn(req.fire, name=f"completer{i}")
        sched.spawn(
            lambda: self.loop.run_until(self._resolved), name="loop"
        )

    def check(self) -> None:
        if not self._resolved():
            raise InvariantViolation(
                "a landed completion was never drained: its awaiter "
                "hangs for ever"
            )
        got = [fut.result() for fut in self.futures]
        if got != [req.status for req in self.requests]:
            raise InvariantViolation(
                f"futures resolved with {got!r}: a resolve ran for the "
                "wrong request"
            )
        if self.bridge.loop_crossings > 2:
            raise InvariantViolation(
                f"{self.bridge.loop_crossings} drains for two "
                "completions: a rung bell was rung again"
            )


# ---------------------------------------------------------------------------
# Linearizability targets (history-recording programs)
# ---------------------------------------------------------------------------


def _record(history: History, op: str, args: tuple, fn: Callable[[], Any]):
    """Run ``fn`` as one recorded operation interval."""
    rec = history.invoke(op, args)
    result = fn()
    history.respond(rec, result)
    return result


class QueueLinearizabilityProgram:
    """Concurrent MPSCQueue history checked against :class:`QueueSpec`.

    Empty-dequeue probes are *not* recorded: on a Vyukov-style ticket
    queue, emptiness is only quiescently consistent — a consumer can
    observe "empty" while a *completed* enqueue sits behind an earlier
    claimed-but-unpublished ticket (the DST oracle rediscovers this in
    a few dozen schedules if the probes are recorded).  What is checked
    is the linearizability of the delivered sub-history: every
    successful enqueue/dequeue in FIFO order with no loss, duplication,
    or reordering.
    """

    def __init__(
        self, n_producers: int = 2, items_per_producer: int = 2
    ) -> None:
        self.queue: MPSCQueue[str] = MPSCQueue(4)
        self.history = History()
        self.spec = QueueSpec(capacity=4)
        self.n_producers = n_producers
        self.items = items_per_producer

    def _enqueue(self, value: str) -> str:
        try:
            self.queue.enqueue(value)
        except QueueFull:
            return "full"
        except QueueClosed:
            return "closed"
        return "ok"

    def setup(self, sched: Any) -> None:
        total = self.n_producers * self.items

        def producer(pid: int) -> None:
            for i in range(self.items):
                value = f"p{pid}i{i}"
                _record(
                    self.history,
                    "enqueue",
                    (value,),
                    lambda v=value: self._enqueue(v),
                )

        def consumer() -> None:
            # One attempt per produced item plus slack for empty polls:
            # bounded, so exhaustive exploration stays finite.  Empty
            # probes are discarded (weak emptiness; see class docs).
            for _ in range(total + 2):
                rec = self.history.invoke("dequeue", ())
                result = self.queue.try_dequeue()
                if result[0]:
                    self.history.respond(rec, result)
                else:
                    self.history.discard(rec)

        for pid in range(self.n_producers):
            sched.spawn(producer, pid, name=f"producer{pid}")
        sched.spawn(consumer, name="consumer")

    def check(self) -> None:
        """Linearizability is checked by the explorer via history/spec."""


class FreeListLinearizabilityProgram:
    """Concurrent FreeList alloc/free history vs :class:`FreeListSpec`
    (each a chunk of one through ``pop_batch`` / ``push_batch``)."""

    def __init__(self, n_threads: int = 2, cycles: int = 2) -> None:
        self.freelist: FreeList[None] = FreeList(2)
        self.history = History()
        self.spec = FreeListSpec(2)
        self.n_threads = n_threads
        self.cycles = cycles

    def _alloc(self):
        try:
            return self.freelist.alloc()
        except FreeListExhausted:
            return "exhausted"

    def _free(self, idx: int) -> str:
        try:
            self.freelist.free(idx)
        except DoubleFree:
            return "double_free"
        return "ok"

    def setup(self, sched: Any) -> None:
        def worker(wid: int) -> None:
            for _ in range(self.cycles):
                idx = _record(self.history, "alloc", (), self._alloc)
                if idx == "exhausted":
                    continue
                _record(
                    self.history,
                    "free",
                    (idx,),
                    lambda i=idx: self._free(i),
                )

        for wid in range(self.n_threads):
            sched.spawn(worker, wid, name=f"worker{wid}")

    def check(self) -> None:
        """Linearizability is checked by the explorer via history/spec;
        here, that no push linked to a stale head lost slots (no later
        operation of so short a program would trip over it)."""
        if self.freelist.free_count() != self.freelist.capacity:
            raise InvariantViolation("slots lost from the free list")


class RequestPoolLinearizabilityProgram:
    """Request-pool alloc/release accounting vs :class:`RequestPoolSpec`.

    Per-thread slot caching is on, and each worker takes ``hold`` slots
    in a row (every other one a batched refill, ``pop_batch``) and gives
    them back in a row, taking its stash past twice the cache size: a
    chunk spills (``push_batch``).  The capacity covers what is held
    plus what stashes park — the model knows no stashes and would not
    allow a refusal while slots sit, free, in another worker's.
    """

    def __init__(self, n_threads: int = 2, hold: int = 5) -> None:
        capacity = n_threads * (hold + 1)
        self.pool = OffloadRequestPool(capacity, cache_size=2)
        self.history = History()
        self.spec = RequestPoolSpec(capacity)
        self.n_threads = n_threads
        self.hold = hold

    def _alloc(self):
        try:
            return self.pool.alloc()
        except FreeListExhausted:
            return "exhausted"

    def _release(self, idx: int) -> str:
        self.pool.release(idx)
        return "ok"

    def setup(self, sched: Any) -> None:
        def worker(wid: int) -> None:
            held = [
                _record(self.history, "alloc", (), self._alloc)
                for _ in range(self.hold)
            ]
            for idx in held:
                if idx != "exhausted":
                    _record(
                        self.history,
                        "release",
                        (idx,),
                        lambda i=idx: self._release(i),
                    )

        for wid in range(self.n_threads):
            sched.spawn(worker, wid, name=f"worker{wid}")

    def check(self) -> None:
        """Linearizability is checked by the explorer via history/spec;
        here, the sizing: the refills emptied the shared list, so what
        is on it now was spilled."""
        if not self.pool._freelist.free_count():
            raise InvariantViolation("no spill: push_batch unexplored")


# ---------------------------------------------------------------------------
# The corpus table + runner
# ---------------------------------------------------------------------------


@dataclass
class Target:
    """One corpus row: how to build and explore a program."""

    name: str
    description: str
    #: program factory; regression targets take ``fix_disabled``
    make: Callable[..., Any]
    #: True for a regression race (its program takes ``fix_disabled``),
    #: False for a linearizability oracle
    regression: bool
    #: default exploration strategy (every target also supports the
    #: others; exhaustive only where the schedule tree is small enough)
    strategy: str = "exhaustive"
    schedules: int = 2000
    max_steps: int = 20_000
    #: size of the schedule tree the fix-on run exhausts at the default
    #: strategy and budget (the proof); None for a sampled target
    tree: int | None = None


CORPUS: dict[str, Target] = {
    t.name: t
    for t in [
        Target(
            name="queue-close-enqueue",
            description=(
                "MPSCQueue close() racing a producer's post-CAS "
                "publish: without the post-CAS closed re-check the "
                "accepted command is silently lost"
            ),
            make=CloseEnqueueProgram,
            regression=True,
            tree=134,
        ),
        Target(
            name="freelist-double-free",
            description=(
                "two frees of one FreeList slot racing the ownership "
                "ledger: without it both succeed (list cycle, duplicate "
                "allocs)"
            ),
            make=DoubleFreeProgram,
            regression=True,
            tree=36,
        ),
        Target(
            name="engine-mid-batch-crash",
            description=(
                "engine crash mid-_process_batch: a _fail_pending that "
                "forgets the drained tail leaves its waiters hung"
            ),
            make=MidBatchCrashProgram,
            regression=True,
            strategy="random",
            schedules=400,
        ),
        Target(
            name="routing-order",
            description=(
                "router stickiness ignored: one same-(dest,tag) send "
                "stream split over two shards and reordered"
            ),
            make=RoutingOrderProgram,
            regression=True,
            strategy="random",
            schedules=200,
        ),
        Target(
            name="eager-deferred-copy",
            description=(
                "zero-copy eager send completed at post time: sender's "
                "buffer reuse races the deferred match-time copy"
            ),
            make=EagerDeferredCopyProgram,
            regression=True,
            strategy="random",
            schedules=200,
        ),
        Target(
            name="agree-participant-crash",
            description=(
                "participant death mid-agreement vs the decisiveness "
                "guard (split-brain agree values)"
            ),
            make=AgreeParticipantCrashProgram,
            regression=True,
            strategy="random",
            schedules=300,
        ),
        Target(
            name="shrink-inflight-eager",
            description=(
                "zero-copy eager arrival after the revoke purge vs "
                "the drain-time check (send request in limbo forever)"
            ),
            make=ShrinkInflightEagerProgram,
            regression=True,
            strategy="random",
            schedules=300,
        ),
        Target(
            name="continuation-vs-crash",
            description=(
                "engine crash vs the fail-path continuation delivery "
                "(registered continuations never fire; awaiters hang)"
            ),
            make=ContinuationCrashProgram,
            regression=True,
            strategy="random",
            schedules=400,
        ),
        Target(
            name="continuation-double-fire",
            description=(
                "continuation registration racing completion over the "
                "exactly-once claim (double delivery)"
            ),
            make=ContinuationDoubleFireProgram,
            regression=True,
            strategy="random",
            schedules=300,
        ),
        Target(
            name="continuation-vs-release",
            description=(
                "registration racing a direct consumer's lock-free "
                "release: a registrant that does not look at the "
                "generation again leaves its callback on the slot for "
                "the next owner"
            ),
            make=ContinuationVsReleaseProgram,
            regression=True,
            schedules=20_000,
            tree=3_040,
        ),
        Target(
            name="park-vs-ring",
            description=(
                "engine loop looking before it clears its doorbell: a "
                "submit, arrival or remote completion rings into the "
                "gap and the loop parks on pending work"
            ),
            make=ParkVsRingProgram,
            regression=True,
            schedules=20_000,
            tree=170,
        ),
        Target(
            name="flag-park-vs-set",
            description=(
                "waiter registering on a done flag without looking "
                "again: a set between its look and its registration "
                "wakes nobody and the waiter parks for ever"
            ),
            make=FlagParkVsSetProgram,
            regression=True,
            schedules=200_000,
            tree=5_584,
        ),
        Target(
            name="revoke-vs-post-recv",
            description=(
                "receive checked for revocation before the inbox drain "
                "that handles the REVOKE: posted after the purge, "
                "pending for ever (the run_resilient recovery hang)"
            ),
            make=RevokeVsPostRecvProgram,
            regression=True,
            tree=6,
        ),
        Target(
            name="land-vs-drain",
            description=(
                "asyncio bridge draining its landed queue before it "
                "clears the bell: a completion lands behind a bell "
                "nobody rings again and its awaiter is never resolved"
            ),
            make=LandVsDrainProgram,
            regression=True,
            schedules=20_000,
            tree=6_450,
        ),
        Target(
            name="queue-linearizability",
            description=(
                "MPSCQueue enqueue/dequeue history vs the sequential "
                "FIFO spec"
            ),
            make=QueueLinearizabilityProgram,
            regression=False,
            strategy="random",
            schedules=150,
        ),
        Target(
            name="freelist-linearizability",
            description=(
                "FreeList alloc/free history vs the sequential pool "
                "spec"
            ),
            make=FreeListLinearizabilityProgram,
            regression=False,
            strategy="random",
            schedules=150,
        ),
        Target(
            name="pool-linearizability",
            description=(
                "request-pool alloc/release (cached, batch-refilled) "
                "history vs the sequential pool spec"
            ),
            make=RequestPoolLinearizabilityProgram,
            regression=False,
            strategy="random",
            schedules=100,
        ),
    ]
}


@dataclass
class TargetOutcome:
    """Result of exploring one corpus target in one fix configuration."""

    target: str
    fix_disabled: bool
    result: ExplorationResult
    #: the tree this run must have exhausted (see :attr:`Target.tree`),
    #: or None when the run is not the row's proof
    tree: int | None = None
    #: did the exploration behave as the corpus demands?
    expected: bool = field(init=False)

    def __post_init__(self) -> None:
        # Fix disabled -> the explorer must rediscover the race.
        # Fix enabled (or oracle target) -> it must find nothing, and a
        # proof run must have walked exactly the recorded tree.
        result = self.result
        self.expected = result.found == self.fix_disabled and (
            self.tree is None
            or (result.exhausted and result.runs == self.tree)
        )


def run_target(
    name: str,
    fix_disabled: bool = False,
    seed: int = 0,
    schedules: int | None = None,
    strategy: str | None = None,
    counters: Any = None,
    verbose: bool = False,
) -> TargetOutcome:
    """Explore one corpus target; see :class:`TargetOutcome`."""
    target = CORPUS[name]
    if target.regression:
        make = lambda: target.make(fix_disabled)  # noqa: E731
    else:
        if fix_disabled:
            raise ValueError(
                f"{name} is an oracle target; it has no fix to disable"
            )
        make = target.make
    strategy = strategy or target.strategy
    schedules = schedules or target.schedules
    proof = (
        not fix_disabled
        and strategy == target.strategy
        and schedules == target.schedules
    )
    explorer = Explorer(
        make,
        strategy=strategy,
        schedules=schedules,
        seed=seed,
        max_steps=target.max_steps,
        counters=counters,
        verbose=verbose,
    )
    return TargetOutcome(
        target=name,
        fix_disabled=fix_disabled,
        result=explorer.run(),
        tree=target.tree if proof else None,
    )


def run_corpus(
    seed: int = 0,
    schedules: int | None = None,
    strategy: str | None = None,
    counters: Any = None,
    names: list[str] | None = None,
) -> list[TargetOutcome]:
    """Self-check the corpus (or the targets ``names``, in that order).

    Every regression target is explored twice — fix disabled (the race
    must be rediscovered) and fix enabled (the schedule budget must
    pass clean) — and every oracle target once.  The harness is only
    trusted if *both* directions hold: finding planted bugs and not
    crying wolf on fixed code.
    """
    outcomes: list[TargetOutcome] = []
    for name in CORPUS if names is None else names:
        runs = [True, False] if CORPUS[name].regression else [False]
        for fix_disabled in runs:
            outcomes.append(
                run_target(
                    name,
                    fix_disabled=fix_disabled,
                    seed=seed,
                    schedules=schedules,
                    strategy=strategy,
                    counters=counters,
                )
            )
    return outcomes
