"""Sharded offload engine pool: N routed engines, one consumer per ring.

The paper dedicates *one* communication thread per rank (§3.1); at
scale that thread is the serialization point for every offloaded
operation.  "MPI Progress For All" and "Asynchronous MPI for the
Masses" map the design space of shared/oversubscribed progress
resources; this module brings that space onto the substrate as an
:class:`EnginePool` — N :class:`~repro.core.engine.OffloadEngine`
shards per rank, the paper's one thread being the pool of one.  Every
:class:`~repro.core.offload_comm.OffloadCommunicator` holds a pool; an
engine is only ever one of its shards.  A **router** picks the shard
at submit time:
destination-affinity, or thread-sticky — one engine per application
thread, the paper's §7 "multiple threads for software offload" once
endpoints exist.

Ordering invariant (why MPI non-overtaking survives sharding): the
router is *sticky per stream*.  Every command of one ordered stream —
same ``(comm, "send", dest)``, or all receives of one communicator
(wildcards can match any of them), or all collectives of one
communicator (collective order is rank-global) — lands on the same
shard's ring for the stream's lifetime, and that ring has exactly one
consumer, its own engine, which issues in ring order.  Per-stream issue
order therefore equals program order, which is exactly the ordering
contract MPI gives multithreaded applications.  No shard ever takes
work from a sibling's ring (DESIGN.md §13), so each shard's counters
balance on their own.

A dead shard does not kill the pool: its pending work is failed with
typed errors (exactly the single-engine contract) and the router remaps
the dead shard's streams to survivors — safe precisely *because* the
dead shard terminally failed everything it held, so a remapped stream
cannot be reordered against operations that no longer exist.  The pool
as a whole reports ``dead`` only when every shard has died.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.core.commands import Command, CommandKind
from repro.core.engine import OffloadEngine
from repro.core.request_pool import (
    OffloadEngineDied,
    OffloadRequestPool,
)
from repro.mpisim.constants import ThreadLevel
from repro.mpisim.exceptions import ThreadLevelError
from repro.obs.counters import merge_counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.communicator import Communicator

#: Routing policies accepted by :class:`EnginePool`.
ROUTER_POLICIES = ("dest", "thread")


class ShardRouter:
    """Sticky stream-to-shard assignment under a placement policy.

    A *stream* is the unit MPI orders: the router maps every command
    onto a stream key, then pins the key to a shard on first sight.
    The policy only decides where **new** streams go:

    ``dest``
        sends hash by ``(comm, destination)`` — traffic to different
        peers spreads, each peer's send stream stays ordered;
    ``thread``
        every command keys on the calling thread and new threads
        round-robin over the live shards (per-thread program order,
        all MPI promises under ``MPI_THREAD_MULTIPLE``).
    """

    def __init__(self, policy: str) -> None:
        if policy not in ROUTER_POLICIES:
            raise ValueError(
                f"unknown router policy {policy!r}; "
                f"expected one of {ROUTER_POLICIES}"
            )
        self.policy = policy
        self._streams: dict = {}
        self._lock = threading.Lock()
        self._next = 0
        #: dead-shard remaps: streams moved off a shard that died
        self.misroutes = 0

    def stream_key(self, cmd: Command | None):
        # A communicator's streams key on its cid and an int kind code
        # (0 send, 1 receive, 2 collective): ints hash alike in every
        # process, so placement does not vary with the str hash seed.
        if cmd is None or self.policy == "thread":
            return ("t", threading.get_ident())
        kind = cmd.kind
        if kind is CommandKind.ISEND:
            return (cmd.comm.cid, 0, cmd.peer)
        if kind is CommandKind.IRECV or kind is CommandKind.IPROBE:
            # All receives of a communicator form ONE stream: a
            # wildcard receive may match any posted receive's sender,
            # so splitting them across shards could reorder matching.
            return (cmd.comm.cid, 1)
        if cmd.comm is None:
            # FLUSH, SHUTDOWN, a CALL on no communicator
            return ("t", threading.get_ident())
        # Collectives — the I-kinds and every CALL that carries its
        # communicator (gatherv, dup, split, win_create, ...): one
        # stream per communicator, since collective order is
        # rank-global.
        return (cmd.comm.cid, 2)

    def pinned(self, cmd: Command | None) -> int | None:
        """Shard index ``cmd``'s stream is pinned to, ``None`` on first
        sight — the whole sticky hit: one key, one dictionary look (a
        subscript, not a ``get``: no call).  Whether the shard still
        lives is the caller's check."""
        try:
            return self._streams[self.stream_key(cmd)]
        except KeyError:
            return None

    def assign(self, key, candidates: list[int]) -> int:
        """Pin ``key`` to one of ``candidates``, the live shards'
        indices (or remap it there off a dead one)."""
        with self._lock:
            cur = self._streams.get(key)
            if cur in candidates:
                return cur  # another thread of the stream pinned it
            if self.policy == "thread":
                pick = candidates[self._next % len(candidates)]
                self._next += 1
            else:
                pick = candidates[hash(key) % len(candidates)]
            if cur is not None:
                # Dead-shard remap: the dead shard failed everything it
                # held with typed errors, so moving the stream cannot
                # reorder it against surviving operations.
                self.misroutes += 1
            self._streams[key] = pick
            return pick

    def release_comm(self, cid: int) -> int:
        """Drop every stream keyed to communicator ``cid``.

        Called after a shrink: the revoked communicator failed all of
        its streams' work typed, so their sticky assignments are dead
        weight — releasing them lets the shrunk communicator's streams
        (a different ``cid``) start placement fresh.  Returns how many
        stream pins were dropped.
        """
        with self._lock:
            stale = [key for key in self._streams if key[0] == cid]
            for key in stale:
                del self._streams[key]
            return len(stale)


class EnginePool:
    """N offload engines behind one ``route()`` interface.

    The facade picks the shard for each command: the only one of a
    pool of one (``_lone``, an attribute read), else ``route(cmd)``.
    See the module docstring for the routing design and the ordering
    argument.

    Parameters
    ----------
    pool_size:
        Number of engine shards.  ``pool_size > 1`` requires
        ``MPI_THREAD_MULTIPLE`` (several offload threads enter MPI).
    router:
        Placement policy for new streams; one of
        :data:`ROUTER_POLICIES`.
    pool_capacity / queue_capacity:
        Sizes of the request pool the shards share and of each shard's
        command ring.
    """

    def __init__(
        self,
        comm: "Communicator",
        pool_size: int = 1,
        router: str = "dest",
        pool_capacity: int = 4096,
        queue_capacity: int = 4096,
        telemetry: bool | None = None,
        recovery=None,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if pool_size > 1 and comm.world.thread_level < ThreadLevel.MULTIPLE:
            raise ThreadLevelError(
                "multiple offload threads enter MPI concurrently; the "
                "world must be MPI_THREAD_MULTIPLE"
            )
        self.router = ShardRouter(router)
        self.comm = comm
        self.recovery = recovery
        #: one request pool shared by every shard: the facade allocates
        #: a slot before it knows which shard will complete it.
        self.pool = OffloadRequestPool(pool_capacity)
        self.engines = [
            OffloadEngine(
                comm,
                self.pool,
                queue_capacity=queue_capacity,
                telemetry=telemetry,
                recovery=recovery,
            )
            for _ in range(pool_size)
        ]
        #: a pool of one routes everything to its only shard
        self._lone = self.engines[0] if pool_size == 1 else None

    # -- routing ------------------------------------------------------------

    def route(self, cmd: Command | None = None) -> OffloadEngine:
        """The shard that must carry ``cmd`` (sticky per stream).

        With no command, routes by calling thread.  Raises
        :class:`OffloadEngineDied` only when every shard died.
        """
        lone = self._lone
        if lone is not None:
            return lone
        idx = self.router.pinned(cmd)
        if idx is not None:
            engine = self.engines[idx]
            if engine._dead is None:
                return engine
        return self._place(cmd)

    def _place(self, cmd: Command | None) -> OffloadEngine:
        """First command of a stream, or its shard died: pick among
        the live shards and pin the stream there."""
        engines = self.engines
        candidates = [i for i, e in enumerate(engines) if e._dead is None]
        if not candidates:
            first = next(x for x in engines if x._dead is not None)
            raise OffloadEngineDied(
                f"all {len(engines)} pool shards terminated: "
                f"{first._dead}"
            )
        key = self.router.stream_key(cmd)
        return engines[self.router.assign(key, candidates)]

    def submit(self, cmd: Command) -> None:
        """Route ``cmd`` to its shard and enqueue it there, exactly as
        the facade does."""
        self.route(cmd).submit(cmd)

    def remap_shrunk(self, old_comm, new_comm) -> int:
        """Forget the revoked communicator's stream pins after a shrink.

        ``old_comm`` has been revoked — every command it still owned
        failed typed — and ``new_comm`` is its shrunk replacement.  The
        shrunk communicator has a cid of its own, so its streams key
        fresh in the router; all this must do is drop the dead pins so
        the table does not grow across repeated shrinks.  Returns the
        number of released stream pins."""
        return self.router.release_comm(old_comm.cid)

    # -- the pool as a whole ---------------------------------------------

    @property
    def dead(self) -> BaseException | None:
        """Typed death only when *every* shard died; one dead shard
        leaves the pool serving (its streams remapped)."""
        first: BaseException | None = None
        for e in self.engines:
            if e._dead is None:
                return None
            if first is None:
                first = e._dead
        return first

    def pending_work(self) -> list[str]:
        """Every shard's pending work, each line prefixed with the
        shard's index (and its death, if it died)."""
        out: list[str] = []
        for i, e in enumerate(self.engines):
            who = f"shard {i}"
            if e._dead is not None:
                who += f" (dead: {e._dead})"
            out.extend(f"{who}: {desc}" for desc in e.pending_work())
        return out

    def _pool_rows(self, counters: dict[str, int]) -> dict[str, int]:
        """``counters`` (shards' counts merged) with the shared request
        pool and progress engine read once, plus the routing rows."""
        counters.update(self.engines[0]._shared_counts())
        counters["engines"] = len(self.engines)
        counters["router_misroutes"] = self.router.misroutes
        return counters

    def stats(self) -> dict[str, int]:
        """The shards' own counters merged (sums; maxima for peaks),
        the shared request pool and the rank's progress engine read
        once, plus pool-level routing rows."""
        return self._pool_rows(
            merge_counters([e._own_counts() for e in self.engines])
        )

    def telemetry_snapshot(self) -> dict:
        """Merged structured snapshot across the pool's shards.

        Each shard drains only its own ring, so every shard's snapshot
        balances on its own (its enqueues == its drains == its
        ``commands_processed``) and the merged one does too.  Its
        ``counters`` are the shards' snapshot counters merged, with the
        rows of :meth:`stats` that are the pool's own.
        """
        from repro import obs

        merged = obs.merge([e.telemetry_snapshot() for e in self.engines])
        # Shared sections: every shard snapshotted the same request
        # pool and the same per-rank progress engine; keep one copy
        # instead of an N-fold sum.
        merged["pool"] = {
            "capacity": self.pool.capacity,
            "allocated": self.pool.allocated,
        }
        merged["progress"] = self.comm.engine.counters()
        self._pool_rows(merged["counters"])
        return merged

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "EnginePool":
        """Start every shard, and name the pool's pending work in its
        rank's hang report (``ProgressEngine.describers``) until
        :meth:`stop` — a crashed shard's included."""
        started = []
        try:
            for e in self.engines:
                e.start()
                started.append(e)
        except BaseException:
            for e in started:
                e.abort("pool start failed")
            raise
        self.comm.engine.describers.append(self.pending_work)
        return self

    def stop(self, timeout: float = 30.0) -> None:
        errors = []
        for e in self.engines:
            try:
                e.stop(timeout=timeout)
            except RuntimeError as exc:  # pragma: no cover - watchdog
                errors.append(exc)
                e.abort("pool stop escalation")
        describers = self.comm.engine.describers
        if self.pending_work in describers:
            describers.remove(self.pending_work)
        if errors:  # pragma: no cover
            raise errors[0]

    def __enter__(self) -> "EnginePool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
