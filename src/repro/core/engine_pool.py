"""Sharded offload engine pool: routed, work-stealing, elastic.

The paper dedicates *one* communication thread per rank (§3.1); at
scale that thread is the serialization point for every offloaded
operation.  "MPI Progress For All" and "Asynchronous MPI for the
Masses" map the design space of shared/oversubscribed progress
resources; this module brings that space onto the substrate as an
:class:`EnginePool` — N :class:`~repro.core.engine.OffloadEngine`
shards per rank behind the same ``route()`` facade a bare engine
exposes:

* a **router** picks the shard at submit time: destination-affinity,
  or thread-sticky — one engine per application thread, the paper's
  §7 "multiple threads for software offload" once endpoints exist;
* an idle shard **batch-steals** from the deepest sibling ring
  (:meth:`~repro.lockfree.mpsc_queue.MPSCQueue.steal_drain`);
* **dynamic scale-up/down** widens or narrows the set of shards the
  router places *new* streams on, driven by the queue-depth telemetry
  the batching PR introduced.

Ordering invariant (why MPI non-overtaking survives all three):

1. The router is *sticky per stream*: every command of one ordered
   stream — same ``(comm, "send", dest)``, or all receives of one
   communicator (wildcards can match any of them), or all collectives
   of one communicator (collective order is rank-global) — lands on
   the same shard's ring for the stream's lifetime, so a stream is
   totally ordered by ring order.  Scaling only changes where *new*
   streams are placed.
2. The ring hands out at most one batch at a time, in ring order: the
   owner's ``drain`` refuses while a stolen batch is outstanding
   (``steal_pending``), and a thief's ``steal_drain`` refuses while
   the owner is mid-dispatch (``dispatch_busy``) — so batches from one
   ring are *issued* in the order they were enqueued, whoever issues
   them.

Together: per-stream issue order equals program order, which is
exactly the ordering contract MPI gives multithreaded applications.

A dead shard does not kill the pool: its pending work is failed with
typed errors (exactly the single-engine contract) and the router remaps
the dead shard's streams to survivors — safe precisely *because* the
dead shard terminally failed everything it held, so a remapped stream
cannot be reordered against operations that no longer exist.  The pool
as a whole reports ``dead`` only when every shard has died.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.core.commands import Command, CommandKind
from repro.core.engine import OffloadEngine
from repro.core.request_pool import (
    OffloadEngineDied,
    OffloadRequestPool,
)
from repro.mpisim.constants import ThreadLevel
from repro.mpisim.exceptions import ThreadLevelError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.communicator import Communicator

#: Routing policies accepted by :class:`EnginePool`.
ROUTER_POLICIES = ("dest", "thread")

#: Default sibling ring depth above which an idle shard steals.
DEFAULT_STEAL_THRESHOLD = 8

#: Route calls between autoscale evaluations (power of two: the
#: throttle is a single AND on the hot path).
_SCALE_EVERY = 64

#: Consecutive all-idle evaluations before the routing width shrinks.
_SCALE_DOWN_EVALS = 8


def _is_control(cmd: Command) -> bool:
    """Control commands must execute on their own engine: SHUTDOWN
    stops exactly the engine it was submitted to, and FLUSH fences
    exactly that engine's prior work.  The steal predicate stops a
    stolen batch *before* either."""
    return (
        cmd.kind is CommandKind.SHUTDOWN
        or cmd.kind is CommandKind.FLUSH
    )


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
        round-robin over the active shards (per-thread program order,
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
        #: pins that stopped agreeing with where the policy would place
        #: their stream: dead-shard remaps, and — counted once per scale
        #: event, not per route — pins a new routing width left stale
        #: (an imbalance signal, not an error)
        self.misroutes = 0
        #: DST-only regression hook: ignore stickiness entirely and
        #: round-robin every command — splits ordered streams across
        #: shards, the reordering bug stickiness exists to prevent.
        self._unsafe_ignore_stickiness = False

    def stream_key(self, cmd: Command | None):
        if cmd is None or self.policy == "thread":
            return ("t", threading.get_ident())
        kind = cmd.kind
        K = CommandKind
        if kind is K.SEND or kind is K.ISEND:
            return (id(cmd.comm), "s", cmd.peer)
        if kind is K.RECV or kind is K.IRECV or kind is K.IPROBE:
            # All receives of a communicator form ONE stream: a
            # wildcard receive may match any posted receive's sender,
            # so splitting them across shards could reorder matching.
            return (id(cmd.comm), "r")
        if kind is K.CALL or kind is K.FLUSH or kind is K.SHUTDOWN:
            return ("t", threading.get_ident())
        # Collectives: rank-global order per communicator.
        return (id(cmd.comm), "c")

    def pinned(self, cmd: Command | None) -> int | None:
        """Shard index ``cmd``'s stream is pinned to, ``None`` on first
        sight — the whole sticky hit: one key, one dictionary look (a
        subscript, not a ``get``: no call).  Whether the shard still
        lives is the caller's check."""
        if self._unsafe_ignore_stickiness:
            return None
        try:
            return self._streams[self.stream_key(cmd)]
        except KeyError:
            return None

    def _hash_pick(self, key, candidates: list[int]) -> int:
        return candidates[hash(key) % len(candidates)]

    def assign(self, key, candidates: list[int], alive: list[bool]) -> int:
        """Pin ``key`` to a shard (or remap it off a dead one);
        ``candidates`` are the indices the policy may place new streams
        on (live shards in the active prefix), ``alive`` covers every
        shard for sticky validation."""
        if self._unsafe_ignore_stickiness:
            with self._lock:
                self._next += 1
                return candidates[(self._next - 1) % len(candidates)]
        with self._lock:
            cur = self._streams.get(key)
            if cur is not None and alive[cur]:
                return cur  # another thread of the stream pinned it
            if self.policy == "thread":
                pick = candidates[self._next % len(candidates)]
                self._next += 1
            else:
                pick = self._hash_pick(key, candidates)
            if cur is not None:
                # Dead-shard remap: the dead shard failed everything it
                # held with typed errors, so moving the stream cannot
                # reorder it against surviving operations.
                self.misroutes += 1
            self._streams[key] = pick
            return pick

    def note_rescale(self, candidates: list[int]) -> None:
        """The routing width changed: count, once, every pin the hash
        policy would now place elsewhere.  Pins stay where they are."""
        if self.policy != "dest":
            return
        with self._lock:
            for key, idx in self._streams.items():
                if self._hash_pick(key, candidates) != idx:
                    self.misroutes += 1

    def release_comm(self, comm_id: int) -> int:
        """Drop every stream keyed to communicator ``comm_id``.

        Called after a shrink: the revoked communicator failed all of
        its streams' work typed, so their sticky assignments are dead
        weight — releasing them lets the shrunk communicator's streams
        (a different ``id()``) start placement fresh.  Returns how many
        stream pins were dropped.
        """
        with self._lock:
            stale = [
                key
                for key in self._streams
                if isinstance(key, tuple) and key[0] == comm_id
            ]
            for key in stale:
                del self._streams[key]
            return len(stale)


class _PoolCounters:
    """Read-mostly merged view over the shards' telemetry counters."""

    def __init__(self, pool: "EnginePool") -> None:
        self._pool = pool

    def _snapshots(self) -> list[dict]:
        out = []
        for e in self._pool.engines:
            tm = e.telemetry
            if tm is not None:
                out.append(dict(tm.counters.snapshot()))
        return out

    def snapshot(self) -> dict:
        from repro.obs.counters import merge_counters

        return merge_counters(self._snapshots())

    def get(self, name: str, default: int = 0) -> int:
        return self.snapshot().get(name, default)

    # Writes land on shard 0 (facade paths always write through a
    # *routed* engine's counters; this is defensive compatibility).
    def inc(self, name: str, delta: int = 1) -> None:
        tm = self._pool.engines[0].telemetry
        if tm is not None:
            tm.counters.inc(name, delta)

    def record_max(self, name: str, value: int) -> None:
        tm = self._pool.engines[0].telemetry
        if tm is not None:
            tm.counters.record_max(name, value)


class _PoolTelemetry:
    """Pool-level stand-in for an engine's telemetry bundle."""

    trace = None

    def __init__(self, pool: "EnginePool") -> None:
        self.counters = _PoolCounters(pool)


class EnginePool:
    """N offload engines behind one ``route()`` interface.

    Drop-in wherever a single :class:`OffloadEngine` is used; the
    facade calls ``route(cmd)`` to pick the shard for each command.
    See the module docstring for the routing/stealing/scaling design
    and the ordering argument.

    Parameters
    ----------
    pool_size:
        Number of engine shards.  ``pool_size > 1`` requires
        ``MPI_THREAD_MULTIPLE`` (several offload threads enter MPI).
    router:
        Placement policy for new streams; one of
        :data:`ROUTER_POLICIES`.
    steal_threshold:
        Sibling ring depth above which an idle shard batch-steals;
        ``None`` disables stealing.
    autoscale:
        Widen/narrow the active routing prefix from queue depth.  All
        shards are constructed and started up front — scaling moves
        *placement*, never engine lifecycle, so there is no
        submit-versus-stop race to lose commands in.
    """

    def __init__(
        self,
        comm: "Communicator",
        pool_size: int = 2,
        router: str = "dest",
        steal_threshold: Optional[int] = DEFAULT_STEAL_THRESHOLD,
        autoscale: bool = True,
        pool_capacity: int = 4096,
        queue_capacity: int = 4096,
        telemetry: bool | None = None,
        faults=None,
        recovery=None,
        batch_size: int | None = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        # DST harnesses drive never-started engines through a fake
        # communicator without a world; treat "no world" as MULTIPLE.
        level = getattr(
            getattr(comm, "world", None),
            "thread_level",
            ThreadLevel.MULTIPLE,
        )
        if pool_size > 1 and level < ThreadLevel.MULTIPLE:
            raise ThreadLevelError(
                "multiple offload threads enter MPI concurrently; the "
                "world must be MPI_THREAD_MULTIPLE"
            )
        self.comm = comm
        #: one request pool shared by every shard: any engine —
        #: including a thief completing a victim's stolen commands —
        #: can terminate any slot, and the facade can allocate a slot
        #: before routing.
        self.request_pool = OffloadRequestPool(pool_capacity)
        self.engines = [
            OffloadEngine(
                comm,
                pool_capacity=pool_capacity,
                queue_capacity=queue_capacity,
                telemetry=telemetry,
                faults=faults,
                recovery=recovery,
                request_pool=self.request_pool,
                batch_size=batch_size,
            )
            for _ in range(pool_size)
        ]
        self.router = ShardRouter(router)
        #: a pool of one routes everything to its only shard
        self._lone = self.engines[0] if pool_size == 1 else None
        self.steal_threshold = steal_threshold
        if steal_threshold is not None and pool_size > 1:
            for e in self.engines:
                e.queue.enable_steal()
                e._steal_source = self._steal_for
        self._autoscale = autoscale and pool_size > 1
        #: routing width: new streams go to shards [0, _active).  The
        #: pool starts at full width (all shards earning their keep
        #: immediately); sustained idleness narrows it, queue depth
        #: widens it again.
        self._active = pool_size
        self._scale_lock = threading.Lock()
        self._route_ops = 0
        self._idle_evals = 0
        self.shard_scale_events = 0

    # -- routing ------------------------------------------------------------

    def route(self, cmd: Command | None = None) -> OffloadEngine:
        """The shard that must carry ``cmd`` (sticky per stream).

        With no command, routes by calling thread — the inspection/
        compatibility path (``oc.engine.route().stats()`` etc.).
        Raises :class:`OffloadEngineDied` only when every shard died.
        """
        lone = self._lone
        if lone is not None:
            return lone
        if self._autoscale:
            self._maybe_scale()
        idx = self.router.pinned(cmd)
        if idx is not None:
            engine = self.engines[idx]
            if engine._dead is None:
                return engine
        return self._place(cmd)

    def _place(self, cmd: Command | None) -> OffloadEngine:
        """First command of a stream, or its shard died: pick among
        the live shards of the active prefix (any live shard when the
        prefix is all dead) and pin the stream there."""
        engines = self.engines
        alive = [e._dead is None for e in engines]
        candidates = self._candidates(alive)
        if not candidates:
            first = next(x for x in engines if x._dead is not None)
            raise OffloadEngineDied(
                f"all {len(engines)} pool shards terminated: "
                f"{first._dead}"
            )
        key = self.router.stream_key(cmd)
        return engines[self.router.assign(key, candidates, alive)]

    def _candidates(self, alive: list[bool]) -> list[int]:
        return [i for i in range(self._active) if alive[i]] or [
            i for i, up in enumerate(alive) if up
        ]

    def submit(self, cmd: Command) -> None:
        """Route ``cmd`` to its shard and enqueue it there.

        Engine-compatibility surface: callers holding ``oc.engine``
        may submit directly; the router picks the shard at submit
        time, exactly as the facade does."""
        self.route(cmd).submit(cmd)

    def remap_shrunk(self, old_comm, new_comm) -> int:
        """Forget the revoked communicator's stream pins after a shrink.

        ``old_comm`` has been revoked — every command it still owned
        failed typed — and ``new_comm`` is its shrunk replacement.  The
        shrunk communicator is a distinct object, so its streams key
        fresh in the router; all this must do is drop the dead pins so
        the table does not grow across repeated shrinks.  Returns the
        number of released stream pins."""
        return self.router.release_comm(id(old_comm))

    def _maybe_scale(self) -> None:
        self._route_ops += 1
        if self._route_ops & (_SCALE_EVERY - 1):
            return
        with self._scale_lock:
            active = self._active
            depths = [len(e.queue) for e in self.engines[:active]]
            threshold = self.steal_threshold or DEFAULT_STEAL_THRESHOLD
            if active < len(self.engines) and max(depths) >= threshold:
                self._rescale(active + 1)
            elif active > 1 and not any(depths):
                self._idle_evals += 1
                if self._idle_evals >= _SCALE_DOWN_EVALS:
                    self._rescale(active - 1)
            else:
                self._idle_evals = 0

    def _rescale(self, active: int) -> None:
        """One scale event (under ``_scale_lock``): new streams go to
        shards ``[0, active)`` from here on; the streams already pinned
        stay put and the router counts the pins the new width leaves
        stale."""
        self._active = active
        self._idle_evals = 0
        self.shard_scale_events += 1
        self.router.note_rescale(
            self._candidates([e._dead is None for e in self.engines])
        )

    # -- stealing -----------------------------------------------------------

    def _steal_for(self, thief: OffloadEngine):
        """Pick the deepest sibling ring past the threshold and steal
        one batch from it; installed as every shard's
        ``_steal_source``.  Returns ``(victim_queue, commands)`` or
        ``None``."""
        threshold = self.steal_threshold
        if threshold is None:
            return None
        best: OffloadEngine | None = None
        best_depth = threshold - 1
        for e in self.engines:
            if e is thief or e._dead is not None:
                continue
            depth = len(e.queue)
            if depth > best_depth:
                best, best_depth = e, depth
        if best is None:
            return None
        cmds = best.queue.steal_drain(thief.batch_size, stop=_is_control)
        if not cmds:
            return None
        return best.queue, cmds

    # -- single-engine compatibility surface --------------------------------

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

    @property
    def recovery(self):
        return self.engines[0].recovery

    @property
    def pool(self) -> OffloadRequestPool:
        return self.request_pool

    @property
    def queue(self):
        return self.route().queue

    @property
    def queue_full_retries(self) -> int:
        return sum(e.queue_full_retries for e in self.engines)

    @property
    def telemetry(self):
        """Merged counters view (``None`` when telemetry is off)."""
        if self.engines[0].telemetry is None:
            return None
        return _PoolTelemetry(self)

    def pending_work(self) -> list[str]:
        out: list[str] = []
        for i, e in enumerate(self.engines):
            out.extend(
                f"shard {i}: {desc}" for desc in e.pending_work()
            )
        return out

    def stats(self) -> dict[str, int]:
        """Aggregated statistics across shards (sums; maxima for
        ``*_hwm``/``max_*``), plus pool-level routing/scaling rows."""
        total: dict[str, int] = {}
        for e in self.engines:
            for k, v in e.stats().items():
                if k.endswith("_hwm") or k.startswith("max_"):
                    total[k] = max(total.get(k, 0), v)
                else:
                    total[k] = total.get(k, 0) + v
        # The request pool is shared: per-shard views each saw the
        # whole pool, so the sum overcounted it.
        total["pool_allocated"] = self.request_pool.allocated
        total["continuation_fires"] = self.request_pool.continuation_fires
        total["continuation_drops"] = self.request_pool.continuation_drops
        total["engines"] = len(self.engines)
        total["active_shards"] = self._active
        total["shard_scale_events"] = self.shard_scale_events
        total["router_misroutes"] = self.router.misroutes
        return total

    def telemetry_snapshot(self, include_trace: bool = False) -> dict:
        """Merged structured snapshot across the pool's shards.

        Note the per-shard balance law intentionally breaks under
        stealing (the victim counts the enqueue, the thief the drain);
        the pool-merged snapshot is the balanced unit of accounting.
        """
        from repro import obs

        merged = obs.merge(
            [
                e.telemetry_snapshot(include_trace=include_trace)
                for e in self.engines
            ]
        )
        # Shared sections: every shard snapshotted the same request
        # pool and the same per-rank progress engine; keep one copy
        # instead of an N-fold sum.
        merged["pool"] = {
            "capacity": self.request_pool.capacity,
            "allocated": self.request_pool.allocated,
        }
        progress = getattr(self.comm, "engine", None)
        if progress is not None and hasattr(progress, "counters"):
            merged["progress"] = progress.counters()
        if merged.get("counters"):
            merged["counters"]["shard_scale_events"] = (
                self.shard_scale_events
            )
            merged["counters"]["router_misroutes"] = self.router.misroutes
        return merged

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "EnginePool":
        started = []
        try:
            for e in self.engines:
                e.start()
                started.append(e)
        except BaseException:
            for e in started:
                e.abort("pool start failed")
            raise
        return self

    def stop(self, timeout: float = 30.0) -> None:
        errors = []
        for e in self.engines:
            try:
                e.stop(timeout=timeout)
            except RuntimeError as exc:  # pragma: no cover - watchdog
                errors.append(exc)
                e.abort("pool stop escalation")
        if errors:  # pragma: no cover
            raise errors[0]

    def __enter__(self) -> "EnginePool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
