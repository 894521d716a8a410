"""Counter glossary, and per-thread counter sets for owners without
attributes of their own.

The offload stack counts each event once, as a plain int attribute of
the object that owns it, or reads it from the structure that holds the
fact (the ring's cursors, the free list's ledger) — see
``OffloadEngine.stats`` and DESIGN.md §9.  :data:`COUNTER_GLOSSARY`
names every counter those views emit, and the ones below.

:class:`Counters` serves the owners that count named events they keep
no attribute for (a fault plan's per-action counts, a checkpoint store,
the DST explorer).  Every thread owns a private counter dict:

* ``inc``/``record_max`` touch only the calling thread's dict (plain
  int stores, GIL-atomic, no contention);
* the one-time registration of a new thread's dict takes a lock, but
  never while counting;
* ``snapshot`` merges all per-thread dicts: sums for event counters,
  max for peaks (see :func:`is_peak`).

Dicts of threads that have exited stay registered, so their counts are
never lost.
"""

from __future__ import annotations

import threading


def is_peak(name: str) -> bool:
    """Is counter ``name`` a peak (merged with ``max``, not ``+``)?"""
    return name.endswith("_hwm") or name.startswith("max_")


#: Glossary of every counter the offload stack emits (name -> meaning).
#: ``report.render`` and the docs table are generated from this, so a
#: counter added to the engine should be added here too.
COUNTER_GLOSSARY: dict[str, str] = {
    # -- the engine (core.engine): attributes, and its ring's cursors ---
    "enqueues": "commands enqueued on the command ring (its cursors: "
    "dequeued plus still queued)",
    "commands_drained": "commands dequeued from the ring by the engine "
    "loop (the ring's dequeue count)",
    "commands_processed": "commands admitted by the engine (drained "
    "runs, runs of one and due retries)",
    "queue_full_retries": "enqueue attempts bounced by a full ring "
    "(backpressure events)",
    "queue_cas_failures": "failed enqueue CAS attempts on the ring "
    "(producer contention)",
    "testany_sweeps": "engine loop iterations, each pumping progress "
    "over in-flight requests (the §3.2 Testany loop; the heartbeat)",
    "progress_sweeps": "Testany passes that found requests in flight",
    "completions": "commands that reached a terminal state (completed, "
    "failed, expired, or flushed)",
    "doorbell_wakes": "parks of the engine loop ended by a doorbell "
    "(submit, arrival, or completion of a request the rank owns)",
    "timed_wakes": "parks ended by the tick or a deadline after which "
    "the loop found work — work no doorbell announced (a due retry, "
    "an expired deadline, a matured fault delay; otherwise a wake "
    "source someone forgot to ring)",
    "control_commands": "engine-control commands (SHUTDOWN)",
    "max_in_flight": "peak number of simultaneously in-flight requests",
    "batch_dequeues": "non-empty batch drains of the command ring "
    "(one per engine loop iteration that found work)",
    "batch_size_hwm": "largest single batch drained from the ring",
    "substrate_entries": "entries into the substrate to post p2p "
    "commands: one per drained run, however many it carries",
    # -- recovery (core.recovery) ---------------------------------------
    "retries": "idempotent commands re-driven after a transient "
    "failure (RetryPolicy)",
    "deadline_expirations": "commands terminal-failed with "
    "OffloadTimeout for missing their deadline",
    "watchdog_trips": "times a caller-side watchdog declared the "
    "engine wedged and poisoned it",
    "degraded_mode_commands": "facade calls executed inline on the "
    "calling thread after engine death (FUNNELED fallback)",
    # -- the request pool (core.request_pool), shared by shards ---------
    "pool_allocated": "request-pool slots handed out and not yet "
    "released (read from the free list's ledger)",
    "pool_exhausted": "request-pool allocation failures (pool empty)",
    "refills": "chunks moved from the shared free list into a thread's "
    "slot cache (one CAS each)",
    "continuation_fires": "continuations delivered exactly once at a "
    "request's terminal state (success and every typed failure path: "
    "timeout, crash, revoke, shrink)",
    "continuation_drops": "continuation deliveries abandoned "
    "undelivered — a direct waiter consumed the slot before the "
    "continuation could fire, or the asyncio loop had already closed "
    "when the completion landed (its handle is consumed on the firing "
    "thread; lost register-vs-complete race "
    "attempts are silent: the winning side delivered)",
    # -- zero-copy data plane (DESIGN.md §14), rank-wide -----------------
    "payload_copies": "intermediate payload materializations (eager "
    "copy-at-post, RMA origin packing, fault-plan duplicate deep "
    "copies); the final copy into a posted receive buffer is never "
    "counted, so 0 on the zero-copy happy path means each byte moved "
    "exactly once",
    "payload_zero_copy_hits": "deliveries satisfied directly from the "
    "sender's live user buffer into the receiver's posted buffer "
    "(counted on the receiving/target rank)",
    # -- sharded engine pool (core.engine_pool) -------------------------
    "engines": "offload engine shards behind the facade",
    "router_misroutes": "streams remapped off a dead shard (counted "
    "once per stream, not per route)",
    # -- asyncio bridge + serving front-end (repro.serve) ---------------
    "loop_crossings": "drains of the asyncio bridge's landed queue, "
    "each one ``loop.call_soon_threadsafe`` (a self-pipe write and a "
    "GIL hand-off to the loop thread); completions that land while a "
    "drain is pending share it, so this stays well below "
    "continuation_fires under load",
    "serve_accepted": "serving requests admitted past admission "
    "control (served at once or queued in a tenant queue)",
    "serve_rejected": "serving requests refused with a typed "
    "backpressure error (global in-flight cap or tenant queue full)",
    "serve_completed": "serving requests that finished successfully "
    "and recorded a latency sample",
    "serve_failed": "serving requests that terminated with a typed "
    "offload/MPI error (a terminal outcome: accepted = completed + "
    "failed + still-in-flight, so nothing is ever silently lost)",
    # -- owners counting through Counters --------------------------------
    "faults_injected": "faults fired by the installed FaultPlan "
    "(all scopes; per-action detail in fault_<action> counters)",
    "duplicate_deep_copies": "borrowed zero-copy payloads a fault "
    "plan's DUPLICATE action had to materialize so the duplicate "
    "cannot alias the sender's buffer",
    "checkpoint_bytes": "bytes committed to the checkpoint store by "
    "the run_resilient driver (one consistent snapshot per epoch "
    "boundary)",
    "restarts": "recovery events where survivors shrank the world and "
    "resumed from the last consistent checkpoint (one count per "
    "revoke→agree→shrink→restore cycle, not per rank)",
    "schedules_explored": "DST schedules executed by the explorer "
    "(one seeded interleaving each)",
    "yields": "DST yield points taken across explored schedules "
    "(scheduler choice points hit in the lockfree/engine hot paths)",
    "lin_histories_checked": "operation histories checked for "
    "linearizability against a sequential model spec",
    "dst_violations": "explored schedules that violated an invariant, "
    "deadlocked, or produced a non-linearizable history",
    # -- fault tolerance on the substrate (a snapshot's progress section)
    "comm_revokes": "communicators revoked on this rank (first local "
    "application of each revoke; ULFM MPI_Comm_revoke analogue)",
    "agree_rounds": "candidate-exchange rounds run by the "
    "fault-tolerant agreement protocol (Communicator.agree); grows "
    "when participants die mid-protocol and survivors re-round",
    "shrink_epochs": "communicator shrinks completed on this rank "
    "(orphaned queue entries drained, surviving membership renumbered)",
}


class Counters:
    """A set of named counters, sharded per thread, merged on read."""

    __slots__ = ("_local", "_shards", "_register_lock")

    def __init__(self) -> None:
        self._local = threading.local()
        self._shards: list[dict[str, int]] = []
        self._register_lock = threading.Lock()

    # -- hot path ---------------------------------------------------------

    def _mine(self) -> dict[str, int]:
        try:
            return self._local.shard
        except AttributeError:
            shard: dict[str, int] = {}
            with self._register_lock:
                self._shards.append(shard)
            self._local.shard = shard
            return shard

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to this thread's shard of counter ``name``."""
        shard = self._mine()
        shard[name] = shard.get(name, 0) + n

    def record_max(self, name: str, value: int) -> None:
        """Raise this thread's shard of high-water mark ``name``."""
        shard = self._mine()
        if value > shard.get(name, 0):
            shard[name] = value

    # -- aggregation ------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """Merged view across all threads (sum; max for peaks)."""
        with self._register_lock:
            shards = list(self._shards)
        # copy: the owning thread may be mutating concurrently
        return merge_counters([dict(shard) for shard in shards])

    def get(self, name: str) -> int:
        """Merged value of one counter (0 if never incremented)."""
        return self.snapshot().get(name, 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counters({self.snapshot()!r})"


def merge_counters(dicts: "list[dict[str, int]]") -> dict[str, int]:
    """Merge counter dicts: sum event counts, max peaks."""
    out: dict[str, int] = {}
    for d in dicts:
        for name, value in d.items():
            if is_peak(name):
                out[name] = max(out.get(name, value), value)
            else:
                out[name] = out.get(name, 0) + value
    return out
