"""World launcher: runs an SPMD rank program on N threads.

The analogue of ``mpiexec -n N``: each rank is a thread executing the
same function with its own :class:`~repro.mpisim.communicator.Communicator`
(the world communicator).  Ranks share one address space, which is what
lets the rendezvous protocol copy directly between user buffers — the
same property the paper exploits for its zero-extra-copy offload
(Section 3.1).

Like ``mpiexec --bind-to core``, :meth:`World.run` binds the rank of a
one-rank world to one CPU of the launch mask (DESIGN.md §21):
everything the rank spawns — its offload engines, a comm-self progress
thread, application threads — inherits that CPU, so no hand-off crosses
cores.  Ranks of a larger world are left to the scheduler: bound apart,
every hand-off *between* them is a wake-up the other CPU alone may
serve, and on a shared host that wake-up has a millisecond tail.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable

from repro.lockfree.atomics import AtomicCounter
from repro.mpisim.communicator import Communicator
from repro.mpisim.constants import (
    DEFAULT_EAGER_THRESHOLD,
    ThreadLevel,
    THREAD_FUNNELED,
)
from repro.mpisim.envelope import Envelope
from repro.mpisim.exceptions import WorldError
from repro.mpisim.progress import ProgressEngine

_WORLD_CID = 0
_SELF_CID = 1


def thread_cpus() -> list[int] | None:
    """The calling thread's CPU mask, sorted (None: platform has none)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


class World:
    """A fixed set of ranks (threads) and their progress engines.

    Parameters
    ----------
    nranks:
        Number of MPI ranks to emulate.
    thread_level:
        The granted thread-support level, enforced at every MPI call.
    eager_threshold:
        Protocol switchover in bytes (paper's MPI used 128 KB).
    zero_copy:
        Enable the zero-copy data plane (DESIGN.md §14): eager sends
        borrow the user buffer and complete at match time, paying
        exactly one copy — directly into the receiver's posted buffer.
        Off by default (classic copy-at-post eager semantics).
    """

    def __init__(
        self,
        nranks: int,
        thread_level: ThreadLevel = THREAD_FUNNELED,
        eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
        zero_copy: bool = False,
    ) -> None:
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        self.nranks = nranks
        self.thread_level = ThreadLevel(thread_level)
        self.eager_threshold = eager_threshold
        self.zero_copy = zero_copy
        self.engines = [
            ProgressEngine(
                r, self._deliver, eager_threshold, zero_copy=zero_copy
            )
            for r in range(nranks)
        ]
        self._funnel: dict[int, int | None] = {r: None for r in range(nranks)}
        self._next_cid = AtomicCounter(2)  # 0 = WORLD, 1 = SELF
        #: installed :class:`repro.faults.plan.FaultPlan` (None = no
        #: fault injection; the delivery hot path is one `is None` test)
        self.fault_plan = None
        #: ranks that have failed, shared with every progress engine
        self._dead_ranks: dict[int, BaseException] = {}
        self._death_lock = threading.Lock()
        #: per-dead-rank completion flags: set once the winning
        #: :meth:`mark_rank_dead` caller finished sweeping pending
        #: operations, so racing callers do not return early
        self._death_done: dict[int, threading.Event] = {}
        #: keyed context-id allocations (see :meth:`allocate_cid_keyed`)
        self._keyed_cids: dict[object, int] = {}
        self._cid_key_lock = threading.Lock()
        #: rank → CPU of the current/last :meth:`run`; None before the
        #: first run and whenever the ranks ran unbound (more than one
        #: rank, or a platform without the affinity call, or a refusal)
        self.binding: list[int] | None = None
        for e in self.engines:
            e.dead_ranks = self._dead_ranks

    # -- routing -----------------------------------------------------------

    def _deliver(self, dst: int, env: Envelope) -> None:
        src_eng = self.engines[env.src]
        if src_eng._revoked:
            # Piggyback the sender's revoked-cid knowledge on every
            # outgoing envelope: receivers learn of a revoke from any
            # traffic, no side channel needed (DESIGN.md §15).
            env.revoked = tuple(src_eng._revoked)
        if self._dead_ranks and dst in self._dead_ranks:
            self._bounce_dead(dst, env)
            return
        plan = self.fault_plan
        if plan is None:
            self.engines[dst].inject(env)
            return
        for d, e in plan.on_deliver(dst, env):
            self.engines[d].inject(e)

    def _bounce_dead(self, dst: int, env: Envelope) -> None:
        """A message addressed to a dead rank: fail its live requester.

        Rendezvous control traffic carries request references — failing
        them here is what bounds detection for operations posted
        *after* the death was recorded but routed before the poster
        observed it.
        """
        from repro.mpisim.exceptions import RankDeadError

        exc = self._dead_ranks[dst]
        err = RankDeadError(
            f"message to dead rank {dst} bounced ({exc})",
            rank=dst,
            rule_id=getattr(exc, "rule_id", None),
            cid=env.context_id >> 1 if env.context_id >= 0 else None,
        )
        for req in (env.send_req, env.recv_req):
            if req is not None and not req.done:
                req._fail(err)

    # -- fault injection ---------------------------------------------------

    def install_faults(self, plan) -> None:
        """Install a :class:`repro.faults.plan.FaultPlan` world-wide.

        Binds the plan (so RANK_CRASH rules can reach
        :meth:`mark_rank_dead`) and attaches it to every progress
        engine; offload engines constructed afterwards pick it up
        automatically via ``world.fault_plan``.
        """
        plan.bind(self)
        self.fault_plan = plan
        for e in self.engines:
            e.faults = plan

    # -- dead-rank bookkeeping ---------------------------------------------

    @property
    def dead_ranks(self) -> dict[int, BaseException]:
        """Ranks recorded dead (empty in normal operation)."""
        return dict(self._dead_ranks)

    def mark_rank_dead(self, rank: int, exc: BaseException) -> None:
        """Record a rank as failed and unblock everything waiting on it.

        Idempotent.  Fails (with :class:`RankDeadError`):

        * peers' rendezvous/matched traffic parked on the dead rank,
        * every peer's posted receive naming the dead rank as source,

        and makes subsequent ``post_send``/``post_recv`` against the
        rank fail fast — so no operation involving a dead rank waits
        past its next progress interaction.

        Idempotent *and* synchronizing under concurrency: when two
        threads race to mark the same rank dead, exactly one performs
        the pending-operation sweep, and the loser blocks until that
        sweep finished — so every caller may assume, on return, that
        nothing is still parked on the dead rank.  (The first recorded
        exception wins; later ones are dropped.)
        """
        from repro.dst import hooks as _dst

        with self._death_lock:
            done = self._death_done.get(rank)
            if done is not None:
                winner = False
            else:
                done = threading.Event()
                self._death_done[rank] = done
                self._dead_ranks[rank] = exc
                winner = True
        if not winner:
            # A concurrent caller is (or was) mid-sweep; returning
            # before it finishes would break the "nothing still parked"
            # guarantee above.
            if _dst.is_virtual_thread():
                _dst.flag_wait(done.is_set)
            else:
                done.wait()
            return
        if _dst._scheduler is not None and _dst.is_virtual_thread():
            # Expose the insert-vs-sweep window to the DST explorer.
            _dst.yield_point("world.mark_rank_dead")
        try:
            self.engines[rank].fail_pending_on_death(exc)
            for r, e in enumerate(self.engines):
                if r != rank:
                    e.notify_rank_death(rank, exc)
        finally:
            done.set()

    # -- context-id allocation (see Communicator.dup/split) -----------------

    def allocate_cid(self) -> int:
        return self._next_cid.fetch_add(1)

    def allocate_cid_block(self, n: int) -> int:
        return self._next_cid.fetch_add(n)

    def allocate_cid_keyed(self, key: object) -> int:
        """One context id per distinct ``key``, whoever asks first.

        ``Communicator.shrink`` survivors cannot run an ordinary
        root-broadcast cid agreement (the root may be the dead rank),
        so each survivor derives the *same* key from agreed state and
        the first asker allocates; everyone else gets the cached id.

        The fresh cid is allocated *outside* the key lock:
        ``AtomicCounter.fetch_add`` carries a DST yield point, and
        parking a virtual thread while holding a real lock stalls
        every concurrent caller outside the scheduler's view.  A
        racing loser's speculative cid is simply abandoned (cid space
        is allowed to have gaps).
        """
        with self._cid_key_lock:
            cid = self._keyed_cids.get(key)
        if cid is not None:
            return cid
        fresh = self.allocate_cid()
        with self._cid_key_lock:
            return self._keyed_cids.setdefault(key, fresh)

    # -- thread-level bookkeeping -------------------------------------------

    def funnel_thread(self, rank: int) -> int | None:
        return self._funnel[rank]

    def set_funnel_thread(self, rank: int, ident: int | None) -> None:
        """Designate which thread may call MPI under FUNNELED.

        The offload engine points this at its communication thread so
        the substrate itself verifies the paper's claim that only the
        offload thread ever enters MPI.
        """
        self._funnel[rank] = ident

    # -- communicator construction -------------------------------------------

    def comm_world(self, rank: int) -> Communicator:
        """This rank's handle on the world communicator."""
        return Communicator(
            self, self.engines[rank], tuple(range(self.nranks)), _WORLD_CID
        )

    def comm_self(self, rank: int) -> Communicator:
        """This rank's COMM_SELF (used by the comm-self progress thread)."""
        return Communicator(self, self.engines[rank], (rank,), _SELF_CID)

    # -- SPMD execution ----------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        timeout: float = 120.0,
        **kwargs: Any,
    ) -> list[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank; return results.

        Raises :class:`WorldError` aggregating any per-rank exceptions.
        ``timeout`` bounds the whole run (deadlocked ranks surface as
        ``TimeoutError`` entries rather than hanging the process).

        The rank of a one-rank world binds itself to the first CPU of
        the launching thread's mask before it builds its communicator,
        and every thread it then spawns inherits that CPU: under one
        GIL an engine never executes beside the thread that feeds it,
        so a second core buys only a dearer wake-up.  Ranks of a larger
        world keep the launch mask: bound apart, a hand-off between two
        of them could be served by one CPU only, and when that CPU is
        slow to wake no idle one may take the thread over
        (DESIGN.md §21).  The launching thread's own mask is never
        changed; an outer ``taskset`` narrows it and is honoured as is.
        """
        results: list[Any] = [None] * self.nranks
        failures: dict[int, BaseException] = {}
        # Bound or unbound is decided here, once, for the whole run:
        # re-setting the mask the launcher already has changes nothing
        # and asks whether the call exists and is permitted.
        cpus = thread_cpus() if self.nranks == 1 else None
        binding = None
        if cpus is not None:
            try:
                os.sched_setaffinity(0, cpus)
                binding = cpus[:1]
            except (AttributeError, OSError):
                pass
        self.binding = binding

        def runner(rank: int) -> None:
            try:
                if binding is not None:
                    os.sched_setaffinity(0, {binding[rank]})
                self._funnel[rank] = threading.get_ident()
                comm = self.comm_world(rank)
                results[rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                failures[rank] = exc

        threads = [
            threading.Thread(
                target=runner, args=(r,), name=f"mpisim-rank-{r}", daemon=True
            )
            for r in range(self.nranks)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for r, t in enumerate(threads):
            remaining = timeout - (time.perf_counter() - t0)
            t.join(max(0.0, remaining))
            if t.is_alive():
                where = "unbound" if binding is None else f"CPU {binding[r]}"
                engine = self.engines[r]
                what = f"queues: {engine.pending_counts()}"
                # what the rank's offload engines still hold
                offload = [
                    ln for d in list(engine.describers) for ln in d()
                ]
                if offload:
                    what += f"; offload: {'; '.join(offload)}"
                failures.setdefault(
                    r,
                    TimeoutError(
                        f"rank {r} ({where}) did not finish "
                        f"within {timeout}s (likely deadlock); {what}"
                    ),
                )
        # Snapshot under the death lock: a straggler fault-injection
        # thread may still be marking ranks dead while we aggregate.
        with self._death_lock:
            dead = dict(self._dead_ranks)
        for rank, exc in dead.items():
            failures.setdefault(rank, exc)
        if failures:
            raise WorldError(failures)
        return results

    # -- diagnostics ----------------------------------------------------------------

    def total_lock_contentions(self) -> int:
        return sum(e.lock_contentions for e in self.engines)

    def total_bytes_sent(self) -> int:
        return sum(e.bytes_sent for e in self.engines)

    def total_payload_copies(self) -> int:
        """Intermediate payload materializations across all ranks."""
        return sum(e.payload_copies for e in self.engines)

    def total_payload_zero_copy_hits(self) -> int:
        """Direct user-buffer-to-posted-buffer deliveries, all ranks."""
        return sum(e.payload_zero_copy_hits for e in self.engines)
