"""The offload engine: a dedicated communication thread per rank.

Implements the loop of paper §3.1–§3.3:

1. drain the lock-free command queue, issuing the corresponding MPI
   calls (blocking calls arrive as their nonblocking equivalents, so
   they cannot stall the engine);
2. when the queue is empty, drive asynchronous progress on every
   in-flight request (the ``MPI_Testany()`` sweep of §3.2), completing
   request-pool slots as operations finish — the only completion the
   engine publishes.

The engine designates itself the rank's *funnel thread*, so the
substrate's thread-level enforcement proves the paper's claim that the
MPI library only ever sees a single calling thread — even when many
application threads issue MPI calls concurrently.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from typing import TYPE_CHECKING

from repro.core.commands import ISSUE, Command, CommandKind
from repro.core.recovery import (
    OffloadStopTimeout,
    OffloadTimeout,
    RecoveryPolicy,
)
from repro.core.request_pool import (
    OffloadEngineDied,
    OffloadRequestPool,
)
from repro.dst import hooks as _dst
from repro.lockfree.atomics import Doorbell
from repro.lockfree.mpsc_queue import MPSCQueue, QueueClosed, QueueFull
from repro.mpisim.world import thread_cpus
from repro import obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.mpisim.communicator import Communicator
    from repro.mpisim.requests import Request

#: Commands drained per loop iteration (one ``drain`` call) before the
#: single per-batch progress sweep.
_BATCH = 64
#: Safety tick: the longest the loop parks without looking around.
#: Every hand-off has a doorbell (DESIGN.md §17); the tick only keeps
#: ``heartbeat`` and fault-plan maturation alive.
_TICK = 1e-3
_NEVER = float("inf")
#: The engine's own counters, each a plain int attribute bumped where
#: its event happens (DESIGN.md §9); ``stats()`` adds what the ring,
#: the request pool and the progress engine already hold.
_COUNTS = (
    "commands_processed",
    "progress_sweeps",
    "completions",
    "control_commands",
    "doorbell_wakes",
    "timed_wakes",
    "max_in_flight",
    "queue_full_retries",
    "retries",
    "deadline_expirations",
    "watchdog_trips",
    "degraded_mode_commands",
    "batch_dequeues",
    "batch_size_hwm",
    "substrate_entries",
)


def _describe(cmd: Command) -> str:
    """One line for a pending command: kind, slot, peer/tag, attempts."""
    desc = f"{cmd.kind.name.lower()}[slot {cmd.slot}]"
    if cmd.peer >= 0:
        desc += f" peer={cmd.peer}"
    if cmd.tag:
        desc += f" tag={cmd.tag}"
    if cmd.attempts:
        desc += f" attempts={cmd.attempts}"
    return desc


def _is_rank_dead(exc: BaseException) -> bool:
    """Is ``exc`` (or its cause chain) a substrate RankDeadError?"""
    from repro.mpisim.exceptions import RankDeadError

    seen = 0
    while exc is not None and seen < 8:
        if isinstance(exc, RankDeadError):
            return True
        exc = exc.__cause__ or exc.__context__
        seen += 1
    return False


class OffloadEngine:
    """Dedicated MPI thread for one rank.

    Parameters
    ----------
    comm:
        The rank's communicator on the substrate (typically the world
        communicator).  All offloaded traffic flows through its
        progress engine; commands may nonetheless carry *any*
        communicator that shares the engine (e.g. dup'ed ones).
    request_pool:
        The :class:`OffloadRequestPool` whose slots this engine
        completes.  An :class:`EnginePool` passes one pool to all its
        shards so the facade can allocate a slot before routing.
    queue_capacity:
        Size of the command ring.
    telemetry:
        File the final snapshot in the :mod:`repro.obs` registry
        (default: :func:`repro.obs.enabled`).  Nothing else depends on
        it: the counters are always on and the loop is the same code.
    """

    def __init__(
        self,
        comm: "Communicator",
        request_pool: OffloadRequestPool,
        queue_capacity: int = 4096,
        telemetry: bool | None = None,
        faults: "FaultPlan | None" = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        self.comm = comm
        self.queue: MPSCQueue[Command] = MPSCQueue(queue_capacity)
        self.pool = request_pool
        #: commands drained from the ring but not yet dispatched; kept
        #: on the instance (not a loop local) so `_fail_pending` can
        #: fail a partially processed batch after a mid-batch crash
        self._drained: deque[Command] = deque()
        self._thread: threading.Thread | None = None
        #: the engine thread's CPU mask, recorded by `_run` at start:
        #: its rank's one CPU under `World.run` (DESIGN.md §21)
        self.cpus: list[int] | None = None
        self._wake = Doorbell()
        #: earliest deadline among in-flight operations (last sweep)
        self._next_deadline = _NEVER
        self._dead: BaseException | None = None
        #: posted operations not yet complete: (inner request, command)
        self._in_flight: list[tuple["Request", Command]] = []
        self._flushes: list[Command] = []
        self._prev_funnel: int | None = None
        # -- fault injection + recovery (both None in normal operation:
        # every hook site is a single `is None` check) --------------------
        if faults is None:
            faults = comm.world.fault_plan
        self._faults = faults
        self.recovery = recovery
        #: bumped once per loop iteration; sampled by EngineWatchdog
        self.heartbeat = 0
        #: retry heap: (due_time, seq, command)
        self._retries: list[tuple[float, int, Command]] = []
        self._retry_seq = 0
        self._trip_lock = threading.Lock()
        #: file the final snapshot in the `repro.obs` registry
        self.telemetry = obs.enabled() if telemetry is None else telemetry
        for name in _COUNTS:
            setattr(self, name, 0)
        #: the balance law's counts as one value — (enqueues, drained,
        #: completions, control, pending) — published by `_publish`
        #: where every drained command is accounted for; a live
        #: snapshot reads this, never the counters one by one
        self._tally = (0, 0, 0, 0, 0)

    # ------------------------------------------------------------ lifecycle

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def dead(self) -> BaseException | None:
        return self._dead

    def start(self) -> "OffloadEngine":
        """Spawn the communication thread (paper: at ``MPI_Init``)."""
        if self._thread is not None:
            raise RuntimeError("offload engine already started")
        self._thread = threading.Thread(
            target=self._run,
            name=f"offload-rank-{self.comm.engine.rank}",
            daemon=True,
        )
        started = threading.Event()
        self._started_evt = started
        self._thread.start()
        started.wait()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Drain outstanding work, then join the thread.

        Pending operations that can never complete (e.g. receives whose
        sends were never posted) make a clean stop impossible — like
        ``MPI_Finalize`` with outstanding requests.  On timeout expiry
        this raises :class:`~repro.core.recovery.OffloadStopTimeout`
        naming the still-outstanding operations; use :meth:`abort` to
        tear down regardless.
        """
        if _dst._scheduler is not None:
            _dst.yield_point("engine.stop")
        if self._thread is None:
            return
        thread = self._thread
        if self._dead is None:
            try:
                self.submit(Command(CommandKind.SHUTDOWN))
            except OffloadEngineDied:
                pass  # died between the check and the submit
        thread.join(timeout)
        if thread.is_alive():
            pending = self.pending_work()
            raise OffloadStopTimeout(
                f"offload thread of rank {self.comm.engine.rank} "
                f"(CPUs {self.cpus}) failed to stop within {timeout}s; "
                f"{len(pending)} operation(s) outstanding "
                f"({'; '.join(pending) or 'none visible'}); "
                "use abort() to force teardown",
                pending=pending,
            )
        self._thread = None
        if self.telemetry:
            obs.record_snapshot(self.telemetry_snapshot())

    def abort(
        self, reason: str = "engine aborted", join_timeout: float = 5.0
    ) -> None:
        """Force-stop: fail everything pending and kill the loop."""
        exc = OffloadEngineDied(reason)
        self._dead = exc
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(join_timeout)
            if thread.is_alive():
                # Wedged mid-operation: the queue is single-consumer, so
                # only the engine thread may drain it.  It fails all
                # pending work itself the moment it wakes and observes
                # `_dead`; recovery-aware waiters observe `dead` and do
                # not block on that.
                return
            self._thread = None
        self._fail_pending(exc)
        if self.telemetry:
            obs.record_snapshot(self.telemetry_snapshot())

    def watchdog_trip(self, reason: str) -> None:
        """A caller detected a wedged/vanished engine thread.

        Poisons the engine (every subsequent ``submit`` raises and
        every recovery-aware waiter unblocks with
        :class:`OffloadEngineDied`) and, if the thread is already gone,
        fails all pending work immediately.  A wedged-but-alive thread
        fails its own pending work when it next wakes — the command
        queue is single-consumer, so nobody else may drain it.
        """
        with self._trip_lock:
            if self._dead is not None:
                return
            self.watchdog_trips += 1
            exc = OffloadEngineDied(f"watchdog tripped: {reason}")
            self._dead = exc
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(0.2)
            if thread.is_alive():
                return
        self._fail_pending(exc)

    def _die(self, exc: BaseException) -> BaseException:
        """Mark the engine dead of ``exc`` (once per crash: see
        ``_post_run``) and return the death, an OffloadEngineDied."""
        died = self._dead
        if died is None or (died is not exc and died.__cause__ is not exc):
            if isinstance(exc, OffloadEngineDied):
                died = exc
            else:
                died = OffloadEngineDied(f"offload thread crashed: {exc!r}")
                died.__cause__ = exc
            self._dead = died
        return died

    def pending_work(self) -> list[str]:
        """Best-effort descriptions of everything not yet terminal.

        Read from the caller's thread without synchronization (the
        engine may be mutating concurrently) — diagnostic only.
        """
        out = [_describe(cmd) for _, cmd in list(self._in_flight)]
        out += [f"retry {_describe(cmd)}" for *_, cmd in list(self._retries)]
        queued = len(self.queue)
        if queued:
            out.append(f"{queued} queued command(s)")
        drained = len(self._drained)
        if drained:
            out.append(f"{drained} drained command(s) awaiting dispatch")
        return out

    # ------------------------------------------------------------ submission

    def submit(self, cmd: Command) -> None:
        """Enqueue a command (called from application threads).

        This is the app-side cost of an offloaded call: one lock-free
        enqueue (~140 ns in the paper's C implementation).  On a full
        ring we spin-retry — backpressure, not failure — but only while
        a live engine thread can actually drain the ring: retrying
        against a dead (or never-started) engine raises instead of
        spinning forever.
        """
        if _dst._scheduler is not None:
            _dst.yield_point("engine.submit")
        if self._dead is not None:
            raise OffloadEngineDied(
                f"offload engine terminated: {self._dead}"
            )
        while True:
            try:
                self.queue.enqueue(cmd)
                break
            except QueueClosed as closed:
                # The ring only closes during teardown; the re-check
                # after the enqueue CAS guarantees the command was NOT
                # committed (no completion will ever arrive), so fail
                # it here with a typed error rather than lose it.
                raise OffloadEngineDied(
                    "offload engine is shutting down; command ring is "
                    "closed"
                ) from closed
            except QueueFull:
                self.queue_full_retries += 1
                if self._dead is not None:
                    raise OffloadEngineDied(
                        f"offload engine terminated with the command "
                        f"ring full: {self._dead}"
                    ) from self._dead
                thread = self._thread
                if thread is None or not thread.is_alive():
                    raise OffloadEngineDied(
                        "command ring full and no offload thread is "
                        "running to drain it (engine not started or "
                        "already stopped)"
                    )
                self._wake.set()
                if _dst.is_virtual_thread():
                    # Under DST a real wait would stall the scheduler;
                    # yield so it can run the draining engine thread.
                    _dst.yield_point("engine.submit.retry")
                else:
                    time.sleep(1e-5)
        if not self._wake._flag:  # a rung bell is not rung again
            self._wake.set()

    # ------------------------------------------------------------ main loop

    def _run(self) -> None:
        world = self.comm.world
        rank = self.comm.engine.rank
        self.cpus = thread_cpus()
        self._prev_funnel = world.funnel_thread(rank)
        world.set_funnel_thread(rank, threading.get_ident())
        shutdown = False
        timed_out = False
        progress_engine = self.comm.engine
        # Every arrival at this rank and every completion of a request
        # it owns rings `_wake` for as long as the loop lives.
        progress_engine.add_doorbell(self._wake)
        self._started_evt.set()
        queue = self.queue
        try:
            while self._dead is None:
                self.heartbeat += 1
                # clear → look → park (DESIGN.md §17): a ringer that
                # published before this clear is seen by the look
                # below; one that publishes after it leaves `_wake`
                # set and the park at the bottom returns at once —
                # whether or not the look found work.
                self._wake.clear()
                did = 0
                # One drain call pulls a whole batch off the ring; it
                # is fully issued before the single progress pump +
                # retry/deadline sweep below, so the per-iteration
                # overhead is paid once per *batch*, not per command.
                # A look that finds nothing costs nothing (DESIGN.md
                # §20): the drain's first step — is the next cell
                # published? — is made here, so an empty ring is no call
                # (a publish after it rings `_wake`, cleared above).
                pos = queue._dequeue_pos
                published = queue._seqs[pos & queue._mask] == pos + 1
                batch = queue.drain(_BATCH) if published else ()
                more = False
                if batch:
                    did += len(batch)
                    more = len(batch) == _BATCH
                    self._drained.extend(batch)
                    self.batch_dequeues += 1
                    if len(batch) > self.batch_size_hwm:
                        self.batch_size_hwm = len(batch)
                    if self._process_batch():
                        shutdown = True
                did += self._sweep()
                if self._retries:
                    did += self._run_due_retries()
                if self._flushes:
                    self._check_flushes()
                if (
                    shutdown
                    and queue.empty()
                    and not self._in_flight
                    and not self._retries
                ):
                    # Close the ring *before* the final look: a racing
                    # submit either committed before the close (its
                    # command surfaces in drain_closed and is processed
                    # below) or observes the close and fails with a
                    # typed error — nothing is silently lost.
                    queue.close()
                    tail = queue.drain_closed()
                    if not tail:
                        break
                    self._drained.extend(tail)
                    self._process_batch()
                if timed_out and did:
                    self.timed_wakes += 1
                timed_out = False
                if more:
                    # The rest of a deep ring: no bell announces it.
                    continue
                # Park until a doorbell rings (at once if one already
                # has), a retry or deadline falls due, or the tick.
                due = self._next_deadline
                if self._retries:
                    due = min(due, self._retries[0][0])
                timed_out = not self._wake.wait(
                    _TICK
                    if due == _NEVER
                    else min(_TICK, max(0.0, due - time.perf_counter()))
                )
                if not timed_out:
                    self.doorbell_wakes += 1
            if self._dead is not None:
                # Poisoned while running (abort/watchdog on a wedged
                # loop): we are the only legal queue consumer, so fail
                # everything pending from here.
                self._fail_pending(self._dead)
        except BaseException as exc:  # noqa: BLE001 - reported via slots
            self._fail_pending(self._die(exc))
        finally:
            progress_engine.remove_doorbell(self._wake)
            self._publish(len(self._in_flight))
            # Restore the funnel designation only if we still hold it —
            # a degraded facade may have re-pointed it at an app thread.
            if world.funnel_thread(rank) == threading.get_ident():
                world.set_funnel_thread(rank, self._prev_funnel)

    # ------------------------------------------------------------ processing

    def _process_batch(self) -> bool:
        """Issue every command in ``self._drained``; True on SHUTDOWN.

        Consecutive point-to-point commands on one communicator form a
        *run*, which ``_post_run`` issues under one substrate entry;
        any other command — a collective, a CALL, a p2p command on
        another communicator — ends the run first, so program order is
        preserved exactly, and is itself issued as a run of one.

        A command leaves ``self._drained`` only inside the list handed
        to ``_post_run``, which owns it from there: whatever raises,
        nothing drained is held where ``_fail_pending`` cannot find it.
        """
        drained = self._drained
        shutdown = False
        while drained:
            first = drained[0]
            kind = first.kind
            if kind.p2p:
                comm = first.comm
                n = 0
                for cmd in drained:
                    if not cmd.kind.p2p or cmd.comm is not comm:
                        break
                    n += 1
                self._post_run([drained.popleft() for _ in range(n)])
                continue
            drained.popleft()
            if kind is CommandKind.SHUTDOWN:
                self.control_commands += 1
                shutdown = True
            else:
                self._post_run([first])
        return shutdown

    def _post_run(self, run: list[Command]) -> None:
        """Admit each command of ``run``, then issue the admitted ones.

        The one admission loop of the engine — drained runs, runs of
        one and due retries all pass here.  Admission is per command
        (deadline, fault hook, DST crash point), so expiry and
        injection are batch-invisible.  Owns ``run``: when this returns
        or raises, every member is terminal, in flight, scheduled for
        retry or back on ``self._drained``.

        A crash injected at command *N* terminal-fails *N* (its waiter
        gets a typed error and the balance law holds), puts
        the unexamined tail back for ``_fail_pending``, and *then*
        posts the prefix admitted before it — those commands were
        accepted while the engine lived, exactly as if dispatched one
        by one — before the crash kills the loop.
        """
        faults = self._faults
        live = run  # the admitted: a copy only once one is refused
        n = 0
        try:
            for cmd in run:
                n += 1
                self.commands_processed += 1
                if (
                    cmd.deadline is not None
                    and time.perf_counter() > cmd.deadline
                ):
                    # Sat in the queue (or the retry heap) too long.
                    self.completions += 1
                    self._expire(cmd)
                elif (
                    faults is not None
                    and (fault := faults.on_command(self, cmd)) is not None
                ):
                    self._command_failed(cmd, fault)
                else:
                    if _dst._scheduler is not None and _dst.crash_point(
                        "engine.dispatch"
                    ):
                        raise _dst.ScheduledCrash(
                            "DST crash injected at engine.dispatch"
                        )
                    if live is not run:
                        live.append(cmd)
                    continue
                if live is run:
                    live = run[: n - 1]
        except BaseException as crash:
            # Dead before the crashing command's failure is visible, so
            # no caller reacting to it routes its next command here.
            self._die(crash)
            self._command_failed(cmd, crash)
            self._drained.extendleft(reversed(run[n:]))
            if live is run:
                live = run[: n - 1]
            raise
        finally:
            if live and live[0].kind.p2p:
                self._post_p2p(live)
            elif live:
                (cmd,) = live  # anything but p2p is a run of one
                try:
                    self._dispatch(cmd)
                except BaseException as exc:  # noqa: BLE001 - to caller
                    self._command_failed(cmd, exc)

    def _post_p2p(self, cmds: list[Command]) -> None:
        """One substrate entry for a run of ISEND/IRECV.

        Validation and buffer normalisation stay per command
        (``Communicator._p2p_op``), then one thread-level check and one
        hold of the library lock post them all in order; each gets its
        request back, or the exception its lone post would have raised
        (op *k* failing does not touch *k±1*).  Sends born complete —
        every classic eager send — are completed here, straight into
        the pool: no in-flight record, no status to localize.
        """
        comm = cmds[0].comm
        posted = cmds
        try:
            ops = [
                comm._p2p_op(c.kind.is_send, c.buf, c.peer, c.tag)
                for c in cmds
            ]
        except BaseException:  # noqa: BLE001 - sorted out per command
            # One is invalid: again (`_p2p_op` only validates), command
            # by command, so that each such gets its own error.
            ops, posted = [], []
            for c in cmds:
                try:
                    if comm is None:
                        raise ValueError(
                            f"{c.kind.name} command carries no communicator"
                        )
                    op = comm._p2p_op(c.kind.is_send, c.buf, c.peer, c.tag)
                except BaseException as exc:  # noqa: BLE001 - to caller
                    self._command_failed(c, exc)
                else:
                    ops.append(op)
                    posted.append(c)
            if not posted:
                return
        self.substrate_entries += 1
        try:
            inners, raised = comm._post_run(ops)
        except BaseException as exc:  # noqa: BLE001 - thread-level error
            inners, raised = [exc] * len(posted), True
        pool = self.pool
        for cmd, inner in zip(posted, inners):
            if raised and isinstance(inner, BaseException):
                self._command_failed(cmd, inner)
            elif inner.done and cmd.kind.is_send and inner.error is None:
                self.completions += 1
                pool.complete(cmd.slot, inner.status)
            else:
                self._track(inner, cmd)

    def _command_failed(self, cmd: Command, exc: BaseException) -> None:
        """A dispatch attempt failed: retry per policy or fail."""
        self._revoke_if_rank_dead(cmd.comm, exc)
        rec = self.recovery
        if (
            rec is not None
            and rec.retry is not None
            and cmd.kind.idempotent
            and cmd.attempts < rec.retry.max_retries
            and isinstance(exc, rec.retry.retry_on)
        ):
            cmd.attempts += 1
            self.retries += 1
            due = time.perf_counter() + rec.retry.backoff(cmd.attempts)
            self._retry_seq += 1
            heapq.heappush(self._retries, (due, self._retry_seq, cmd))
            return
        self._fail(cmd, exc)

    def _revoke_if_rank_dead(
        self, comm: "Communicator | None", exc: BaseException
    ) -> None:
        """The ULFM response to a failed command (``rank_failure=
        "shrink"``): a peer death surfaced through ``comm`` — at
        dispatch or in flight — so revoke it, and every survivor's
        operations on it fail typed *now* (locally, remotely via REVOKE
        notices), unblocking the revoke→agree→shrink driver instead of
        leaving siblings to time out one by one.  Idempotent; the
        command itself still fails."""
        rec = self.recovery
        if (
            rec is not None
            and rec.rank_failure == "shrink"
            and comm is not None
            and _is_rank_dead(exc)
        ):
            try:
                comm.revoke()
            except Exception:  # noqa: BLE001 - revoke is best-effort
                pass

    def _fail(self, cmd: Command, exc: BaseException) -> None:
        """Publish ``exc`` as ``cmd``'s terminal state."""
        self.completions += 1
        self.pool.fail(cmd.slot, exc)

    def _run_due_retries(self) -> int:
        """Re-drive retry-scheduled commands whose backoff elapsed."""
        now = time.perf_counter()
        n = 0
        while self._retries and self._retries[0][0] <= now:
            _, _, cmd = heapq.heappop(self._retries)
            n += 1
            self._post_run([cmd])
        return n

    def _expire(self, cmd: Command) -> None:
        """Publish ``cmd``'s missed deadline (counted by the caller)."""
        self.deadline_expirations += 1
        what = f"offloaded {cmd.kind.name.lower()} missed its deadline"
        if cmd.attempts:
            what += (
                f" (after {cmd.attempts} "
                f"retr{'y' if cmd.attempts == 1 else 'ies'})"
            )
        self.pool.fail(cmd.slot, OffloadTimeout(what))

    def _dispatch(self, cmd: Command) -> None:
        """Issue one non-p2p command (p2p runs go through `_post_p2p`).

        One :data:`~repro.core.commands.ISSUE` call: IPROBE and CALL
        run to completion here and their return is the slot's payload;
        the collectives are tracked like any other in-flight request.
        """
        kind = cmd.kind
        if kind is CommandKind.FLUSH:
            self._flushes.append(cmd)
        elif cmd.comm is None and kind is not CommandKind.CALL:
            raise ValueError(f"{kind.name} command carries no communicator")
        elif kind.immediate:
            result = ISSUE[kind](cmd)
            self.completions += 1
            self.pool.complete(cmd.slot, result)
        else:
            self._track(ISSUE[kind](cmd), cmd)

    def _track(self, inner: "Request", cmd: Command) -> None:
        """Follow ``inner`` until done; completion goes to ``cmd``'s
        pool slot."""
        self.pool._slots[cmd.slot].inner = inner  # now it exists
        if inner.done:
            # Born complete: no in-flight record to build, sweep over
            # and discard.
            self.completions += 1
            self._finish(inner, cmd)
            return
        self._in_flight.append((inner, cmd))

    # ------------------------------------------------------------ progress

    def _sweep(self) -> int:
        """One ``Testany``-style pass over all in-flight operations.

        The progress pump runs even with nothing locally in flight:
        this rank may be the *target* of one-sided operations or
        rendezvous handshakes that need servicing (the offload thread
        doubles as the RMA asynchronous-progress agent, §7) — when it
        has something to do: an arrival in the inbox, a schedule-based
        collective to advance, a fault plan to consult.
        """
        pe = self.comm.engine
        if pe._inbox or pe._active_nbc or pe.faults is not None:
            pe.progress()
        if self._dead is not None:
            # Poisoned while pumping (watchdog trip during an injected
            # stall): stop touching completion state — the loop exit
            # path fails everything pending exactly once.
            return 0
        in_flight = self._in_flight
        gone: list[int] = []  # positions done or past their deadline
        depth = 0
        if in_flight:
            self.progress_sweeps += 1
            # In-flight depth only grows between sweeps, so its
            # high-water mark is always the depth some sweep starts with.
            depth = len(in_flight)
            if depth > self.max_in_flight:
                self.max_in_flight = depth
            now = -1.0
            soonest = _NEVER
            for i, (inner, cmd) in enumerate(in_flight):
                if inner.done:
                    gone.append(i)
                elif cmd.deadline is not None:
                    if now < 0.0:
                        now = time.perf_counter()
                    if now > cmd.deadline:
                        gone.append(i)
                    elif cmd.deadline < soonest:
                        soonest = cmd.deadline
            self._next_deadline = soonest
        if not gone:
            tally = self._tally
            if (
                self.completions != tally[2]
                or self.queue.dequeue_count != tally[1]
            ):
                # the batch drained or completed something: the balance
                # counts moved since the last publish
                self._publish(depth)
            return 0
        # Count and drop, publish, and only then complete: whoever sees
        # one of these completions reads a tally that holds it.
        n = len(gone)
        drop = set(gone)
        self._in_flight = [e for i, e in enumerate(in_flight) if i not in drop]
        self.completions += n
        self._publish(depth - n)
        for i in gone:
            inner, cmd = in_flight[i]
            if inner.done:
                self._finish(inner, cmd)
            else:
                # Past its deadline: cancel what can be cancelled (only
                # receives), then fail the waiter with OffloadTimeout.
                try:
                    inner.cancel()
                except Exception:  # noqa: BLE001
                    pass
                self._expire(cmd)
        return n

    def _finish(self, inner: "Request", cmd: Command) -> None:
        """Publish ``inner``'s outcome to ``cmd``'s slot (counted by
        the caller)."""
        error = inner.error
        if error is not None:
            # e.g. a posted receive whose peer died after dispatch
            self._revoke_if_rank_dead(cmd.comm, error)
            self.pool.fail(cmd.slot, error)
        else:
            self.pool.complete(cmd.slot, inner.status)

    def _check_flushes(self) -> None:
        if not self._flushes or self._in_flight or not self.queue.empty():
            return
        flushes = self._flushes
        self._flushes = []
        self.completions += len(flushes)
        self._publish(0)  # as a sweep does: before they are visible
        for cmd in flushes:
            self.pool.complete(cmd.slot, None)

    def _fail_pending(self, exc: BaseException) -> None:
        """Engine died: fail everything in flight, drained and queued.

        Closes the command ring first, so a submit racing this teardown
        either commits its command before the final drain snapshot
        (failed here, below) or gets a typed :class:`OffloadEngineDied`
        from ``submit`` — the close/enqueue race can no longer lose a
        command.
        """
        self.queue.close()
        for _, cmd in self._in_flight:
            self._fail(cmd, exc)
        self._in_flight.clear()
        # A mid-batch crash leaves the unprocessed tail of the batch in
        # `_drained` (already counted as drained); append everything
        # still committed to the ring behind it.
        backlog = list(self._drained)
        self._drained.clear()
        backlog.extend(self.queue.drain_closed())
        # So were the commands waiting on a flush or out a retry
        # backoff, which no loop will re-drive now.
        backlog += self._flushes + [cmd for *_, cmd in self._retries]
        self._flushes.clear()
        self._retries.clear()
        for cmd in backlog:
            if cmd.kind is CommandKind.SHUTDOWN:
                self.control_commands += 1
            else:
                self._fail(cmd, exc)
        self._publish(0)

    def _publish(self, in_flight: int) -> None:
        """Publish the balance law's counts as one value, ``_tally``.

        Called where every drained command is accounted for: by a sweep
        or a flush check before what it completes is visible, and when
        the loop ends.  ``in_flight`` is the posted depth; commands
        waiting on a flush or a retry backoff are drained but not
        terminal, so they count as pending too.
        """
        if self._flushes or self._retries:
            in_flight += len(self._flushes) + len(self._retries)
        queue = self.queue
        drained = queue.dequeue_count
        self._tally = (
            drained + queue._enqueue_pos._value - queue._dequeue_pos,
            drained,
            self.completions,
            self.control_commands,
            in_flight,
        )

    # ------------------------------------------------------------ stats

    def _own_counts(self) -> dict[str, int]:
        """What this engine counted: its attributes and its ring's
        cursors (the ring keeps no enqueue count: what came out plus
        what is still in)."""
        out = {name: getattr(self, name) for name in _COUNTS}
        queue = self.queue
        drained = queue.dequeue_count
        out["enqueues"] = drained + len(queue)
        out["commands_drained"] = drained
        out["testany_sweeps"] = self.heartbeat
        out["queue_cas_failures"] = queue.cas_failures
        return out

    def _shared_counts(self) -> dict[str, int]:
        """What this engine's request pool and the rank's progress
        engine hold: shared by every shard of a pool, so read once."""
        pool = self.pool
        progress = self.comm.engine
        return {
            "pool_allocated": pool.allocated,
            "pool_exhausted": pool.exhausted,
            "refills": pool.refills,
            "continuation_fires": pool.continuation_fires,
            "continuation_drops": pool.continuation_drops,
            "payload_copies": progress.payload_copies,
            "payload_zero_copy_hits": progress.payload_zero_copy_hits,
        }

    def stats(self) -> dict[str, int]:
        """Every counter of the engine, flat (always on; the same dict
        is a snapshot's ``counters``)."""
        return {**self._own_counts(), **self._shared_counts()}

    def telemetry_snapshot(self) -> dict:
        """Structured snapshot (counters + queue/pool/progress state).

        See :func:`repro.obs.report.snapshot_engine`; the same with the
        switch on or off.
        """
        return obs.snapshot_engine(self)
