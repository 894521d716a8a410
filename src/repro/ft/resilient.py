"""``run_resilient``: checkpointed epochs that survive rank death.

The driver runs an epoch application (protocol below) SPMD over a
:class:`~repro.mpisim.world.World` and closes the ULFM recovery loop
(DESIGN.md §15).  Per epoch, on every rank:

1. ``step`` the application (all communication goes through the
   *active* communicator — initially the world, later a shrunk one);
2. ``agree`` on whether the epoch completed everywhere — the
   fault-tolerant agreement returns the same flag on every survivor
   even when participants die mid-protocol;
3. on success, the smallest live rank commits a consistent snapshot to
   the :class:`~repro.ft.checkpoint.CheckpointStore` and everyone
   advances; on failure, survivors ``revoke`` the communicator,
   ``shrink`` to the agreed-live membership, restore from the latest
   committed checkpoint, and replay from there.

A rank that was *recorded dead* (fault injection, peer marking) exits
by re-raising its recorded death — it never rejoins, and its absence
is what the survivors shrink around.  Because the epoch apps in
:mod:`repro.ft.workloads` are membership-agnostic and bitwise
deterministic, the survivors' final state is byte-identical to a
fault-free run.

Application protocol (duck-typed)::

    app.epochs                      # number of epochs to run
    app.init(comm) -> state        # deterministic initial state
    app.step(comm, state, epoch)   # pure epoch transition -> new state
    app.snapshot(state) -> bytes   # serialize
    app.restore(blob) -> state     # deserialize (inverse of snapshot)
    app.finish(comm, state)        # final result (often just state)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.recovery import RecoveryPolicy
from repro.ft.checkpoint import CheckpointStore, MemoryCheckpointStore
from repro.mpisim.exceptions import WorldError
from repro.mpisim.world import World
from repro.obs.counters import merge_counters


@dataclass
class ResilientReport:
    """Outcome of one :func:`run_resilient` run."""

    #: every surviving rank completed and their results agree bytewise
    ok: bool
    #: canonical final snapshot bytes (None when no rank completed)
    result: bytes | None
    #: global rank -> final snapshot bytes, survivors only
    results: dict[int, bytes]
    #: global ranks recorded dead during the run
    dead: list[int]
    #: recovery cycles (revoke -> agree -> shrink -> restore)
    restarts: int
    #: bytes committed to the checkpoint store
    checkpoint_bytes: int
    #: epochs the application defines (== epochs completed when ok)
    epochs: int
    #: summed fault-tolerance counters across all progress engines
    counters: dict[str, int] = field(default_factory=dict)
    #: failures that were *not* expected dead-rank bookkeeping
    unexpected: dict[int, str] = field(default_factory=dict)


def _expected_death(world: World, rank: int, exc: BaseException) -> bool:
    """Is this per-rank failure just the recorded death resurfacing?"""
    if rank in world.dead_ranks:
        return True
    from repro.faults.plan import FaultInjectionError

    return isinstance(exc, FaultInjectionError)


def _rank_loop(
    comm,
    app,
    store: CheckpointStore,
    results: dict[int, bytes],
    results_lock: threading.Lock,
    offload: bool,
    recovery: RecoveryPolicy | None,
    max_restarts: int,
    ft_timeout: float,
) -> None:
    world = comm.world
    me = comm.rank  # world rank == global rank for the world comm

    def _check_self_dead() -> None:
        dead = world.dead_ranks
        if me in dead:
            raise dead[me]

    def _epoch_loop(active) -> bytes:
        state = None
        epoch = 0
        restarts = 0
        while epoch < app.epochs:
            _check_self_dead()
            if state is None:
                ck = store.latest()
                if ck is None:
                    state = app.init(active)
                    epoch = 0
                else:
                    state = app.restore(ck.blob)
                    epoch = ck.epoch + 1
                if epoch >= app.epochs:
                    break
            ok = 1
            new_state = None
            try:
                new_state = app.step(active, state, epoch)
            except Exception:  # noqa: BLE001 - folded into the agreement
                ok = 0
                # ULFM rule: the detector revokes *before* agreeing.
                # A peer that lost its exchange partner mid-collective
                # is still blocked waiting on a live rank; the revoke
                # notice piggybacked on our agreement traffic poisons
                # its pending operations and frees it to join the
                # agreement (a failed collective need not fail on
                # every member — only revoke makes that global).
                active.revoke()
            _check_self_dead()
            # Same flag on every survivor, even if participants died
            # mid-protocol; works on a revoked communicator too.
            flag = active.agree(ok, timeout=ft_timeout)
            if flag:
                state = new_state
                inner = getattr(active, "inner", active)
                dead = world.dead_ranks
                live = [g for g in inner.group if g not in dead]
                if live and min(live) == me:
                    store.commit(epoch, app.snapshot(state))
                epoch += 1
                continue
            # Recovery cycle: someone's epoch failed.  Shrink around
            # the dead and replay from the last committed snapshot.
            restarts += 1
            if restarts > max_restarts:
                raise RuntimeError(
                    f"rank {me}: gave up after {max_restarts} restarts"
                )
            active.revoke()
            active = active.shrink(timeout=ft_timeout)
            if active.rank == 0:
                store.record_restart()
            state = None  # restore at the top of the loop
        final = app.finish(active, state)
        return app.snapshot(final)

    if offload:
        from repro.core.interpose import offloaded

        rec = recovery or RecoveryPolicy(op_timeout=1.0, rank_failure="shrink")
        with offloaded(comm, recovery=rec) as oc:
            blob = _epoch_loop(oc)
    else:
        blob = _epoch_loop(comm)
    with results_lock:
        results[me] = blob


def run_resilient(
    app,
    world: World,
    *,
    store: CheckpointStore | None = None,
    offload: bool = False,
    recovery: RecoveryPolicy | None = None,
    max_restarts: int | None = None,
    ft_timeout: float = 30.0,
    run_timeout: float = 120.0,
) -> ResilientReport:
    """Run ``app`` to completion over ``world``, surviving rank death.

    Parameters
    ----------
    store:
        Checkpoint store shared by all ranks (defaults to a fresh
        :class:`MemoryCheckpointStore`).
    offload:
        Route the application's MPI through an offload engine per rank
        (:func:`repro.core.interpose.offloaded`); the engine's
        ``rank_failure="shrink"`` policy auto-revokes on dead-rank
        failures, so detection reaches the driver as a typed step
        failure.
    recovery:
        Offload-mode :class:`RecoveryPolicy` override (default: a 1 s
        ``op_timeout`` and ``rank_failure="shrink"``).
    max_restarts:
        Recovery cycles before a rank gives up (default: one per
        possible death, ``nranks``).
    ft_timeout:
        Budget for each ``agree``/``shrink`` protocol run.
    """
    if store is None:
        store = MemoryCheckpointStore()
    if max_restarts is None:
        max_restarts = world.nranks
    results: dict[int, bytes] = {}
    results_lock = threading.Lock()
    unexpected: dict[int, str] = {}
    try:
        world.run(
            _rank_loop,
            app,
            store,
            results,
            results_lock,
            offload,
            recovery,
            max_restarts,
            ft_timeout,
            timeout=run_timeout,
        )
    except WorldError as exc:
        # Dead ranks re-raise their recorded death by design; anything
        # else (including a timeout = hang) is a real failure.
        for rank, sub in exc.failures.items():
            if not _expected_death(world, rank, sub):
                unexpected[rank] = f"{type(sub).__name__}: {sub}"
    dead = sorted(world.dead_ranks)
    blobs = {r: results[r] for r in sorted(results)}
    canonical = next(iter(blobs.values()), None)
    agree_bytes = canonical is not None and all(
        b == canonical for b in blobs.values()
    )
    stats = store.stats()
    ok = bool(agree_bytes and not unexpected)
    return ResilientReport(
        ok=ok,
        result=canonical,
        results=blobs,
        dead=dead,
        restarts=stats.get("restarts", 0),
        checkpoint_bytes=stats.get("checkpoint_bytes", 0),
        epochs=app.epochs,
        counters=merge_counters(
            [
                {
                    k: e.counters().get(k, 0)
                    for k in ("comm_revokes", "agree_rounds", "shrink_epochs")
                }
                for e in world.engines
            ]
        ),
        unexpected=unexpected,
    )


__all__ = ["ResilientReport", "run_resilient"]
