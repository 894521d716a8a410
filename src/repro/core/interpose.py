"""Transparent interposition: unmodified applications gain offload.

Paper §3.4 uses ``LD_PRELOAD`` to slide the offload library between the
application and MPI with zero code changes.  The Python analogue is
object substitution: application code written against the communicator
interface receives an :class:`~repro.core.offload_comm.OffloadCommunicator`
whose surface is identical — every call silently becomes an enqueued
command.

Typical use::

    from repro.core import offloaded

    def app(comm):              # written for plain MPI, never edited
        comm.send(...); comm.allreduce(...)

    def rank_program(comm):
        with offloaded(comm) as ocomm:
            app(ocomm)          # now runs with software offload
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator

from repro.core.engine_pool import EnginePool
from repro.core.offload_comm import OffloadCommunicator

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.communicator import Communicator

#: Default shard count when ``offloaded`` is called without an explicit
#: ``pool_size``.  The test suite's pool-parametrized conftest fixture
#: overrides this to run the whole matrix against a sharded pool.
DEFAULT_POOL_SIZE = 1


def interpose(comm: "Communicator", engine: EnginePool) -> OffloadCommunicator:
    """Wrap ``comm`` so its MPI calls route through ``engine``.

    The pool must already be running and must share ``comm``'s rank.
    """
    if engine.comm.engine.rank != comm.engine.rank:
        raise ValueError(
            "offload engine and communicator belong to different ranks"
        )
    return OffloadCommunicator(comm, engine)


@contextlib.contextmanager
def offloaded(
    comm: "Communicator",
    telemetry: bool | None = None,
    recovery=None,
    pool_size: int | None = None,
    router: str = "dest",
) -> Iterator[OffloadCommunicator]:
    """Context manager: spawn offload thread(s) for ``comm``'s rank,
    yield the interposed communicator, and tear them down on exit (the
    paper's intercept-at-``MPI_Init``/``MPI_Finalize`` lifecycle).

    ``telemetry`` overrides the global :func:`repro.obs.enabled`
    default for these engines: whether their final snapshots are filed
    in the registry (nothing else; the counters are always on).

    ``recovery`` installs a :class:`repro.core.recovery.RecoveryPolicy`
    on the engines (its per-command deadline stamps every offloaded
    call); it defaults to off (zero overhead).  A fault plan is
    the world's: :meth:`~repro.mpisim.world.World.install_faults`
    before entering.  Teardown tolerates a dead engine: pending work
    has already been failed with typed errors, so exit does not raise
    on top of the application's own handling.

    ``pool_size``/``router`` configure the rank's
    :class:`~repro.core.engine_pool.EnginePool`: one engine (the
    paper's one offload thread) or N routed ones (its §7 multiple
    offload threads; ``router="thread"`` gives each application thread
    its own engine).  An *explicit* ``pool_size > 1`` requires
    ``MPI_THREAD_MULTIPLE`` and raises otherwise; when ``pool_size``
    is None the module default (:data:`DEFAULT_POOL_SIZE`) applies but
    is silently clamped to 1 below ``MPI_THREAD_MULTIPLE`` so
    single-threaded worlds keep working when the suite-wide default is
    raised.  The request pool's and the rings' sizes are the
    :class:`~repro.core.engine_pool.EnginePool`'s: build one and
    :func:`interpose` it to set them.

    The zero-copy data plane (DESIGN.md §14) is a setting of the
    :class:`~repro.mpisim.world.World`; this context leaves it alone."""
    effective_pool = pool_size if pool_size is not None else DEFAULT_POOL_SIZE
    if pool_size is None and effective_pool > 1:
        # Default-derived width: clamp rather than raise so the
        # pool-parametrized suite can still exercise FUNNELED worlds.
        from repro.mpisim.constants import ThreadLevel

        level = getattr(
            getattr(comm, "world", None),
            "thread_level",
            ThreadLevel.MULTIPLE,
        )
        if level < ThreadLevel.MULTIPLE:
            effective_pool = 1
    engine = EnginePool(
        comm,
        pool_size=effective_pool,
        router=router,
        telemetry=telemetry,
        recovery=recovery,
    )
    engine.start()
    try:
        yield OffloadCommunicator(comm, engine)
    finally:
        _teardown(engine)


def _teardown(engine: EnginePool) -> None:
    """Stop a pool, absorbing death it already reported.

    A dead engine failed all its pending work with typed exceptions at
    death time; raising again out of the ``finally`` would mask the
    application's own exception handling.  A pool whose every shard is
    *live* but cannot stop still raises (stuck work is a real error)."""
    from repro.core.request_pool import OffloadEngineDied

    dead = any(e.dead is not None for e in engine.engines)
    try:
        engine.stop()
    except OffloadEngineDied:
        pass
    except RuntimeError:
        if not dead:
            raise
