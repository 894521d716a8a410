"""Recovery policies for the offload engine: deadlines, retries,
watchdog, graceful degradation.

The offload design funnels all of a rank's MPI activity through one
communication thread, so that thread is a single point of failure.
A sharded :class:`~repro.core.engine_pool.EnginePool` splits the blast
radius — one wedged shard is poisoned while its siblings keep
completing — but each shard is still a thread that can die.  This
module is the caller-side half of surviving either case:

* :class:`RetryPolicy` — exponential-backoff re-driving of idempotent
  commands that failed with a transient error (off by default).
* :class:`RecoveryPolicy` — the bundle an engine is constructed with:
  an optional retry policy, a watchdog bound, and whether the facade
  should *degrade* to inline (FUNNELED-style) issuance when the engine
  dies instead of raising.
* :class:`EngineWatchdog` — samples the engine's heartbeat counter
  from a caller thread; if the heartbeat does not advance within the
  bound while work is pending, the engine is declared wedged and
  poisoned, so every waiter observes
  :class:`~repro.core.request_pool.OffloadEngineDied` within the bound
  instead of spinning forever.

All of it is opt-in and zero-overhead when unused: an engine without a
recovery policy runs the exact pre-existing hot paths (a single
``is None`` check at each site, as for fault plans).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.request_pool import OffloadError
from repro.faults.plan import TransientFaultError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import OffloadEngine


class OffloadTimeout(OffloadError, TimeoutError):
    """An offloaded command missed its deadline.

    Raised at the waiter when the engine expired the command (queued
    past its deadline, or in flight without completing by it).
    """


class OffloadStopTimeout(OffloadError, RuntimeError):
    """``OffloadEngine.stop`` timed out with work still outstanding.

    Carries the still-pending operations so the caller can see *what*
    cannot complete instead of a bare "failed to stop".
    """

    def __init__(
        self, message: str, pending: "list[str] | None" = None
    ) -> None:
        super().__init__(message)
        #: human-readable descriptions of the outstanding operations
        self.pending: list[str] = pending or []


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for idempotent commands.

    Only commands in :data:`repro.core.commands.IDEMPOTENT_KINDS` are
    re-driven, and only when the failure is an instance of
    ``retry_on`` — by default the injected
    :class:`~repro.faults.plan.TransientFaultError`, which is raised
    *before* dispatch and therefore always safe to retry.
    """

    max_retries: int = 3
    base_backoff: float = 1e-3
    multiplier: float = 2.0
    max_backoff: float = 0.1
    retry_on: tuple[type[BaseException], ...] = (TransientFaultError,)

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        return min(
            self.base_backoff * self.multiplier ** max(0, attempt - 1),
            self.max_backoff,
        )


@dataclass
class RecoveryPolicy:
    """How an engine and its callers respond to failures.

    Parameters
    ----------
    retry:
        Re-drive idempotent commands that failed transiently
        (``None`` = fail them immediately, the default).
    watchdog_timeout:
        Declare the engine wedged when its heartbeat has not advanced
        for this many seconds while a caller is waiting (``None`` = no
        watchdog).  Detection latency is bounded by
        ``watchdog_timeout + poll_interval``.
    degrade:
        When the engine is dead, issue *new* facade calls inline on the
        calling thread (the FUNNELED fallback) instead of raising.
        Commands already submitted still fail with
        ``OffloadEngineDied``.
    poll_interval:
        Caller-side sampling period for the done flag / heartbeat.
    rank_failure:
        What the engine does when a command fails with
        :class:`~repro.mpisim.exceptions.RankDeadError`.  ``"fail"``
        (default): terminal-fail the command, leave recovery to the
        application.  ``"shrink"``: additionally *revoke* the command's
        communicator, so every survivor's in-flight and future
        operations on it fail typed at once and the application's
        recovery driver (see :func:`repro.ft.run_resilient`) can run
        revoke→agree→shrink without waiting out stragglers.
    """

    retry: RetryPolicy | None = None
    watchdog_timeout: float | None = None
    degrade: bool = False
    poll_interval: float = 0.02
    rank_failure: str = "fail"


class EngineWatchdog:
    """Caller-side heartbeat monitor for one engine (one pool shard).

    Each engine increments ``engine.heartbeat`` once per loop
    iteration; callers hold one watchdog per wait, on the shard that
    carries the awaited command, and call :meth:`check` each sampling
    period.  A heartbeat frozen past the bound (with the thread either
    wedged or vanished) trips the watchdog, which poisons the engine
    via :meth:`OffloadEngine.watchdog_trip` — a shard-local event: its
    pool survives and keeps routing around it.
    """

    __slots__ = ("engine", "timeout", "_beat", "_since")

    def __init__(self, engine: "OffloadEngine", timeout: float) -> None:
        self.engine = engine
        self.timeout = timeout
        #: the last heartbeat sampled and the time it last advanced
        self._beat = engine.heartbeat
        self._since = time.perf_counter()

    def check(self) -> bool:
        """Sample the engine once; True when this sample tripped it."""
        engine = self.engine
        if engine.dead is not None:
            return False  # already dead; nothing to detect
        now = time.perf_counter()
        beat = engine.heartbeat
        if beat != self._beat:
            self._beat, self._since = beat, now
            return False
        thread = engine._thread
        if thread is not None and not thread.is_alive():
            engine.watchdog_trip("offload thread vanished")
            return True
        if now - self._since >= self.timeout:
            engine.watchdog_trip(
                f"heartbeat frozen for {now - self._since:.3f}s "
                f"(bound {self.timeout}s)"
            )
            return True
        return False
