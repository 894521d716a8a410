"""Schedule exploration: run a DST program under many interleavings.

An :class:`Explorer` repeatedly executes a *program* — an object that
spawns virtual threads on a fresh :class:`~repro.dst.scheduler.Scheduler`
and states its invariants — under schedules drawn from a strategy:

* ``random`` — one independent random-walk schedule per run, each with
  a derived seed;
* ``pct`` — PCT priority schedules (better at ordering bugs of small
  depth);
* ``exhaustive`` — depth-first enumeration of every schedule, for
  small bounded programs (stops early when the tree is exhausted).

Any violation — a failed invariant, an unexpected virtual-thread
exception, a deadlock, a non-linearizable history — stops exploration
and is reported with a **replay token**: for random/PCT schedules a
single integer seed, for exhaustive schedules the decision path.
:meth:`Explorer.replay` re-executes exactly that schedule, so a CI
failure line is a complete reproduction recipe.

Counters (``schedules_explored``, ``yields``,
``lin_histories_checked``) follow the :mod:`repro.obs` conventions and
are exposed on :attr:`Explorer.counters`.

Placement: a schedule is a chain of hand-offs between the driving loop
and one virtual thread at a time, and a hand-off costs a few
microseconds between threads on one CPU but can cost tens across two.
So :meth:`Explorer.run` explores on a thread of its own bound to the
first CPU of the caller's mask — the rule ``World.run`` applies to the
rank of a one-rank world (DESIGN.md §21) — and every virtual thread,
spawned from there, inherits that CPU.  The caller's own mask is never
changed; where the affinity call is missing or refused, exploration
runs unbound.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.dst.linearize import (
    LinearizabilityError,
    check_linearizable,
)
from repro.dst.scheduler import DstError, Scheduler
from repro.dst.strategies import (
    ExhaustiveStrategy,
    PCTStrategy,
    RandomWalkStrategy,
    Strategy,
    strategy_from_token,
)
from repro.obs.counters import Counters


class InvariantViolation(AssertionError):
    """A DST program's post-run invariant failed."""


#: Per-run seeds are derived from the base seed with a large odd
#: multiplier so neighbouring base seeds do not share runs.
_SEED_STRIDE = 1_000_003


def derive_seed(base_seed: int, run_index: int) -> int:
    """The seed of run ``run_index`` under base seed ``base_seed``."""
    return base_seed * _SEED_STRIDE + run_index


def _on_one_cpu(fn: Callable[[], Any]) -> Any:
    """``fn()`` on a thread bound to the first CPU of the caller's mask
    (see the module docstring): its result, or its exception raised."""
    out: list[tuple[bool, Any]] = []

    def body() -> None:
        try:  # the new thread starts with the caller's mask
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except (AttributeError, OSError):
            pass  # no affinity call, or refused: explore unbound
        try:
            out.append((True, fn()))
        except BaseException as exc:  # noqa: BLE001 - raised below
            out.append((False, exc))

    thread = threading.Thread(target=body, name="dst-explorer", daemon=True)
    thread.start()
    thread.join()
    ok, value = out[0]
    if not ok:
        raise value
    return value


@dataclass
class ScheduleFailure:
    """Everything needed to understand and replay one failing schedule."""

    run_index: int
    token: tuple
    error: BaseException
    schedule: list = field(default_factory=list)
    steps: int = 0
    crash_site: "str | None" = None

    def replay_hint(self) -> str:
        if self.token[0] in ("random", "pct"):
            seed = self.token[1]
            return (
                f"seed={seed} — replay with Explorer(...).replay({seed}) "
                f"or REPRO_TEST_SEED={seed}"
            )
        return f"token={self.token!r} — replay with Explorer(...).replay(token)"

    def __str__(self) -> str:
        return (
            f"schedule #{self.run_index} failed after {self.steps} steps "
            f"({self.error.__class__.__name__}: {self.error}); "
            f"{self.replay_hint()}"
        )


@dataclass
class ExplorationResult:
    """Summary of an exploration."""

    found: bool
    runs: int
    failure: "ScheduleFailure | None" = None
    exhausted: bool = False
    total_steps: int = 0
    total_yields: int = 0

    def __bool__(self) -> bool:
        return self.found


class Explorer:
    """Drive a program factory through many schedules.

    Parameters
    ----------
    make_program:
        Zero-arg callable returning a **fresh** program per run.  A
        program must provide ``setup(scheduler)`` (spawn virtual
        threads) and ``check()`` (raise :class:`InvariantViolation` on
        a bug).  Optionally it may expose ``history`` and ``spec``
        attributes, in which case every run's history is additionally
        checked for linearizability.
    strategy:
        ``"random"``, ``"pct"``, ``"exhaustive"``, or a
        :class:`~repro.dst.strategies.Strategy` factory
        ``(run_seed) -> Strategy``.
    schedules:
        Schedule budget (exhaustive stops earlier if the tree is
        smaller).
    seed:
        Base seed; run *i* uses :func:`derive_seed` of it.
    """

    def __init__(
        self,
        make_program: Callable[[], Any],
        strategy: "str | Callable[[int], Strategy]" = "random",
        schedules: int = 200,
        seed: int = 0,
        max_steps: int = 20_000,
        pct_depth: int = 3,
        counters: "Counters | None" = None,
        verbose: bool = False,
    ) -> None:
        self.make_program = make_program
        self.schedules = schedules
        self.seed = seed
        self.max_steps = max_steps
        self.pct_depth = pct_depth
        self.counters = counters if counters is not None else Counters()
        self.verbose = verbose
        self._strategy_arg = strategy
        self._exhaustive: ExhaustiveStrategy | None = None

    # ------------------------------------------------------------ runs

    def _strategy_for_run(self, run_index: int) -> Strategy:
        arg = self._strategy_arg
        if callable(arg):
            return arg(derive_seed(self.seed, run_index))
        if arg == "random":
            return RandomWalkStrategy(derive_seed(self.seed, run_index))
        if arg == "pct":
            return PCTStrategy(
                derive_seed(self.seed, run_index),
                depth=self.pct_depth,
                expected_steps=self.max_steps,
            )
        if arg == "exhaustive":
            if self._exhaustive is None:
                self._exhaustive = ExhaustiveStrategy()
            return self._exhaustive
        raise ValueError(f"unknown strategy {arg!r}")

    def run_one(self, strategy: Strategy) -> "tuple[Scheduler, BaseException | None]":
        """Execute one schedule; returns (scheduler, violation-or-None)."""
        program = self.make_program()
        sched = Scheduler(strategy, max_steps=self.max_steps)
        sched.install()
        error: BaseException | None = None
        try:
            program.setup(sched)
            try:
                sched.run()
            except DstError as exc:
                error = exc
        finally:
            sched.uninstall()
        self.counters.inc("schedules_explored")
        self.counters.inc("yields", sched.yields)
        if error is None:
            for name, exc in sched.thread_errors():
                error = InvariantViolation(
                    f"virtual thread {name} raised {exc!r}"
                )
                error.__cause__ = exc
                break
        if error is None:
            try:
                program.check()
            except (InvariantViolation, AssertionError) as exc:
                error = exc
        if error is None:
            history = getattr(program, "history", None)
            spec = getattr(program, "spec", None)
            if history is not None and spec is not None:
                self.counters.inc("lin_histories_checked")
                res = check_linearizable(history, spec)
                if not res.ok:
                    error = LinearizabilityError(
                        f"history not linearizable ({res.reason}; "
                        f"{res.states_explored} states):\n"
                        + history.render()
                    )
        return sched, error

    def run(self) -> ExplorationResult:
        """Explore up to ``schedules`` schedules; stop on first violation."""
        return _on_one_cpu(self._explore)

    def _explore(self) -> ExplorationResult:
        total_steps = 0
        total_yields = 0
        runs = 0
        exhausted = False
        for i in range(self.schedules):
            strategy = self._strategy_for_run(i)
            if i > 0 and not strategy.next_run():
                exhausted = True
                break
            sched, error = self.run_one(strategy)
            runs += 1
            total_steps += sched.steps
            total_yields += sched.yields
            if error is not None:
                failure = ScheduleFailure(
                    run_index=i,
                    token=strategy.token(),
                    error=error,
                    schedule=list(sched.schedule_log),
                    steps=sched.steps,
                    crash_site=sched.crash_site,
                )
                self.counters.inc("dst_violations")
                # The one line a failing CI log must contain: what broke
                # and the token that replays it exactly.  On stderr so
                # machine-readable stdout (--json) stays clean.
                print(f"DST: {failure}", file=sys.stderr)
                return ExplorationResult(
                    found=True,
                    runs=runs,
                    failure=failure,
                    total_steps=total_steps,
                    total_yields=total_yields,
                )
            if self.verbose:
                print(
                    f"DST: schedule #{i} ok "
                    f"({sched.steps} steps, {sched.yields} yields)"
                )
        return ExplorationResult(
            found=False,
            runs=runs,
            exhausted=exhausted,
            total_steps=total_steps,
            total_yields=total_yields,
        )

    # ------------------------------------------------------------ replay

    def replay(self, token: "tuple | int") -> "ScheduleFailure | None":
        """Re-execute the exact schedule a failure token names.

        Returns the reproduced failure, or ``None`` if the schedule now
        passes (i.e. the program or fix changed since the recording).
        """
        strategy = strategy_from_token(token)
        sched, error = self.run_one(strategy)
        if error is None:
            return None
        return ScheduleFailure(
            run_index=-1,
            token=strategy.token(),
            error=error,
            schedule=list(sched.schedule_log),
            steps=sched.steps,
            crash_site=sched.crash_site,
        )
