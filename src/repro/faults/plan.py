"""Deterministic, seeded fault injection for the offload stack.

The offload design concentrates every MPI call of a rank in one
communication thread, which makes that thread — and the simulated
transport underneath it — a single point of failure.  This module makes
those failures *injectable* so the recovery machinery
(:mod:`repro.core.recovery`) can be exercised deterministically:

* a :class:`FaultRule` describes one fault (what, where, when, how
  often);
* a :class:`FaultPlan` holds an ordered list of rules plus a seeded
  RNG, and exposes the three hook points the substrate calls:

  - :meth:`FaultPlan.on_deliver` — message faults (drop / delay /
    duplicate), called by :meth:`repro.mpisim.world.World._deliver`;
  - :meth:`FaultPlan.on_progress` — rank stragglers and
    progress-engine stalls, called by
    :meth:`repro.mpisim.progress.ProgressEngine.progress` (under the
    library lock, so a stall wedges the rank exactly like a stuck
    progress engine would);
  - :meth:`FaultPlan.on_command` — transient command errors, offload
    engine crashes, and whole-rank crashes, called by the offload
    engine before dispatching each command.

Zero-overhead discipline: when no plan is installed, every hook site
is a single ``is None`` check; no plan code runs.

Determinism: rule eligibility is counted per rule (``after`` / ``count``
windows) and probabilistic decisions come from one seeded
``random.Random``, both under the plan lock.  Given the same seed,
rules, and per-scope event order, the same events are faulted.  (Event
*interleaving* across threads is still scheduler-dependent — scope
rules tightly when a test needs an exact outcome.)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import TYPE_CHECKING, Callable

from repro.mpisim.envelope import BufferRef, Envelope, EnvelopeKind
from repro.mpisim.status import EMPTY_STATUS
from repro.obs.counters import Counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.commands import Command
    from repro.core.engine import OffloadEngine
    from repro.mpisim.progress import ProgressEngine
    from repro.mpisim.world import World


class FaultInjectionError(Exception):
    """Base class for injected failures."""


class TransientFaultError(FaultInjectionError):
    """An injected, retryable command failure (COMMAND_ERROR rules).

    The default :class:`~repro.core.recovery.RetryPolicy` retries
    exactly this type: the fault is raised *before* the command is
    dispatched, so re-driving the command is always safe.
    """


class InjectedCrash(FaultInjectionError):
    """Injected offload-thread death (ENGINE_CRASH / RANK_CRASH rules).

    Raised inside the engine loop; the engine's crash handling marks
    itself dead and fails everything pending with
    :class:`~repro.core.request_pool.OffloadEngineDied`.
    """


class FaultAction(Enum):
    """Every fault the plan can inject, grouped by hook scope."""

    # -- message scope (World._deliver) --------------------------------
    DROP = "drop"
    DELAY = "delay"
    DUPLICATE = "duplicate"
    # -- progress scope (ProgressEngine.progress) ----------------------
    SLOW_RANK = "slow_rank"
    STALL = "stall"
    # -- command scope (OffloadEngine, pre-dispatch) -------------------
    COMMAND_ERROR = "command_error"
    ENGINE_CRASH = "engine_crash"
    RANK_CRASH = "rank_crash"


#: Actions evaluated at message delivery time.
MESSAGE_ACTIONS = frozenset(
    {FaultAction.DROP, FaultAction.DELAY, FaultAction.DUPLICATE}
)
#: Actions evaluated when a rank pumps progress.
PROGRESS_ACTIONS = frozenset({FaultAction.SLOW_RANK, FaultAction.STALL})
#: Actions evaluated when the offload engine is about to dispatch.
COMMAND_ACTIONS = frozenset(
    {
        FaultAction.COMMAND_ERROR,
        FaultAction.ENGINE_CRASH,
        FaultAction.RANK_CRASH,
    }
)

#: Granularity of injected sleeps; stalled threads re-check for engine
#: death at this period so an aborted engine is never wedged for longer
#: than one slice past its stall budget.
_SLEEP_SLICE = 5e-3


@dataclass
class FaultRule:
    """One scoped fault.

    Parameters
    ----------
    action:
        A :class:`FaultAction` (or its string value).
    rank:
        Rank the fault manifests on (message rules: the *destination*
        rank; ``None`` matches every rank).
    peer:
        Message rules: the source rank; command rules: the command's
        peer (dest/source/root).  ``None`` matches any.
    kind:
        Message rules: envelope kind name (``"eager"``, ``"rts"``,
        ``"cts"``, ``"rma"``); command rules: command kind name
        (``"isend"``, ``"iallreduce"``, ``"call"``, ...; a blocking
        call is its nonblocking kind, so ``"isend"`` matches ``send``
        too).  ``None`` matches any.
    tag:
        Message/command tag filter (``None`` matches any).
    after:
        Skip this many eligible events before injecting anything —
        "crash at command index N" is ``after=N``.
    count:
        Maximum number of injections (``None`` = unlimited).
    probability:
        Chance an eligible event is faulted, drawn from the plan's
        seeded RNG.
    delay:
        DELAY rules: seconds the message is held back.
    duration:
        SLOW_RANK / STALL rules: seconds slept per injection.
    error:
        COMMAND_ERROR rules: message for the raised
        :class:`TransientFaultError` (or a zero-arg exception factory).
    rule_id:
        Stable identifier stamped onto injected exceptions (and, for
        RANK_CRASH rules, carried into the substrate's
        :class:`~repro.mpisim.exceptions.RankDeadError` messages), so a
        failure observed deep in a chaos run names the rule that caused
        it.  Auto-assigned as ``"r<index>:<action>"`` when the rule is
        added to a plan without one.
    """

    action: FaultAction
    rank: int | None = None
    peer: int | None = None
    kind: str | None = None
    tag: int | None = None
    after: int = 0
    count: int | None = 1
    probability: float = 1.0
    delay: float = 0.0
    duration: float = 0.0
    error: str | Callable[[], BaseException] | None = None
    rule_id: str | None = None
    # -- per-rule state (managed by the plan, under its lock) ----------
    seen: int = field(default=0, repr=False)
    hits: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.action, FaultAction):
            self.action = FaultAction(self.action)
        if self.kind is not None:
            self.kind = self.kind.lower()

    # NOTE: callers hold the plan lock for seen/hits accounting.
    def _matches_scope(
        self,
        rank: int,
        peer: int | None,
        kind: str,
        tag: int | None,
    ) -> bool:
        if self.rank is not None and rank != self.rank:
            return False
        if self.peer is not None and peer != self.peer:
            return False
        if self.kind is not None and kind != self.kind:
            return False
        if self.tag is not None and tag != self.tag:
            return False
        return True

    def _fire(self, rng: Random) -> bool:
        """Eligible event observed: does the fault fire? (lock held)"""
        if self.count is not None and self.hits >= self.count:
            return False
        self.seen += 1
        if self.seen <= self.after:
            return False
        if self.probability < 1.0 and rng.random() >= self.probability:
            return False
        self.hits += 1
        return True

    def make_error(self) -> BaseException:
        if callable(self.error):
            exc = self.error()
        else:
            msg = self.error or f"injected fault ({self.action.value})"
            exc = TransientFaultError(msg)
        if getattr(exc, "rule_id", None) is None:
            exc.rule_id = self.rule_id
        return exc


class FaultPlan:
    """An ordered set of :class:`FaultRule`\\ s with a seeded RNG.

    Install on a world with :meth:`World.install_faults
    <repro.mpisim.world.World.install_faults>` (or pass ``faults=`` to
    :class:`~repro.core.engine.OffloadEngine` /
    :func:`~repro.core.interpose.offloaded` for engine-only scope).

    For each event, the *first* matching rule that fires wins; later
    rules are not consulted for that event.  Injection counts are kept
    both per rule (``rule.hits``) and in :attr:`counters` (an
    :class:`repro.obs.counters.Counters`: ``faults_injected`` plus one
    ``fault_<action>`` counter per action).
    """

    def __init__(
        self, rules: "list[FaultRule] | tuple[FaultRule, ...]" = (), seed: int = 0
    ) -> None:
        self.rules: list[FaultRule] = list(rules)
        for i, rule in enumerate(self.rules):
            if rule.rule_id is None:
                rule.rule_id = f"r{i}:{rule.action.value}"
        self.seed = seed
        self._rng = Random(seed)
        self._lock = threading.Lock()
        self.counters = Counters()
        #: delayed messages: (release_time, dst, envelope)
        self._delayed: list[tuple[float, int, Envelope]] = []
        self._world: "World | None" = None

    # ------------------------------------------------------------ setup

    def add(self, rule: FaultRule) -> "FaultPlan":
        if rule.rule_id is None:
            rule.rule_id = f"r{len(self.rules)}:{rule.action.value}"
        self.rules.append(rule)
        return self

    def bind(self, world: "World") -> None:
        """Called by :meth:`World.install_faults`."""
        self._world = world

    # ------------------------------------------------------------ stats

    def stats(self) -> dict[str, int]:
        """Merged injection counters (``faults_injected`` et al.)."""
        return self.counters.snapshot()

    @property
    def faults_injected(self) -> int:
        return self.counters.get("faults_injected")

    def _count(self, action: FaultAction) -> None:
        self.counters.inc("faults_injected")
        self.counters.inc(f"fault_{action.value}")

    # ------------------------------------------------------ hook: deliver

    def on_deliver(
        self, dst: int, env: Envelope
    ) -> list[tuple[int, Envelope]]:
        """Message-scope faults; returns the deliveries to perform now.

        ``[]`` means dropped (or held back for later release via
        :meth:`on_progress`); two entries mean the message was
        duplicated (EAGER only — control envelopes carry request
        references whose duplication would double-complete them).
        """
        kind = env.kind.value
        with self._lock:
            for rule in self.rules:
                if rule.action not in MESSAGE_ACTIONS:
                    continue
                if rule.action is FaultAction.DUPLICATE and (
                    env.kind is not EnvelopeKind.EAGER
                ):
                    continue
                if not rule._matches_scope(dst, env.src, kind, env.tag):
                    continue
                if not rule._fire(self._rng):
                    continue
                self._count(rule.action)
                if rule.action is FaultAction.DROP:
                    # Eager data is lost in transit *after* leaving the
                    # sender: complete any zero-copy send request so the
                    # sender does not wait forever on a match that can
                    # never happen (classic eager sends completed at
                    # post time; this preserves that semantics).
                    self._complete_eager_sends(env)
                    return []
                if rule.action is FaultAction.DELAY:
                    release = time.perf_counter() + rule.delay
                    self._delayed.append((release, dst, env))
                    return []
                # DUPLICATE: the duplicate must own its bytes.  A
                # zero-copy EAGER envelope carries a *borrowed* view of
                # the sender's live user buffer plus the sender's
                # pending request — sharing the envelope would alias
                # the user buffer (late match reads post-reuse data)
                # and double-complete the request.  Owned payloads can
                # still share (the receiver copies out on each match).
                return [(dst, env), (dst, self._duplicate(env))]
        return [(dst, env)]

    @staticmethod
    def _complete_eager_sends(env: Envelope) -> None:
        """Complete pending zero-copy eager send requests on ``env``."""
        if env.kind is EnvelopeKind.EAGER:
            if env.send_req is not None and not env.send_req.done:
                env.send_req._complete(EMPTY_STATUS)

    def _duplicate(self, env: Envelope) -> Envelope:
        """A safe second delivery of an EAGER envelope.

        Borrowed :class:`BufferRef` payloads are deep-copied (one
        materialization, counted in ``duplicate_deep_copies``) and the
        send-request reference is stripped: the original envelope alone
        completes the sender.
        """
        payload = env.payload
        if isinstance(payload, BufferRef) and not payload.owned:
            payload = payload.materialize()
            self.counters.inc("duplicate_deep_copies")
        if payload is env.payload and env.send_req is None:
            # Owned payload, no request reference: sharing the envelope
            # object is safe (pre-zero-copy behavior, unchanged).
            return env
        return Envelope(
            kind=env.kind,
            src=env.src,
            dst=env.dst,
            context_id=env.context_id,
            tag=env.tag,
            nbytes=env.nbytes,
            payload=payload,
        )

    # ----------------------------------------------------- hook: progress

    def on_progress(self, engine: "ProgressEngine") -> list[Envelope]:
        """Progress-scope faults for ``engine.rank``.

        Applies straggler/stall sleeps (called under the library lock,
        so a stall wedges the rank) and returns any delayed messages
        destined to this rank whose release time has passed.
        """
        rank = engine.rank
        matured: list[Envelope] = []
        sleep_for = 0.0
        with self._lock:
            if self._delayed:
                now = time.perf_counter()
                keep: list[tuple[float, int, Envelope]] = []
                for item in self._delayed:
                    release, dst, env = item
                    if dst == rank and release <= now:
                        matured.append(env)
                    else:
                        keep.append(item)
                self._delayed = keep
            for rule in self.rules:
                if rule.action not in PROGRESS_ACTIONS:
                    continue
                if not rule._matches_scope(rank, None, "", None):
                    continue
                if not rule._fire(self._rng):
                    continue
                self._count(rule.action)
                sleep_for = rule.duration
                break
        if sleep_for > 0.0:
            self._interruptible_sleep(sleep_for, None)
        return matured

    # ------------------------------------------------------ hook: command

    def on_command(
        self, engine: "OffloadEngine", cmd: "Command"
    ) -> BaseException | None:
        """Command-scope faults, called by the engine pre-dispatch.

        Returns a transient error to fail (or retry) the command with,
        raises :class:`InjectedCrash` to kill the engine thread, or
        returns ``None`` to let the command through.
        """
        rank = engine.comm.engine.rank
        kind = cmd.kind.name.lower()
        with self._lock:
            for rule in self.rules:
                if rule.action not in COMMAND_ACTIONS:
                    continue
                if not rule._matches_scope(rank, cmd.peer, kind, cmd.tag):
                    continue
                if not rule._fire(self._rng):
                    continue
                self._count(rule.action)
                action = rule.action
                break
            else:
                return None
        if action is FaultAction.COMMAND_ERROR:
            return rule.make_error()
        if action is FaultAction.RANK_CRASH and self._world is not None:
            death = InjectedCrash(f"rank {rank} crashed (injected)")
            death.rule_id = rule.rule_id
            self._world.mark_rank_dead(rank, death)
        crash = InjectedCrash(
            f"offload thread of rank {rank} crashed at command "
            f"#{engine.commands_processed} ({kind}) [injected]"
        )
        crash.rule_id = rule.rule_id
        raise crash

    # ------------------------------------------------------------ helpers

    @staticmethod
    def _interruptible_sleep(
        duration: float, engine: "OffloadEngine | None"
    ) -> None:
        """Sleep in slices, bailing early if ``engine`` was killed."""
        deadline = time.perf_counter() + duration
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            if engine is not None and engine.dead is not None:
                return
            time.sleep(min(_SLEEP_SLICE, remaining))

    def pending_delayed(self) -> int:
        """Number of messages currently held back by DELAY rules."""
        with self._lock:
            return len(self._delayed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
            f"injected={self.faults_injected})"
        )
