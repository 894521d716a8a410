"""Nonblocking request objects and the wait/test family.

A :class:`Request` belongs to exactly one rank's progress engine.
Testing or waiting on it pumps that engine, which is what gives the
substrate real MPI progress semantics: *nothing moves unless somebody
calls into the library* — the pathology the offload thread cures.  A
wait is its test repeated, parked on a doorbell in between (:func:`drive`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from repro.lockfree.atomics import Doorbell, DoneWord
from repro.mpisim.exceptions import MPIError
from repro.mpisim.status import EMPTY_STATUS, Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.progress import ProgressEngine

#: Safety tick: the longest a driven wait, and the offload engine's loop,
#: parks without looking around.  Every hand-off rings a doorbell; the
#: tick only keeps fault-plan delay maturation and DST threads moving.
TICK = 1e-3


class Request(DoneWord):
    """Base class for all nonblocking operations.

    Completion is the :class:`~repro.lockfree.atomics.DoneWord` the
    offload layer's done flags are built on: ``done`` is a plain
    attribute, completing a request nobody waits on is a store, and a
    blocked :meth:`wait` is woken by the completer directly.
    """

    __slots__ = (
        "engine",
        "status",
        "error",
        "cancelled",
    )

    def __init__(self, engine: "ProgressEngine | None") -> None:
        # DoneWord.__init__ inlined: one call less per message
        self.done = False
        self._waiters = None
        self.engine = engine
        self.status: Status | None = None
        self.error: BaseException | None = None
        self.cancelled = False

    # -- completion (called by progress engines, any thread) ------------

    # Both publish the outcome, then ring the *owning* rank's doorbells:
    # the completer is often another rank's thread (rendezvous CTS, a
    # pool sibling draining the shared inbox, a death sweep), and the
    # thread that must notice is whoever sweeps this request.

    # A rung bell is not rung again (`Doorbell.set`'s first check, made
    # here: the common case is an attribute read).

    def _complete(self, status: Status) -> None:
        self.status = status
        self.done = True  # publish the word, then look for waiters
        if self._waiters is not None:
            self._wake()
        if self.engine is not None:
            for bell in self.engine._doorbells:
                if not bell._flag:
                    bell.set()

    def _fail(self, exc: BaseException) -> None:
        self.error = exc  # before the word: a reader checks it first
        self._complete(EMPTY_STATUS)

    # -- querying --------------------------------------------------------

    def test(self) -> tuple[bool, Status | None]:
        """Nonblocking completion check; pumps progress once."""
        if not self.done and self.engine is not None:
            self.engine.progress()
        if self.done:
            if self.error is not None:
                raise self.error
            return True, self.status
        return False, None

    def wait(self, timeout: float | None = None) -> Status:
        """Block (pumping progress) until complete.

        ``timeout`` is a safety net for tests; production MPI has none.
        """
        if self.engine is not None:
            self.engine.progress()
        if not self.done:
            drive(_engines((self,)), lambda: self.test()[1], timeout, "wait")
        if self.error is not None:
            raise self.error
        assert self.status is not None
        return self.status

    def cancel(self) -> bool:
        """Attempt to cancel; only unmatched receives are cancellable."""
        raise MPIError(f"{type(self).__name__} cannot be cancelled")


class CompletedRequest(Request):
    """A request born complete (PROC_NULL ops, eager local completion)."""

    __slots__ = ()

    def __init__(self, status: Status = EMPTY_STATUS) -> None:
        # `Request.__init__` written out; born complete, nobody parked
        self.done = True
        self._waiters = None
        self.engine = None
        self.status = status
        self.error = None
        self.cancelled = False


class SendRequest(Request):
    """In-flight send.  For rendezvous, holds the un-copied payload."""

    __slots__ = ("payload", "dst", "tag", "context_id", "nbytes")

    def __init__(
        self,
        engine: "ProgressEngine",
        payload: np.ndarray,
        dst: int,
        tag: int,
        context_id: int,
    ) -> None:
        super().__init__(engine)
        self.payload = payload
        self.dst = dst
        self.tag = tag
        self.context_id = context_id
        self.nbytes = payload.nbytes

    def _complete(self, status: Status) -> None:
        # every terminal path (copy, split, fail, sweeps) passes here
        self.engine.rndv_pending.discard(self)
        Request._complete(self, status)


class RecvRequest(Request):
    """Posted receive awaiting a match (or rendezvous data)."""

    __slots__ = ("buffer", "source", "tag", "context_id", "matched", "local")

    def __init__(
        self,
        engine: "ProgressEngine",
        buffer: np.ndarray,
        source: int,
        tag: int,
        context_id: int,
    ) -> None:
        # `Request.__init__` written out: one call per posted receive
        self.done = False
        self._waiters = None
        self.engine = engine
        self.status = None
        self.error = None
        self.cancelled = False
        self.buffer = buffer
        self.source = source
        self.tag = tag
        self.context_id = context_id
        #: set once matching succeeds; cancellation is then impossible
        self.matched = False
        #: global -> comm-local rank map of the receive's communicator,
        #: or None where the numberings coincide (set by ``post_recv``)
        self.local: dict[int, int] | None = None

    def _complete(self, status: Status) -> None:
        # The one place a receive's status becomes comm-local: every
        # completion (match, rendezvous data, cancel) passes here, so
        # wait, test and the wait*/test* family all report it local.
        local = self.local
        if local is not None and status.source >= 0:
            status = Status(
                local[status.source], status.tag, status.count,
                status.cancelled,
            )
        # `Request._complete`, written out: one call per receive
        self.status = status
        self.done = True
        if self._waiters is not None:
            self._wake()
        if self.engine is not None:
            for bell in self.engine._doorbells:
                if not bell._flag:
                    bell.set()

    def cancel(self) -> bool:
        if self.done:
            return False
        assert self.engine is not None
        return self.engine.cancel_recv(self)


def _engines(requests: Iterable[Request]):
    seen = []
    for r in requests:
        if r.engine is not None and r.engine not in seen:
            seen.append(r.engine)
    return seen


def test_request(req: Request) -> tuple[bool, Status | None]:
    """Module-level alias of :meth:`Request.test`."""
    return req.test()


def wait_request(req: Request, timeout: float | None = None) -> Status:
    """Module-level alias of :meth:`Request.wait`."""
    return req.wait(timeout=timeout)


def testall(requests: Sequence[Request]) -> tuple[bool, list[Status] | None]:
    """True plus statuses when every request is complete."""
    for e in _engines(requests):
        e.progress()
    if not all(r.done for r in requests):
        return False, None
    for r in requests:
        if r.error is not None:
            raise r.error
    return True, [r.status for r in requests]


def testany(
    requests: Sequence[Request],
) -> tuple[int | None, Status | None]:
    """Index and status of some complete request, or ``(None, None)``."""
    for e in _engines(requests):
        e.progress()
    for i, r in enumerate(requests):
        if r.done:
            if r.error is not None:
                raise r.error
            return i, r.status
    return None, None


def waitall(
    requests: Sequence[Request], timeout: float | None = None
) -> list[Status]:
    """Wait for every request; statuses in request order."""
    out = testall(requests)[1]
    if out is None:
        step = lambda: testall(requests)[1]  # noqa: E731
        try:
            out = drive(_engines(requests), step, timeout, "waitall")
        except TimeoutError:
            pending = sum(not r.done for r in requests)
            raise TimeoutError(f"waitall: {pending} request(s) pending")
    return out


def waitany(
    requests: Sequence[Request], timeout: float | None = None
) -> tuple[int, Status]:
    """Wait until some request completes; returns its index and status."""
    if not requests:
        raise ValueError("waitany on empty request list")
    i = testany(requests)[0]
    if i is None:
        step = lambda: testany(requests)[0]  # noqa: E731
        i = drive(_engines(requests), step, timeout, "waitany")
    return i, requests[i].status


def waitsome(
    requests: Sequence[Request], timeout: float | None = None
) -> tuple[list[int], list[Status]]:
    """Wait until at least one completes; returns all completed."""
    idx, _ = waitany(requests, timeout=timeout)
    indices: list[int] = []
    statuses: list[Status] = []
    for i, r in enumerate(requests):
        if r.done:
            if r.error is not None:
                raise r.error
            assert r.status is not None
            indices.append(i)
            statuses.append(r.status)
    assert idx in indices
    return indices, statuses


def drive(
    engines: Sequence["ProgressEngine"],
    step: Callable[[], Any],
    timeout: float | None,
    what: str,
) -> Any:
    """The miss path of every blocking wait: repeat ``step`` (pump, then
    look) until it returns something other than None, and return that.

    A doorbell is registered on every engine in ``engines`` (rung after
    each arrival and each completion it owns), then clear → step → park
    (DESIGN.md §17): a ring after the clear cuts the park short, and
    what was published before it, the step sees."""
    deadline = None if timeout is None else time.perf_counter() + timeout
    bell = Doorbell()
    for e in engines:
        e.add_doorbell(bell)
    try:
        while True:
            bell.clear()
            got = step()
            if got is not None:
                return got
            left = TICK
            if deadline is not None:
                left = min(left, deadline - time.perf_counter())
                if left <= 0:
                    raise TimeoutError(f"{what}: pending after {timeout}s")
            bell.wait(left)
    finally:
        for e in engines:
            e.remove_doorbell(bell)
