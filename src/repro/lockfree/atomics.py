"""Atomic primitives emulated on CPython.

Real lock-free code is built from hardware compare-and-swap (CAS) and
fetch-and-add.  CPython exposes neither, so these classes make each
*individual* operation atomic with a private ``threading.Lock`` while
preserving the semantics the algorithms above them rely on:

* a CAS either observes the expected value and installs the new one, or
  fails and returns the value actually observed;
* no cell lock is ever held across a call into user code or another
  cell, so composite operations retain their lock-free structure
  (progress of one thread never depends on a suspended peer holding a
  lock across steps — only on winning a CAS race);
* every failed CAS is counted, giving the ablation benchmarks a direct
  window on contention.

Every operation is additionally a **DST yield point**
(:mod:`repro.dst.hooks`): when a deterministic-simulation scheduler is
installed, the interleaving of loads/stores/CAS attempts across its
virtual threads becomes an explicit, seeded scheduler choice.  With no
scheduler installed — the normal case — each hook is one module
attribute read plus an ``is None`` check.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Generic, TypeVar

from repro.dst import hooks as _dst

T = TypeVar("T")

_cell_ids = itertools.count()


class AtomicCell(Generic[T]):
    """A single word supporting load/store/CAS/swap.

    Values are compared by identity-or-equality (``is`` first, then
    ``==``) which matches how pointer-width CAS behaves for both tagged
    tuples and object references.
    """

    __slots__ = ("_lock", "_value", "cas_failures", "_id")

    def __init__(self, value: T) -> None:
        self._lock = threading.Lock()
        self._value: T = value
        self.cas_failures = 0
        self._id = next(_cell_ids)

    def load(self) -> T:
        if _dst._scheduler is not None:
            _dst.yield_point("cell.load")
        # CPython attribute reads are atomic under the GIL; take the
        # lock anyway so the class stays correct on free-threaded builds.
        with self._lock:
            return self._value

    def store(self, value: T) -> None:
        if _dst._scheduler is not None:
            _dst.yield_point("cell.store")
        with self._lock:
            self._value = value

    def swap(self, value: T) -> T:
        if _dst._scheduler is not None:
            _dst.yield_point("cell.swap")
        with self._lock:
            old = self._value
            self._value = value
            return old

    def compare_and_swap(self, expected: T, new: T) -> tuple[bool, T]:
        """Atomically install ``new`` if the cell holds ``expected``.

        Returns ``(True, expected)`` on success or ``(False, observed)``
        on failure, mirroring C11 ``atomic_compare_exchange``.
        """
        if _dst._scheduler is not None:
            _dst.yield_point("cell.cas")
        with self._lock:
            cur = self._value
            if cur is expected or cur == expected:
                self._value = new
                return True, cur
            self.cas_failures += 1
            return False, cur

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AtomicCell#{self._id}({self._value!r})"


class AtomicCounter:
    """Monotonic counter with fetch-and-add and CAS."""

    __slots__ = ("_lock", "_value", "cas_failures")

    def __init__(self, value: int = 0) -> None:
        self._lock = threading.Lock()
        self._value = value
        self.cas_failures = 0

    def load(self) -> int:
        if _dst._scheduler is not None:
            _dst.yield_point("counter.load")
        with self._lock:
            return self._value

    def fetch_add(self, delta: int = 1) -> int:
        """Add ``delta`` and return the *previous* value."""
        if _dst._scheduler is not None:
            _dst.yield_point("counter.fetch_add")
        with self._lock:
            old = self._value
            self._value = old + delta
            return old

    def compare_and_swap(self, expected: int, new: int) -> tuple[bool, int]:
        if _dst._scheduler is not None:
            _dst.yield_point("counter.cas")
        with self._lock:
            cur = self._value
            if cur == expected:
                self._value = new
                return True, cur
            self.cas_failures += 1
            return False, cur

    def store(self, value: int) -> None:
        if _dst._scheduler is not None:
            _dst.yield_point("counter.store")
        with self._lock:
            self._value = value


#: Guards every flag's waiter list.  One lock for all of them is
#: enough: it is taken only by a thread that is about to block (or that
#: wakes such a thread), around a list append, swap or remove — the
#: park underneath costs microseconds, and a lock per flag would put
#: back the per-operation object this design removes.
_park_lock = threading.Lock()


class DoneWord:
    """One word a completer stores, plus lazily parked waiters.

    The paper's done flag (Section 3.1) is a memory word the waiter
    checks; completing an operation nobody is blocked on costs the
    completer a store.  ``done`` is that word — read it directly on hot
    paths.  Waiters exist only while a thread is actually blocked:

    * the completer **publishes, then looks**: it stores ``done`` and
      only afterwards reads ``_waiters`` (written out where it happens:
      :meth:`AtomicFlag.set`, ``Request._complete``);
    * a waiter **registers, then looks**: it appends a one-shot lock to
      ``_waiters`` under :data:`_park_lock` and only afterwards reads
      ``done`` again (:meth:`park`).

    Whichever of the two stores comes second, its thread's following
    read sees the other's store, so either the completer finds the
    waiter and releases its lock or the waiter finds the word set and
    never blocks.  A woken waiter re-reads the word before returning,
    so a stray wake (see :meth:`AtomicFlag.clear`) is harmless.
    """

    __slots__ = ("done", "_waiters")

    def __init__(self) -> None:
        self.done = False
        self._waiters: list | None = None

    def _wake(self) -> None:
        with _park_lock:
            waiters, self._waiters = self._waiters, None
        for token in waiters or ():
            token.release()

    def _register(self, token) -> None:
        with _park_lock:
            if self._waiters is None:
                self._waiters = [token]
            else:
                self._waiters.append(token)

    def _deregister(self, token) -> None:
        with _park_lock:
            waiters = self._waiters
            if waiters is not None:
                try:
                    waiters.remove(token)
                except ValueError:
                    return  # a completer already swapped the list out
                if not waiters:
                    self._waiters = None

    @staticmethod
    def _block(token, timeout: float) -> bool:
        """Sleep until ``token`` is released (``timeout`` < 0: forever)."""
        return token.acquire(True, timeout)

    def park(self, timeout: float | None = None) -> bool:
        """Block the calling thread until the word is set.

        Always a real park, also under a DST scheduler (the cooperative
        form is :meth:`AtomicFlag.wait`).  Returns False when
        ``timeout`` seconds passed first; the waiter then takes its
        registration back, so waiting in slices leaks nothing.
        """
        end = None if timeout is None else time.monotonic() + timeout
        while not self.done:
            token = threading.Lock()
            token.acquire()
            self._register(token)
            left = -1.0 if end is None else max(0.0, end - time.monotonic())
            # The look after the register catches a set that came
            # between the first look and it; a wake is re-checked too.
            if self.done or not self._block(token, left):
                self._deregister(token)
                return self.done
        return True


class AtomicFlag(DoneWord):
    """A *done* flag with a payload, reusable across slot generations.

    Models the per-command completion flag of Section 3.1: the offload
    thread sets it, the application thread waits on it.  The paper's
    waiter spins on its own core; under one GIL a spinning waiter holds
    the interpreter the offload thread needs in order to set the flag,
    so ``wait()`` parks at once (:class:`DoneWord`) and ``set()`` is its
    wake source.
    """

    __slots__ = ("payload",)

    def __init__(self) -> None:
        # DoneWord.__init__ inlined: one per pool slot and per command
        self.done = False
        self._waiters = None
        self.payload: Any = None

    def is_set(self) -> bool:
        return self.done

    def set(self, payload: Any = None) -> None:
        self.payload = payload  # before the word: a reader checks it first
        self.done = True  # publish, then look for waiters
        if self._waiters is not None:
            self._wake()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the flag is set; False when ``timeout`` expired."""
        if self.done:
            return True
        # Under DST the wait becomes a cooperative block on the
        # scheduler (a real park would wedge every virtual thread);
        # foreign threads fall through to the normal path.
        if _dst._scheduler is not None and _dst.flag_wait(self.is_set):
            return True
        return self.park(timeout)

    def clear(self) -> None:
        """Owner only: make the flag reusable for the next operation.

        May assume the flag is set and consumed — every thread that
        could wait on this generation has seen it — but *not* that the
        completer has returned from :meth:`set`: it may still be
        between its store and its look at the waiter list, and will
        then wake a waiter of the next generation early.  That waiter
        re-reads the word and parks again.
        """
        self.payload = None
        self.done = False


class Doorbell:
    """A wake flag with exactly one waiter.

    Any thread rings (:meth:`set`); only the owning thread clears and
    waits.  ``threading.Event`` serves any number of waiters through a
    condition variable, and ringing a *parked* waiter that way costs
    the ringer about three times the futex wake underneath (≈ 19 µs
    against ≈ 6 µs on the reference box).  The ringer is the thread on
    the critical path — an application thread inside ``isend``, a
    peer's engine delivering an envelope — so for the engine loop,
    which has a single waiter by construction, the wake is a flag plus
    one lock used as a binary semaphore (the *token*).

    ``wait`` may return early and False on a token left over from a
    ring that raced a ``clear``; the owner then looks around once more
    and parks again, which is harmless.
    """

    __slots__ = ("_flag", "_token")

    def __init__(self) -> None:
        self._flag = False
        self._token = threading.Lock()
        self._token.acquire()  # locked: no token to take

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        if self._flag:
            # Already rung and not yet cleared: the owner is awake or
            # about to find the token, and its next clear → look comes
            # after whatever this ringer published.
            return
        self._flag = True  # before the token: ``wait`` checks it first
        try:
            self._token.release()
        except RuntimeError:
            pass  # two first ringers raced; one token is enough

    #: A bell is also a park token several done words may release
    #: (:func:`park_any`): a second release is a no-op, where a plain
    #: lock's would raise on the completer.
    release = set

    def clear(self) -> None:
        self._flag = False
        self._token.acquire(False)

    def wait(self, timeout: float) -> bool:
        """Block until rung or ``timeout`` seconds passed; was it rung?"""
        if not self._flag:
            self._token.acquire(True, timeout)
        return self._flag


def park_any(words, timeout: float | None = None) -> bool:
    """Block until one of ``words`` is set or ``timeout`` seconds
    passed; is one set?  :class:`DoneWord`'s register-then-look over
    several words, with one bell (two words may publish together) that
    is taken back from every word however the park ended."""
    bell = Doorbell()
    for w in words:
        w._register(bell)
    if not any(w.done for w in words):
        bell.wait(-1.0 if timeout is None else max(0.0, timeout))
    for w in words:
        w._deregister(bell)
    return any(w.done for w in words)
