"""Bounded multi-producer queue (Vyukov algorithm).

This is the offload engine's command queue (paper Section 3.1/3.3):
application threads — possibly many of them, under
``MPI_THREAD_MULTIPLE`` — enqueue serialized MPI commands; the single
offload thread dequeues them.

The implementation is Dmitry Vyukov's bounded MPMC queue specialized
for one consumer: a circular array of cells, each carrying a sequence
number.  Cell *i* is an entry in each of two flat arrays, its sequence
number ``_seqs[i]`` and its value ``_vals[i]`` — no object per cell, so
building a ring is two list constructions.  A producer claims a cell
by CAS on the enqueue ticket, writes its payload, then publishes by
advancing the cell's sequence.  The consumer reads cells in ticket
order, waiting only on the *publication* of the specific cell it needs.
ABA is impossible because sequence numbers increase monotonically (by
``capacity`` per wrap).

One consumer per ring, always: an engine pool gives each shard its own
ring and never lets a sibling dequeue from it, so the dequeue cursor is
a plain int with no claim protocol (DESIGN.md §13).
"""

from __future__ import annotations

import time
from typing import Any, Generic, TypeVar

from repro.dst import hooks as _dst
from repro.lockfree.atomics import AtomicCounter

T = TypeVar("T")

#: Placeholder published by a producer that won its enqueue CAS but then
#: observed the queue closed: the ring cell must still be published (the
#: consumer reads cells in strict ticket order), but the value must not
#: be delivered.  A tombstone is never counted as dequeued.
_TOMBSTONE = object()


class QueueFull(Exception):
    """Raised by :meth:`MPSCQueue.enqueue` when the ring has no free slot."""


class QueueClosed(Exception):
    """Raised when enqueueing to a closed queue."""


class MPSCQueue(Generic[T]):
    """Lock-free bounded queue, many producers / one consumer.

    ``capacity`` must be a power of two (mask indexing, as in the C
    original).  ``enqueue`` never blocks: on a full ring it raises
    :class:`QueueFull` so callers can implement backpressure — the
    offload library retries with progress, mirroring how a real
    implementation would flow-control a flooding application thread.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0 or capacity & (capacity - 1):
            raise ValueError("capacity must be a positive power of two")
        self._mask = capacity - 1
        #: cell *i*'s sequence number (published by a GIL-atomic
        #: item store) and value
        self._seqs = list(range(capacity))
        self._vals: list[Any] = [None] * capacity
        self._enqueue_pos = AtomicCounter(0)
        self._dequeue_pos = 0  # single consumer: plain int
        self._closed = False
        self.dequeue_count = 0
        #: deepest the ring has been, read by the consumer at the top of
        #: each drain: occupancy only grows between dequeues, so its
        #: peak is always the depth some drain starts with
        self.occupancy_hwm = 0

    @property
    def capacity(self) -> int:
        return self._mask + 1

    @property
    def cas_failures(self) -> int:
        """Total failed enqueue CAS attempts (a contention metric)."""
        return self._enqueue_pos.cas_failures

    def close(self) -> None:
        """Reject future enqueues; already-queued items remain drainable.

        Closing is half of a two-step teardown protocol: the consumer
        calls ``close()`` and then :meth:`drain_closed`, which collects
        every item whose enqueue ticket was claimed before the drain
        began.  A producer that wins its enqueue CAS concurrently with
        the close re-checks ``closed`` *after* the CAS and publishes a
        tombstone instead of its value, raising :class:`QueueClosed` —
        so every submitted item is either drained exactly once or
        rejected with a typed error, never silently dropped.
        """
        if _dst._scheduler is not None:
            _dst.yield_point("queue.close")
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def enqueue(self, value: T) -> None:
        """Insert ``value``; raises :class:`QueueFull` / :class:`QueueClosed`.

        Lock-free: the loop below only repeats when another producer won
        the CAS race for the same ticket.
        """
        if _dst._scheduler is not None:
            _dst.yield_point("queue.enqueue.closed_check")
        if self._closed:
            raise QueueClosed("command queue is closed")
        ticket = self._enqueue_pos
        seqs = self._seqs
        while True:
            # Relaxed load (``AtomicCounter.load`` minus its lock, same
            # yield point): the CAS below is the atomic step, and a
            # stale ``pos`` fails it or finds ``dif != 0``.
            if _dst._scheduler is not None:
                _dst.yield_point("counter.load")
            pos = ticket._value
            i = pos & self._mask
            dif = seqs[i] - pos
            if dif == 0:
                ok, _ = ticket.compare_and_swap(pos, pos + 1)
                if ok:
                    # This is the close/enqueue race window: the ticket
                    # is claimed but nothing is published yet, so a
                    # concurrent close()+drain_closed() can run here.
                    if _dst._scheduler is not None:
                        _dst.yield_point("queue.enqueue.post_cas")
                    if self._closed:
                        # Lost the race against close(): the consumer's
                        # final drain may already have run, so this cell
                        # might never be read again.  Publish a
                        # tombstone (the ring must stay well-formed) and
                        # reject, rather than lose the item.
                        self._vals[i] = _TOMBSTONE
                        seqs[i] = pos + 1
                        raise QueueClosed(
                            "command queue closed during enqueue"
                        )
                    self._vals[i] = value
                    if _dst._scheduler is not None:
                        _dst.yield_point("queue.enqueue.publish")
                    seqs[i] = pos + 1  # publish
                    return
            elif dif < 0:
                raise QueueFull(
                    f"command queue full (capacity={self.capacity})"
                )
            # dif > 0: another producer advanced the ticket; retry.

    def try_dequeue(self) -> tuple[bool, T | None]:
        """Dequeue one item; returns ``(False, None)`` when empty."""
        out = self.drain(1)
        return (True, out[0]) if out else (False, None)

    def drain(self, limit: int | None = None) -> list[T]:
        """Dequeue up to ``limit`` items (all available when ``None``).

        The one dequeue loop, consumer thread only: a drained batch
        costs one call, not one per command, with a yield point before
        every look at the next cell.  It first notes the ring's depth
        in ``occupancy_hwm``: attribute reads, paid once per batch.
        """
        mask = self._mask
        depth = self._enqueue_pos._value - self._dequeue_pos
        if depth > self.occupancy_hwm:
            self.occupancy_hwm = depth if depth <= mask else mask + 1
        out: list[T] = []
        seqs = self._seqs
        vals = self._vals
        left = -1 if limit is None else limit
        while left:
            if _dst._scheduler is not None:
                _dst.yield_point("queue.dequeue")
            pos = self._dequeue_pos
            i = pos & mask
            if seqs[i] - (pos + 1) != 0:
                break
            value = vals[i]
            vals[i] = None  # drop the reference promptly
            seqs[i] = pos + mask + 1  # recycle the cell
            self._dequeue_pos = pos + 1
            if value is _TOMBSTONE:
                # A producer rejected by a concurrent close() published
                # this placeholder; nothing was enqueued.
                continue
            self.dequeue_count += 1
            out.append(value)
            left -= 1
        return out

    def drain_closed(self, spin_timeout: float = 1.0) -> list[T]:
        """Final drain after :meth:`close`: every committed item.

        Snapshots the enqueue ticket *after* the close, so it covers
        every producer that won its CAS before this call.  A producer
        inside the few-instruction window between winning the CAS and
        publishing its cell is waited out (bounded by ``spin_timeout``
        as a wedged-producer backstop); tombstones from producers that
        observed the close are skipped by ``try_dequeue``.
        """
        assert self._closed, "drain_closed() requires close() first"
        if _dst._scheduler is not None:
            _dst.yield_point("queue.drain.snapshot")
        end = self._enqueue_pos.load()
        out: list[T] = []
        deadline: float | None = None
        while self._dequeue_pos < end:
            ok, value = self.try_dequeue()
            if ok:
                out.append(value)  # type: ignore[arg-type]
                deadline = None
                continue
            if self._dequeue_pos >= end:
                break
            # Claimed but not yet published: publication is imminent.
            if _dst.is_virtual_thread():
                # Under DST the wall clock is meaningless (a parked
                # producer can sit unpublished for arbitrarily many
                # scheduler steps); block on the cell's publication
                # instead of spinning — a blocked thread is not a
                # schedule branch point, so exhaustive exploration
                # stays finite.  Every claimed ticket publishes a
                # value or a tombstone, so this cannot deadlock.
                pos = self._dequeue_pos
                seqs, i = self._seqs, pos & self._mask
                want = pos + 1
                _dst.wait_until(lambda: seqs[i] == want)
                continue
            now = time.perf_counter()
            if deadline is None:
                deadline = now + spin_timeout
            elif now > deadline:  # pragma: no cover - wedged producer
                break
            time.sleep(0)
        return out

    def __len__(self) -> int:
        """Cells between the two cursors (exact when producers are
        quiescent): a claimed ticket counts before it is published, a
        close-time tombstone until the consumer has passed it.

        The dequeue side is read *first*: between the two reads the
        single consumer can only drain further, so reading it second
        would transiently under-report.  Read this way the result is an
        over-estimate during races, clamped to the ring's structural
        bounds.
        """
        dequeued = self._dequeue_pos
        n = self._enqueue_pos.load() - dequeued
        return max(0, min(n, self.capacity))

    def empty(self) -> bool:
        """Nothing more will surface: no cell claimed and unconsumed."""
        return len(self) == 0
