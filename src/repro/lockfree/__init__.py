"""Lock-free data structures used by the MPI offload engine.

The paper (Section 3.3) converts the offload thread's command queue and
the pool of ``MPI_Request`` objects into lock-free structures using
atomic operations, so many application threads can issue MPI calls
concurrently without mutual exclusion in the MPI library.

CPython has no public compare-and-swap, so :mod:`repro.lockfree.atomics`
provides CAS cells whose individual operations are made atomic with a
per-cell lock.  The *algorithms* built on top (Vyukov bounded queue,
tagged Treiber free list) are the genuine lock-free algorithms: no
thread ever holds a lock across another structure operation, every
operation is a bounded sequence of atomic steps, and contention shows
up as CAS retries (which the cells count), exactly as it would on real
hardware.
"""

from repro.lockfree.atomics import (
    AtomicCell,
    AtomicCounter,
    AtomicFlag,
    Doorbell,
)
from repro.lockfree.mpsc_queue import MPSCQueue, QueueClosed, QueueFull
from repro.lockfree.freelist import FreeList, FreeListExhausted

__all__ = [
    "AtomicCell",
    "AtomicCounter",
    "AtomicFlag",
    "Doorbell",
    "MPSCQueue",
    "QueueClosed",
    "QueueFull",
    "FreeList",
    "FreeListExhausted",
]
