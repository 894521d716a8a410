"""What one thread-to-thread hand-off costs, by where the threads sit.

ROADMAP item 5, "ranks without a shared GIL" — the half of that probe
this box allows: two threads of one interpreter pass one word back and
forth, parking on a :class:`~repro.lockfree.atomics.Doorbell` (how the
engine loop waits) or on a :class:`~repro.lockfree.atomics.DoneWord`
park (how an application thread waits for a done flag), with both
threads on one CPU, on two CPUs, or unbound.  After each ring the
ringer runs ``work`` iterations of an empty loop before it parks: 0 is
a blocking caller, 200 an ``isend`` whose caller goes on computing and
makes the wakee wait for the GIL.

Prints wall µs and process-CPU µs per hand-off (median of the
repetitions).  Advisory — never gated; DESIGN.md §21 reads the table.

    python benchmarks/probe_handoff.py
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.lockfree.atomics import AtomicFlag, Doorbell  # noqa: E402
from repro.mpisim.world import thread_cpus  # noqa: E402

TRIPS = 20000  # round trips per run
REPS = 3  # runs per cell; the median is printed


class _BellSide:
    """One thread's end of a Doorbell ping-pong."""

    def __init__(self) -> None:
        self.bell = Doorbell()

    def ring(self) -> None:
        self.bell.set()

    def wait(self) -> None:
        bell = self.bell
        while not bell.wait(1.0):
            pass
        bell.clear()


class _WordSide:
    """One thread's end of a DoneWord ping-pong."""

    def __init__(self) -> None:
        self.flag = AtomicFlag()

    def ring(self) -> None:
        self.flag.set()

    def wait(self) -> None:
        self.flag.wait()
        self.flag.clear()


def _pingpong(side_cls, cpus, work: int) -> tuple[float, float]:
    """(wall µs, CPU µs) per hand-off; ``cpus`` = one mask per thread."""
    mine, peer = side_cls(), side_cls()
    ready = threading.Barrier(2)

    def bind(mask) -> None:
        if mask is not None:
            os.sched_setaffinity(0, mask)
        ready.wait()

    def echo() -> None:
        bind(cpus[1])
        for _ in range(TRIPS):
            peer.wait()
            mine.ring()
            for _ in range(work):
                pass

    def drive(out: list) -> None:
        bind(cpus[0])
        c0, t0 = time.process_time(), time.perf_counter()
        for _ in range(TRIPS):
            peer.ring()
            for _ in range(work):
                pass
            mine.wait()
        out += [time.perf_counter() - t0, time.process_time() - c0]

    out: list[float] = []
    threads = [
        threading.Thread(target=echo, daemon=True),
        threading.Thread(target=drive, args=(out,), daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    if len(out) != 2:
        raise RuntimeError("hand-off probe stalled")
    handoffs = 2 * TRIPS
    return out[0] / handoffs * 1e6, out[1] / handoffs * 1e6


def main() -> int:
    launch = thread_cpus() or []
    placements = [("unbound", (None, None))]
    if launch:
        placements.append(("same CPU", ({launch[0]}, {launch[0]})))
    if len(launch) > 1:
        placements.append(("two CPUs", ({launch[0]}, {launch[1]})))
    print(f"launch mask {launch or 'n/a'}, {TRIPS} round trips, "
          f"median of {REPS}")
    print(f"{'wait':10s} {'placement':10s} {'work':>5s} "
          f"{'us/hand-off':>12s} {'cpu-us/hand-off':>16s}")
    for name, side in (("Doorbell", _BellSide), ("DoneWord", _WordSide)):
        for label, cpus in placements:
            for work in (0, 200):
                runs = [_pingpong(side, cpus, work) for _ in range(REPS)]
                wall = statistics.median(r[0] for r in runs)
                cpu = statistics.median(r[1] for r in runs)
                print(f"{name:10s} {label:10s} {work:5d} "
                      f"{wall:12.1f} {cpu:16.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
