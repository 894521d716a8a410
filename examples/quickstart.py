#!/usr/bin/env python
"""Quickstart: MPI software offloading in five minutes.

Demonstrates the library's central idea end to end:

1. run an SPMD program on an in-process MPI world;
2. wrap the communicator with the paper's offload engine (no changes
   to the application code);
3. show the offload thread providing asynchronous progress: a
   rendezvous-sized transfer completes *while the application
   computes*, which never happens without a progress context.

Run:  python examples/quickstart.py
"""

import sys
import time

import numpy as np

from repro import obs
from repro.core import offloaded
from repro.mpisim import THREAD_MULTIPLE, World
from repro.util.timing import busy_spin
from repro.util.units import MIB

#: above the 128 KB eager threshold -> rendezvous protocol
MESSAGE_BYTES = 8 * MIB


def exchange(comm, label):
    """Post a ring exchange, 'compute', then report when data moved."""
    n = comm.size
    right, left = (comm.rank + 1) % n, (comm.rank - 1) % n
    send = np.full(MESSAGE_BYTES, comm.rank, dtype=np.uint8)
    recv = np.empty(MESSAGE_BYTES, dtype=np.uint8)

    rreq = comm.irecv(recv, left, tag=1)
    sreq = comm.isend(send, right, tag=1)
    busy_spin(0.08)  # application compute; no MPI calls in here
    done_during_compute = rreq.done and sreq.done
    rreq.wait()
    sreq.wait()
    assert recv[0] == left, "wrong neighbor data!"
    if comm.rank == 0:
        verdict = "DURING compute" if done_during_compute else "in wait()"
        print(f"  {label:28s} transfer completed {verdict}")
    return done_during_compute


def program(comm):
    if comm.rank == 0:
        print(f"world of {comm.size} ranks, {MESSAGE_BYTES >> 20} MB "
              "ring exchange (rendezvous protocol)\n")

    # --- baseline: nobody drives progress during compute -------------
    baseline = exchange(comm, "baseline (no progress):")

    # --- offload: the paper's dedicated communication thread ----------
    # the engine's counters are always on (see repro.obs)
    with offloaded(comm) as ocomm:
        offload = exchange(ocomm, "offload thread (paper §3):")
        # the offloaded communicator is a drop-in replacement:
        total = ocomm.allreduce(np.array([float(ocomm.rank)]))
        snap = ocomm.engine.telemetry_snapshot()
        stats = ocomm.engine.stats()

    if comm.rank == 0:
        n = comm.size
        print(f"\n  allreduce over ranks: {total[0]:.0f} "
              f"(expected {n * (n - 1) // 2})")
        print(f"  offload engine stats: "
              f"{stats['commands_processed']} commands, "
              f"{stats['progress_sweeps']} progress sweeps")
    return (baseline, offload, snap)


def main():
    # finer GIL slices let the offload thread act like a dedicated core
    sys.setswitchinterval(1e-4)
    results = World(2, thread_level=THREAD_MULTIPLE).run(
        program, timeout=120
    )
    baseline_any = any(r[0] for r in results)
    offload_all = all(r[1] for r in results)
    print("\nsummary:")
    print(f"  baseline overlapped anywhere: {baseline_any}")
    print(f"  offload overlapped on every rank: {offload_all}")

    # merged engine telemetry: sweeps > 0 proves the §3.2 Testany loop
    # ran during compute; the balance line proves every command that
    # was enqueued got drained and completed by shutdown.
    merged = obs.merge([r[2] for r in results])
    print()
    print(obs.render(merged, title="offload engine telemetry"))
    assert merged["counters"]["testany_sweeps"] > 0
    assert obs.check_balance(merged)[0], "telemetry counters imbalanced"


if __name__ == "__main__":
    main()
