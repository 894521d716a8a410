"""Blocking waits park until a doorbell rings (DESIGN.md §17).

``Request.wait``, ``waitall``, ``waitany`` and the blocking ``probe``
pump and look once; on a miss they park on a bell every engine
involved rings after each arrival and each completion.  Asserted by
counting the caller's parks, not by clocks: the safety tick is
stretched to seconds, so a wait that polled — or that missed a ring
and slept the tick out — shows as many parks or as a timeout.
"""

import time

import numpy as np
import pytest

from repro.mpisim import waitall, waitany

from tests.conftest import run_world

#: how late the arrival is; far above one pump, far below the tick
LATE = 0.05
#: parks allowed for one late arrival: the ring, plus one stray wake
PARKS = 3


def _late_sender(comm, tags) -> None:
    time.sleep(LATE)
    for tag in tags:
        comm.send(np.full(4, tag, dtype=np.int64), 0, tag=tag)


@pytest.mark.parametrize("wait", ["wait", "waitall", "waitany", "probe"])
def test_late_arrival_costs_a_few_parks(parks, wait):
    def prog(comm):
        if comm.rank == 1:
            _late_sender(comm, [7])
            return None
        buf = np.zeros(4, dtype=np.int64)
        before = parks.of_current_thread()
        if wait == "probe":
            st = comm.probe(1, 7, timeout=30)
            comm.recv(buf, 1, 7)
        else:
            req = comm.irecv(buf, 1, tag=7)
            if wait == "wait":
                st = req.wait(timeout=30)
            elif wait == "waitall":
                (st,) = waitall([req], timeout=30)
            else:
                _, st = waitany([req], timeout=30)
        n = parks.of_current_thread() - before
        return st.tag, int(buf[0]), n, comm.engine._doorbells

    tag, value, n, bells = run_world(2, prog)[0]
    assert (tag, value) == (7, 7)
    assert 1 <= n <= PARKS, f"{n} parks for one late arrival"
    assert bells == ()  # the waiter took its bell back


def test_waitall_parks_once_per_arrival(parks):
    def prog(comm):
        if comm.rank == 1:
            _late_sender(comm, [1, 2, 3])
            return None
        bufs = [np.zeros(4, dtype=np.int64) for _ in range(3)]
        reqs = [comm.irecv(b, 1, tag=i + 1) for i, b in enumerate(bufs)]
        before = parks.of_current_thread()
        waitall(reqs, timeout=30)
        return [int(b[0]) for b in bufs], parks.of_current_thread() - before

    values, n = run_world(2, prog)[0]
    assert values == [1, 2, 3]
    assert 1 <= n <= 3 * PARKS, f"{n} parks for three late arrivals"


def test_timeout_takes_the_bell_back():
    def prog(comm):
        buf = np.zeros(1, dtype=np.int64)
        req = comm.irecv(buf, 0, tag=9)  # never sent
        with pytest.raises(TimeoutError):
            req.wait(timeout=0.01)
        with pytest.raises(TimeoutError):
            comm.probe(0, 9, timeout=0.01)
        left = comm.engine._doorbells
        req.cancel()
        return left

    assert run_world(1, prog) == [()]
