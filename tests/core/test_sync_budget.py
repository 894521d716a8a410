"""Synchronisation-object budget of the offloaded small-message path.

The paper's done flag is one memory word and its request a pre-allocated
slot (§3.1); a ``threading.Event`` is a ``Condition``, a mutex and a
waiter deque.  These tests count constructions, not time: every
``threading.Condition()`` (which ``Event()`` also goes through) made
anywhere in the process while a warmed ``isend``/``irecv``/``wait``
window runs on two ranks — application threads and engine threads
alike — and while a request pool is built.
"""

import threading

import numpy as np
import pytest

from repro.core import offloaded
from repro.core.request_pool import OffloadRequestPool

from tests.conftest import run_world_mt

_WINDOW = 50
_MESSAGES = 1_000


@pytest.fixture
def conditions(monkeypatch):
    """Names of the threads that construct a ``Condition`` while
    ``made.counting`` is on."""

    class Made(list):
        counting = False

    made = Made()
    init = threading.Condition.__init__

    def counted(self, *args, **kwargs):
        if made.counting:
            made.append(threading.current_thread().name)
        init(self, *args, **kwargs)

    monkeypatch.setattr(threading.Condition, "__init__", counted)
    return made


def _exchange(oc, peer: int, n: int) -> None:
    out = np.arange(64, dtype=np.uint8)
    into = np.empty((_WINDOW, 64), dtype=np.uint8)
    for base in range(0, n, _WINDOW):
        reqs = [
            oc.irecv(into[i], peer, tag=base + i) for i in range(_WINDOW)
        ]
        reqs += [oc.isend(out, peer, tag=base + i) for i in range(_WINDOW)]
        for req in reqs:
            req.wait(timeout=30)
        assert (into == out).all()
        into[:] = 0


def test_counter_sees_an_event(conditions):
    conditions.counting = True
    threading.Event()
    assert conditions == [threading.current_thread().name]


def test_no_condition_per_offloaded_message(conditions):
    gate = threading.Barrier(2)

    def prog(comm):
        peer = 1 - comm.rank
        with offloaded(comm, pool_size=1) as oc:
            _exchange(oc, peer, 2 * _WINDOW)  # warm: caches, lazy imports
            gate.wait(30)
            conditions.counting = True
            gate.wait(30)
            _exchange(oc, peer, _MESSAGES)
            gate.wait(30)
            conditions.counting = False
        return True

    assert run_world_mt(2, prog) == [True, True]
    assert conditions == [], (
        f"{len(conditions) / _MESSAGES:.1f} Condition(s) per message, "
        f"constructed on {sorted(set(conditions))}"
    )


def test_request_pool_builds_no_condition_per_slot(conditions):
    conditions.counting = True
    OffloadRequestPool(4096)
    assert conditions == []
