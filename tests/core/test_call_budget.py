"""Call budget of the offloaded small message (DESIGN.md §19, §20).

The small-message workloads are interpreter-bound: what a message
costs is the Python executed for it.  These tests count it — ``call``
and ``c_call`` profile events on every thread, application and engine
alike, over 15 warmed windows of 64 pre-posted ``irecv`` / ``isend`` +
``wait`` (``repro.bench.call_budget``) — and hold it to a budget: in
absolute terms, per side (so a failure says which side regressed),
and against the plain communicator counted the same way in the same
test.  Counts repeat to within a call per message from run to run,
which timings on a shared box do not.

History, calls per message offloaded (application + engine threads;
plain): 207.3 (98.4 + 109.0; 79.1) before the budget existed → 149.6
(72.3 + 77.4; 74.0) with it → 90.8 (39.3 + 51.4; 60.8) after the
offload tax was halved (DESIGN.md §20), which also brought the engine
loop's idle iteration from 20 calls to 5.
"""

import dis
import sys
import threading
import time
from collections import Counter

import pytest

from repro.bench.call_budget import ENGINE_THREAD, Hook, measure
from repro.core import EnginePool, offloaded
from repro.core.commands import Command, CommandKind
from repro.core.engine_pool import ShardRouter
from repro.dst.targets import _FakeComm
from repro.mpisim import THREAD_FUNNELED, World

#: calls per message (one isend, one irecv, two waits), both ranks
BUDGET = 115
#: ... of which on the application threads and on the engine threads
APP_BUDGET = 48
ENGINE_BUDGET = 66
#: ... the same exchange through the plain communicator
PLAIN_BUDGET = 64
#: ... and offloaded as a multiple of plain
RATIO = 1.85
#: calls per message with telemetry on: the switch only files a final
#: snapshot, so the message path is the same code (DESIGN.md §9)
TELEMETRY_BUDGET = BUDGET
#: calls per engine-loop iteration that finds nothing to do
IDLE_BUDGET = 8
#: calls per ``EnginePool.route(cmd)`` of a stream pinned earlier:
#: ``route``, ``pinned``, ``stream_key``
ROUTE_HIT_BUDGET = 3


@pytest.fixture(scope="module")
def counts():
    return measure(offload=True), measure(offload=False)


def _detail(offload, plain) -> str:
    return (
        f"\noffloaded: {offload.report()}\nplain: {plain.report(top=0)}"
    )


def _per_msg(count, side: str) -> float:
    return sum(getattr(count, side).values()) / count.messages


def test_offloaded_message_stays_inside_its_call_budget(counts):
    offload, plain = counts
    assert offload.per_msg <= BUDGET, _detail(offload, plain)


def test_each_side_stays_inside_its_share_of_the_budget(counts):
    offload, plain = counts
    assert _per_msg(offload, "app") <= APP_BUDGET, _detail(offload, plain)
    assert _per_msg(offload, "engine") <= ENGINE_BUDGET, _detail(
        offload, plain
    )


def test_plain_communicator_stays_inside_its_call_budget(counts):
    offload, plain = counts
    assert plain.per_msg <= PLAIN_BUDGET, f"\nplain: {plain.report()}"


def test_offload_costs_at_most_twice_the_plain_communicator(counts):
    offload, plain = counts
    assert offload.per_msg <= RATIO * plain.per_msg, _detail(offload, plain)


def test_telemetry_keeps_no_second_set_of_counters():
    """The switch changes nothing on the message path: every counter
    is an attribute bumped in place, so no frame of ``obs/counters.py``
    runs on any thread, and the message costs what it costs with the
    switch off."""
    traced = measure(offload=True, telemetry=True)
    mirror = {
        name: calls
        for name, calls in (traced.app + traced.engine).items()
        if name.startswith("counters.py:")
    }
    assert not mirror, mirror
    assert traced.per_msg <= TELEMETRY_BUDGET, traced.report()


def test_one_substrate_entry_per_drained_run(counts):
    """The engine enters the substrate once per drained run of p2p
    commands, not once per command: a window of 64 is a few entries."""
    offload, _ = counts
    assert offload.commands >= offload.messages  # >= one command each
    assert 0 < offload.entries_per_cmd < 0.1, (
        f"{offload.substrate_entries} substrate entries for "
        f"{offload.commands} commands"
    )


def test_one_envelope_and_one_copy_per_message(counts):
    """Fewer calls, the same work: one payload envelope and one
    send-time copy per message, plus each window's token."""
    for count in counts:
        assert 1.0 <= count.envelopes / count.messages <= 1.05
        assert 1.0 <= count.copies / count.messages <= 1.05


def test_a_look_that_finds_nothing_costs_nothing():
    """An idle ``offloaded()`` engine, woken only by its safety tick,
    makes a handful of calls per loop iteration (clear, park, and their
    lock calls): every look at an empty ring, an empty inbox, no flush
    and no deadline is an inline test (DESIGN.md §20, rule 6)."""
    ticks = 30
    hook = Hook()
    beats = []

    def prog(comm):
        with offloaded(comm, telemetry=False, pool_size=1) as c:
            (engine,) = c.engine.engines
            time.sleep(0.01)  # past start-up: parked on its doorbell
            start = engine.heartbeat
            deadline = time.monotonic() + 30.0
            hook.on = True
            while engine.heartbeat - start < ticks:
                assert time.monotonic() < deadline, "engine loop stalled"
                time.sleep(1e-3)
            hook.on = False
            beats.append(engine.heartbeat - start)
        return True

    profile = threading.getprofile()
    threading.setprofile(hook)  # inherited by the engine thread
    try:
        World(1, thread_level=THREAD_FUNNELED).run(prog, timeout=120)
    finally:
        threading.setprofile(profile)
    engine = Counter()
    for name, calls in hook.by_thread.items():
        if name.startswith(ENGINE_THREAD):
            engine.update(calls)
    per_iteration = sum(engine.values()) / beats[0]
    assert per_iteration <= IDLE_BUDGET, (
        f"{per_iteration:.1f} calls per idle iteration over {beats[0]} "
        f"iterations: {engine.most_common(12)}"
    )


def _unstarted_pool() -> EnginePool:
    return EnginePool(
        _FakeComm(),
        pool_size=2,
        pool_capacity=8,
        queue_capacity=16,
        telemetry=False,
    )


def test_a_routed_stream_is_a_dictionary_hit():
    """Routing a command of a stream the pool pinned earlier costs the
    three calls of ``ROUTE_HIT_BUDGET`` — the route itself, one stream
    key, one dictionary look, with no periodic tick on the way — and,
    on any interpreter, one C function: the ``id`` in the key."""
    routes = 64
    pool = _unstarted_pool()
    cmd = Command(
        CommandKind.ISEND, comm=_FakeComm(), peer=1, tag=7, slot=0
    )
    first = pool.route(cmd)  # pins the stream
    hook = Hook()
    profile = sys.getprofile()
    sys.setprofile(hook)
    try:
        hook.on = True
        for _ in range(routes):
            engine = pool.route(cmd)
        hook.on = False
    finally:
        sys.setprofile(profile)
    assert engine is first
    (calls,) = hook.by_thread.values()
    assert calls.pop("id") == routes
    assert sum(calls.values()) <= ROUTE_HIT_BUDGET * routes, calls


def test_the_sticky_hit_builds_no_list():
    """The live ``candidates`` are built on a miss or a dead shard
    (``_place``), never on the way to a pinned live shard."""
    for fn in (EnginePool.route, ShardRouter.pinned, ShardRouter.stream_key):
        ops = {ins.opname for ins in dis.get_instructions(fn)}
        assert not ops & {"BUILD_LIST", "LIST_APPEND", "LIST_EXTEND"}, fn
        nested = [
            c.co_name for c in fn.__code__.co_consts if hasattr(c, "co_name")
        ]
        assert not nested, (fn, nested)
