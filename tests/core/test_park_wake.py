"""Park/wake protocol of the engine loop (DESIGN.md §17).

The loop parks on ``_wake`` at the end of every iteration — with or
without operations in flight — and every hand-off rings it:
``submit``, ``ProgressEngine.inject`` and ``Request._complete/_fail``
for requests the rank owns.  The tick (``engine._TICK``) is a safety
net, never the carrier of a hand-off.

These tests are counter-based, not wall-clock.  Where a missed doorbell
must show, the tick is stretched to seconds: a forgotten ring then
surfaces as ``timed_wakes > 0`` (work found by the timer instead of a
doorbell) rather than as a latency one would have to eyeball.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import EnginePool, OffloadRequest, offload_waitany, offloaded
from repro.core import engine as engine_mod
from repro.core.commands import Command, CommandKind

from tests.conftest import run_world_mt

_RNDV = 1 << 20  # above the eager threshold


@pytest.fixture
def slow_tick(monkeypatch):
    """Stretch the safety tick so that only doorbells can carry a
    hand-off inside a test's lifetime."""
    monkeypatch.setattr(engine_mod, "_TICK", 5.0)


def _wakes(engine) -> tuple[int, int]:
    return engine.doorbell_wakes, engine.timed_wakes


def _posted(engine) -> bool:
    """Does ``engine`` hold a posted receive (not merely a queued one)?"""
    return any(p.startswith("irecv") for p in engine.pending_work())


def _settle(predicate, budget: float = 10.0) -> None:
    deadline = time.perf_counter() + budget
    while not predicate():
        assert time.perf_counter() < deadline, "engine never settled"
        time.sleep(1e-3)


class TestPark:
    def test_unmatched_irecv_costs_at_most_the_tick_rate(self):
        """One unmatched receive in flight: the loop sleeps through it.
        The polling loop it replaces spun tens of thousands of times in
        the same window."""

        def prog(comm):
            with offloaded(comm, pool_size=1, telemetry=True) as oc:
                engine = oc.engine.route()
                req = oc.irecv(np.empty(8, dtype=np.uint8), 0, tag=3)
                _settle(lambda: _posted(engine))
                beats0 = engine.heartbeat
                pumps0 = comm.engine.progress_calls
                t0 = time.perf_counter()
                time.sleep(0.3)
                elapsed = time.perf_counter() - t0
                beats = engine.heartbeat - beats0
                pumps = comm.engine.progress_calls - pumps0
                oc.send(np.arange(8, dtype=np.uint8), 0, tag=3)
                req.wait(timeout=30)
            return beats, pumps, elapsed

        (beats, pumps, elapsed), = run_world_mt(1, prog)
        ceiling = elapsed / engine_mod._TICK * 1.5 + 10
        assert 1 <= beats <= ceiling, (beats, ceiling)
        assert pumps <= ceiling, (pumps, ceiling)


@pytest.mark.usefixtures("slow_tick")
class TestDoorbells:
    def test_rendezvous_served_without_a_tick(self):
        """RTS into a parked receiver, CTS into a parked sender, and
        the receive completed from the sender's engine thread: three
        hand-offs, no timer."""

        def prog(comm):
            with offloaded(comm, pool_size=1, telemetry=True) as oc:
                engine = oc.engine.route()
                if comm.rank == 0:
                    buf = np.empty(_RNDV, dtype=np.uint8)
                    req = oc.irecv(buf, 1, tag=5)
                    req.wait(timeout=30)
                    got = int(buf[0]), int(buf[-1])
                else:
                    time.sleep(0.1)  # rank 0 parks on the posted recv
                    oc.send(np.full(_RNDV, 7, dtype=np.uint8), 0, tag=5)
                    got = None
                return got, _wakes(engine)

        (got, wakes0), (_, wakes1) = run_world_mt(2, prog)
        assert got == (7, 7)
        for rung, timed in (wakes0, wakes1):
            assert timed == 0
            assert rung >= 1

    def test_senders_thread_completion_wakes_receiver(self):
        """The sender has no engine: its application thread handles the
        CTS and completes the *receiver's* request.  After the RTS the
        receiver gets no further arrival, so only ``Request._complete``
        ringing the owner's bells can wake its parked loop."""

        def prog(comm):
            if comm.rank == 1:
                time.sleep(0.1)
                comm.send(np.full(_RNDV, 9, dtype=np.uint8), 0, tag=6)
                return None
            with offloaded(comm, pool_size=1, telemetry=True) as oc:
                buf = np.empty(_RNDV, dtype=np.uint8)
                oc.irecv(buf, 1, tag=6).wait(timeout=30)
                return int(buf[-1]), _wakes(oc.engine.route())

        (last, (rung, timed)), _ = run_world_mt(2, prog)
        assert last == 9
        assert timed == 0
        assert rung >= 2  # the RTS arrival, then the remote completion

    def test_sibling_shard_completion_wakes_owner(self):
        """Two shards share one progress engine.  The arrival is
        published without a ring and only the sibling is woken: it
        drains the shared inbox and completes a receive the *other*
        shard tracks, which must hear of it through the request."""

        def prog(comm):
            progress = comm.engine
            with EnginePool(comm, pool_size=2, telemetry=True) as pool:
                owner, sibling = pool.engines
                buf = np.empty(8, dtype=np.uint8)
                slot = pool.pool.alloc()
                handle = OffloadRequest(pool.pool, slot)
                owner.submit(
                    Command(
                        kind=CommandKind.IRECV,
                        slot=slot,
                        comm=comm,
                        buf=buf,
                        peer=0,
                        tag=7,
                    )
                )
                _settle(lambda: _posted(owner))
                progress.inject = progress._inbox.append  # no ring
                try:
                    comm.isend(np.arange(8, dtype=np.uint8), 0, tag=7)
                finally:
                    del progress.inject
                sibling._wake.set()
                handle.wait(timeout=30)
                return buf.tolist(), _wakes(owner), sibling.completions

        (data, (rung, timed), sibling_done), = run_world_mt(1, prog)
        assert data == list(range(8))
        assert sibling_done == 0  # the sibling tracked nothing itself
        assert timed == 0
        assert rung >= 1


class TestFacadeWaits:
    def test_waitany_is_rung_by_any_handle(self, parks):
        """Two pending handles; the second completes from a timer about
        50 ms later.  One bell parked on both done words is rung by it,
        where a park on the first handle alone wakes once per slice."""

        def prog(comm):
            with offloaded(comm, pool_size=1) as oc:
                bufs = [np.zeros(1, dtype=np.int64) for _ in range(2)]
                handles = [oc.irecv(b, 0, tag=i) for i, b in enumerate(bufs)]
                late = threading.Timer(
                    0.05, oc.send, (np.full(1, 5, dtype=np.int64), 0, 1)
                )
                late.start()
                before = parks.of_current_thread()
                idx, _ = offload_waitany(handles, timeout=30)
                n = parks.of_current_thread() - before
                late.join(30)
                oc.send(np.zeros(1, dtype=np.int64), 0, 0)
                handles[0].wait(timeout=30)
                return idx, int(bufs[1][0]), n

        (idx, value, n), = run_world_mt(1, prog)
        assert (idx, value) == (1, 5)
        assert 1 <= n <= 2, f"{n} parks"

    def test_probe_costs_one_command_per_arrival(self, parks):
        """The facade's blocking probe parks between IPROBE commands on
        a bell its rank's progress engine rings: a late arrival costs a
        few commands, not one every few microseconds."""

        def prog(comm):
            with offloaded(comm, pool_size=1) as oc:
                if comm.rank == 1:
                    time.sleep(0.05)
                    oc.send(np.arange(4, dtype=np.int64), 0, tag=8)
                    return None
                engine = oc.engine.route()
                before = engine.commands_processed
                st = oc.probe(1, 8, timeout=30)
                probes = engine.commands_processed - before
                buf = np.zeros(4, dtype=np.int64)
                oc.recv(buf, 1, 8)
                return st.tag, buf.tolist(), probes

        (tag, data, probes), _ = run_world_mt(2, prog)
        assert (tag, data) == (8, [0, 1, 2, 3])
        assert 1 <= probes <= 4, f"{probes} IPROBE commands"
