"""The placement contract of ``World.run`` (DESIGN.md §21).

The rank of a one-rank world binds itself to the first CPU of the
launch mask and everything it spawns inherits that CPU; ranks of a
larger world keep the launch mask (bound apart, a hand-off between them
has one CPU to wake and no other to fall back on); the launching
thread's mask is never touched; a platform that refuses runs unbound.

CI also runs this file under ``taskset -c 0``: every expectation is
derived from the mask the test process actually has.
"""

import os
import threading
import warnings

import numpy as np
import pytest

from repro.core import EnginePool, OffloadCommunicator, offloaded
from repro.core.commself import CommSelfProgressThread
from repro.core.recovery import OffloadStopTimeout
from repro.core.thread_groups import ThreadGroupRunner, make_thread_comms
from repro.mpisim.constants import THREAD_MULTIPLE
from repro.mpisim.exceptions import WorldError
from repro.mpisim.world import World

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"),
    reason="platform has no sched_setaffinity",
)


def _mask():
    return os.sched_getaffinity(0)


def _mask_of(thread: threading.Thread):
    return os.sched_getaffinity(thread.native_id)


def _on_narrowed_thread(cpu, fn):
    """Run ``fn()`` on a helper thread whose mask is ``{cpu}`` — what an
    outer ``taskset -c cpu`` gives a launcher — and return its result
    (the test process keeps its own mask)."""
    out = []

    def launcher():
        os.sched_setaffinity(0, {cpu})
        out.append(fn())

    t = threading.Thread(target=launcher)
    t.start()
    t.join(30)
    (result,) = out
    return result


@pytest.fixture
def launch_mask():
    """The launching thread's mask; asserted unchanged on the way out."""
    before = _mask()
    yield before
    assert _mask() == before


def test_a_lone_rank_runs_on_the_first_cpu(launch_mask):
    world = World(1)
    assert world.binding is None  # nothing launched yet
    assert world.run(lambda comm: _mask()) == [{min(launch_mask)}]
    assert world.binding == [min(launch_mask)]


@pytest.mark.parametrize("nranks", [2, 5])
def test_ranks_of_a_larger_world_keep_the_launch_mask(launch_mask, nranks):
    world = World(nranks)
    assert world.run(lambda comm: _mask()) == [launch_mask] * nranks
    assert world.binding is None


@pytest.mark.parametrize("nranks", [1, 2])
def test_everything_a_rank_spawns_inherits_its_mask(launch_mask, nranks):
    def prog(comm):
        mine = _mask()
        seen = {}
        with offloaded(comm) as oc:
            (engine,) = oc.engine.engines
            seen["engine"] = _mask_of(engine._thread)
            seen["engine.cpus"] = set(engine.cpus)
        with offloaded(comm, pool_size=2) as oc:
            for i, shard in enumerate(oc.engine.engines):
                seen[f"shard{i}"] = _mask_of(shard._thread)
                seen[f"shard{i}.cpus"] = set(shard.cpus)
        with CommSelfProgressThread(comm) as pt:
            seen["comm-self"] = _mask_of(pt._thread)
        t = threading.Thread(target=lambda: seen.update(spawned=_mask()))
        t.start()
        t.join(10)
        group = ThreadGroupRunner(make_thread_comms(comm, 2)).run(
            lambda tid, c: _mask()
        )
        seen.update({f"group{i}": m for i, m in enumerate(group)})
        return mine, seen

    world = World(nranks, thread_level=THREAD_MULTIPLE)
    for rank, (mine, seen) in enumerate(world.run(prog)):
        assert mine == ({world.binding[0]} if nranks == 1 else launch_mask)
        assert len(seen) == 10
        for who, mask in seen.items():
            assert mask == mine, (rank, who)


def test_snapshot_says_where_the_engine_ran(launch_mask):
    def prog(comm):
        with offloaded(comm, pool_size=2) as oc:
            return (
                oc.engine.telemetry_snapshot()["cpus"],
                [e.telemetry_snapshot()["cpus"] for e in oc.engine.engines],
            )

    world = World(1, thread_level=THREAD_MULTIPLE)
    ((merged, shards),) = world.run(prog)
    assert merged == world.binding
    assert shards == [merged, merged]
    for merged, shards in World(2, thread_level=THREAD_MULTIPLE).run(prog):
        assert merged == sorted(launch_mask)
        assert shards == [merged, merged]


@pytest.mark.parametrize("nranks", [1, 2])
def test_launch_mask_survives_a_raising_rank(launch_mask, nranks):
    def prog(comm):
        if comm.rank == nranks - 1:
            raise ValueError("boom")
        return _mask()

    with pytest.raises(WorldError) as info:
        World(nranks).run(prog)
    assert isinstance(info.value.failures[nranks - 1], ValueError)


def test_timeout_names_the_ranks_cpu(launch_mask):
    release = threading.Event()
    world = World(1)
    try:
        with pytest.raises(WorldError) as info:
            world.run(lambda comm: release.wait(30), timeout=0.2)
    finally:
        release.set()
    msg = str(info.value.failures[0])
    assert f"rank 0 (CPU {world.binding[0]}) did not finish" in msg


def test_stop_timeout_names_the_engines_cpu(launch_mask):
    def prog(comm):
        oc = OffloadCommunicator(comm, EnginePool(comm).start())
        (engine,) = oc.engine.engines
        # a receive nobody sends to: a clean stop is impossible
        oc.irecv(np.empty(1), 0, tag=99)
        with pytest.raises(OffloadStopTimeout) as info:
            engine.stop(timeout=0.2)
        engine.abort("test teardown")
        return str(info.value)

    world = World(1)
    (msg,) = world.run(prog)
    assert f"rank 0 (CPUs [{world.binding[0]}]) failed to stop" in msg


@pytest.mark.parametrize("nranks", [1, 3])
def test_narrowed_launch_mask_puts_every_rank_on_it(launch_mask, nranks):
    """The launch mask is honoured as it is."""
    one = max(launch_mask)

    def launch():
        world = World(nranks)
        return world.run(lambda comm: _mask()), world.binding, _mask()

    masks, binding, after = _on_narrowed_thread(one, launch)
    assert masks == [{one}] * nranks and after == {one}
    assert binding == ([one] if nranks == 1 else None)


def _refuse(calls):
    def sched_setaffinity(pid, mask):
        calls.append(threading.current_thread())
        raise OSError(1, "Operation not permitted")

    return sched_setaffinity


def test_refused_binding_runs_unbound(launch_mask, monkeypatch):
    calls = []
    monkeypatch.setattr(os, "sched_setaffinity", _refuse(calls))

    def prog(comm):
        with offloaded(comm) as oc:
            total = oc.allreduce(np.array([float(comm.rank + 1)]))
            return float(total[0]), _mask(), oc.engine.engines[0].cpus

    world = World(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((total, mask, engine_cpus),) = world.run(prog)
    assert world.binding is None
    # decided once, by the launcher, before a rank thread exists
    assert calls == [threading.current_thread()]
    assert total == 1.0
    assert mask == launch_mask  # inherited, not narrowed
    assert engine_cpus == sorted(launch_mask)


def test_timeout_of_an_unbound_run_says_unbound(launch_mask):
    release = threading.Event()
    try:
        with pytest.raises(WorldError) as info:
            World(2).run(lambda comm: release.wait(30), timeout=0.2)
    finally:
        release.set()
    assert sorted(info.value.failures) == [0, 1]
    for rank, exc in info.value.failures.items():
        assert f"rank {rank} (unbound) did not finish" in str(exc)


def test_platform_without_affinity_runs_unbound(launch_mask, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delattr(os, "sched_setaffinity")

    def prog(comm):
        with offloaded(comm) as oc:
            (engine,) = oc.engine.engines
            return engine.cpus, oc.engine.telemetry_snapshot()["cpus"]

    world = World(1)
    # the pool's snapshot unions its shards' masks: none recorded
    assert world.run(prog) == [(None, [])]
    assert world.binding is None
    monkeypatch.undo()  # the fixture's own check needs the real call


def test_binding_describes_the_latest_run(launch_mask):
    world = World(1)
    world.run(lambda comm: None)
    assert world.binding == [min(launch_mask)]
    one = max(launch_mask)
    _on_narrowed_thread(one, lambda: world.run(lambda comm: None))
    assert world.binding == [one]
