"""The ``QueueFull`` retry path of ``OffloadEngine.submit``.

Backpressure on a *live* engine spin-retries (flow control, not
failure); but retrying against an engine whose thread is dead — never
started, already stopped, crashed, or aborted — must raise
``OffloadEngineDied`` instead of spinning forever, and every bounce
must be counted.
"""

import threading
import time

import pytest

from repro.core import Command, CommandKind, EnginePool, OffloadEngineDied
from repro.core.interpose import offloaded

from tests.conftest import run_world, run_world_mt


def _shard(comm, **kwargs):
    """The only engine of an unstarted pool of one."""
    return EnginePool(comm, **kwargs).engines[0]


def _call_cmd(engine, fn=lambda: None):
    return Command(kind=CommandKind.CALL, fn=fn, slot=engine.pool.alloc())


class TestDeadEngineRaises:
    def test_full_ring_on_never_started_engine_raises(self):
        def prog(comm):
            engine = _shard(comm, queue_capacity=2, telemetry=True)
            # an unstarted engine accepts commands while the ring has
            # room (they would run at start()) ...
            engine.submit(_call_cmd(engine))
            engine.submit(_call_cmd(engine))
            # ... but a full ring with no thread to drain it must not
            # spin forever
            with pytest.raises(OffloadEngineDied, match="not started"):
                engine.submit(_call_cmd(engine))
            assert engine.queue_full_retries >= 1
            assert engine.stats()["queue_full_retries"] >= 1
            return True

        assert all(run_world(1, prog))

    def test_submit_on_stopped_engine_raises(self):
        # A clean stop closes the command ring, so the very first
        # submit afterwards fails typed — it used to be *accepted* and
        # silently lost until the ring filled up.
        def prog(comm):
            engine = _shard(comm, queue_capacity=2).start()
            engine.stop()
            with pytest.raises(OffloadEngineDied):
                engine.submit(_call_cmd(engine))
            return True

        assert all(run_world(1, prog))

    def test_spinning_producer_released_by_abort(self):
        """A producer stuck in backpressure while the engine dies mid-
        spin gets an exception, not an infinite loop."""

        def prog(comm):
            gate = threading.Event()
            engine = _shard(comm, queue_capacity=2).start()
            # wedge the engine on a blocking CALL, then fill the ring
            engine.submit(_call_cmd(engine, lambda: gate.wait(30)))
            time.sleep(0.05)  # let the engine dequeue the wedge
            engine.submit(_call_cmd(engine))
            engine.submit(_call_cmd(engine))
            raised = []

            def producer():
                try:
                    engine.submit(_call_cmd(engine))
                except OffloadEngineDied as exc:
                    raised.append(exc)

            t = threading.Thread(target=producer)
            t.start()
            time.sleep(0.1)  # producer is now spin-retrying
            engine.abort("test teardown")
            gate.set()
            t.join(timeout=10)
            assert not t.is_alive(), "producer still spinning after abort"
            assert len(raised) == 1
            return True

        assert all(run_world_mt(1, prog))


class TestLiveBackpressure:
    def test_backpressure_resolves_and_counts_retries(self):
        def prog(comm):
            gate = threading.Event()
            with offloaded(
                comm, queue_capacity=4, telemetry=True
            ) as oc:
                # pin one shard: this test wedges a single command
                # ring on purpose (route() is the identity on a bare
                # engine, the calling thread's shard on a pool)
                engine = oc.engine.route()
                # wedge the engine so the ring genuinely fills
                wedge = _call_cmd(engine, lambda: gate.wait(30))
                engine.submit(wedge)
                done = []

                def producer():
                    for _ in range(12):
                        engine.submit(_call_cmd(engine))
                    done.append(True)

                t = threading.Thread(target=producer)
                t.start()
                time.sleep(0.1)  # producer hits the full ring
                gate.set()
                t.join(timeout=30)
                assert done, "producer never got through backpressure"
                oc.flush()
                stats = engine.stats()
                assert stats["queue_full_retries"] > 0
                snap = engine.telemetry_snapshot()
                assert snap["counters"]["queue_full_retries"] > 0
                engine.pool.slot(wedge.slot).flag.wait(timeout=30)
            return True

        assert all(run_world_mt(1, prog))
