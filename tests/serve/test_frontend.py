"""The serving front-end in isolation: admission control on both
routes (with room: the caller's own task; without: the tenant queue),
typed backpressure, round-robin tenant fairness, accounting, and the
SLO report.  Ops here are plain coroutines (no engine needed) but for
one test, so these run on a bare event loop; the bridge and loadgen
tiers cover the engine-backed path."""

import asyncio
import random

import numpy as np
import pytest

from repro.core import offloaded
from repro.serve import (
    AsyncOffloadEngine,
    ServeOverloadError,
    ServingFrontend,
    TenantQueueFull,
)
from repro.serve.frontend import percentile

from tests.conftest import run_world_mt

pytestmark = pytest.mark.deadline(60)


class _StubEngine:
    """Just enough surface for the front-end: no telemetry counters."""

    class _OComm:
        engine = None

    ocomm = _OComm()

    def telemetry_snapshot(self) -> dict:
        return {"counters": {}}


def run(coro):
    return asyncio.run(coro)


class TestAdmission:
    def test_completes_simple_ops_and_accounts_exactly(self):
        async def main():
            fe = ServingFrontend(_StubEngine(), max_in_flight=4)
            await fe.start()

            async def op():
                await asyncio.sleep(0)
                return 42

            results = await asyncio.gather(
                *(fe.request("t", op) for _ in range(10))
            )
            await fe.stop()
            assert results == [42] * 10
            assert fe.accepted == 10 and fe.completed == 10
            assert fe.lost() == 0
            return True

        assert run(main())

    def test_tenant_queue_full_is_typed_and_immediate(self):
        async def main():
            fe = ServingFrontend(
                _StubEngine(), max_in_flight=1, tenant_queue_depth=2
            )
            # not started: everything stays queued
            async def op():
                return None

            fe.submit("t", op)
            fe.submit("t", op)
            with pytest.raises(TenantQueueFull):
                fe.submit("t", op)
            # a different tenant has its own bounded queue
            fe.submit("u", op)
            assert fe.rejected == 1
            assert fe.per_tenant()["t"]["rejected"] == 1
            await fe.start()
            await fe.stop()
            assert fe.lost() == 0
            return True

        assert run(main())

    def test_global_backlog_cap_rejects_typed(self):
        async def main():
            fe = ServingFrontend(
                _StubEngine(),
                max_in_flight=1,
                tenant_queue_depth=100,
                global_queue_depth=3,
            )

            async def op():
                return None

            for i in range(3):
                fe.submit(f"t{i}", op)
            with pytest.raises(ServeOverloadError):
                fe.submit("t9", op)
            await fe.start()
            await fe.stop()
            return True

        assert run(main())

    def test_stopped_frontend_rejects_typed(self):
        async def main():
            fe = ServingFrontend(_StubEngine())
            await fe.start()
            await fe.stop()

            async def op():
                return None

            with pytest.raises(ServeOverloadError):
                fe.submit("t", op)
            return True

        assert run(main())

    def test_failed_op_raises_into_awaiter_and_is_counted(self):
        async def main():
            fe = ServingFrontend(_StubEngine())
            await fe.start()

            async def bad():
                raise ValueError("boom")

            with pytest.raises(ValueError):
                await fe.request("t", bad)
            await fe.stop()
            assert fe.failed == {"ValueError": 1}
            assert fe.per_tenant()["t"]["failed"] == 1
            assert fe.lost() == 0
            return True

        assert run(main())


class TestConcurrencyCapAndFairness:
    def test_max_in_flight_is_a_hard_cap(self):
        async def main():
            fe = ServingFrontend(_StubEngine(), max_in_flight=3)
            await fe.start()
            gate = asyncio.Event()
            peak = 0

            async def op():
                nonlocal peak
                peak = max(peak, fe.in_flight)
                await gate.wait()

            futs = [fe.submit("t", op) for _ in range(12)]
            await asyncio.sleep(0.05)
            assert fe.in_flight <= 3
            gate.set()
            await asyncio.gather(*futs)
            await fe.stop()
            assert peak <= 3
            assert fe.completed == 12
            return True

        assert run(main())

    def test_round_robin_interleaves_a_flooding_tenant(self):
        async def main():
            fe = ServingFrontend(_StubEngine(), max_in_flight=1)
            order: list[str] = []

            def op_for(tenant: str):
                async def op():
                    order.append(tenant)

                return op

            # flood from "hog" queued first, one "mouse" request after
            for _ in range(6):
                fe.submit("hog", op_for("hog"))
            fe.submit("mouse", op_for("mouse"))
            await fe.start()
            await fe.stop()
            # fair dispatch: the mouse is served within the first
            # round-robin turn, not after the entire hog backlog
            assert "mouse" in order[:2], order
            assert fe.completed == 7
            return True

        assert run(main())


class _CountingLoop(asyncio.SelectorEventLoop):
    """Counts the tasks and futures created through the loop."""

    def __init__(self) -> None:
        super().__init__()
        self.tasks = self.futures = 0

    def create_task(self, coro, **kw):
        self.tasks += 1
        return super().create_task(coro, **kw)

    def create_future(self):
        self.futures += 1
        return super().create_future()


def _law(fe: ServingFrontend) -> None:
    """accepted == completed + failed + in_flight + queued."""
    assert fe.lost() == 0, (
        fe.accepted, fe.completed, fe.failed, fe.in_flight, fe.queued
    )


def _recording_op(order: list, name: str, gate: "asyncio.Event | None" = None):
    """An op that logs its start in ``order``, then waits for ``gate``."""

    async def op():
        order.append(name)
        if gate is not None:
            await gate.wait()

    return op


class TestAdmissionRoutes:
    """Room → the caller's task; no room → the tenant queue; a
    completion → the pump.  Nothing that arrives later overtakes."""

    def test_request_with_room_creates_no_task_and_no_future(self):
        loop = _CountingLoop()

        async def op():
            await asyncio.sleep(0)  # a bare yield: creates nothing
            return 7

        async def main():
            fe = ServingFrontend(_StubEngine(), max_in_flight=2)
            await fe.start()
            before = (loop.tasks, loop.futures)
            for _ in range(5):
                assert await fe.request("t", op) == 7
            assert (loop.tasks, loop.futures) == before
            assert fe.completed == 5 and not fe._rr
            # the queued route costs one of each per request
            await fe.submit("t", op)
            assert (loop.tasks, loop.futures) == (
                before[0] + 1,
                before[1] + 1,
            )
            await fe.stop()
            _law(fe)

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def test_cap_is_hard_under_inline_and_queued_requests(self):
        async def main():
            fe = ServingFrontend(_StubEngine(), max_in_flight=3)
            await fe.start()
            gate = asyncio.Event()
            peak = 0

            async def op():
                nonlocal peak
                peak = max(peak, fe.in_flight)
                await gate.wait()
                peak = max(peak, fe.in_flight)

            inline = [
                asyncio.ensure_future(fe.request("a", op)) for _ in range(3)
            ]
            await asyncio.sleep(0)
            assert (fe.in_flight, fe.queued) == (3, 0)  # served inline
            queued = [fe.submit("b", op) for _ in range(4)]
            late = [
                asyncio.ensure_future(fe.request("a", op)) for _ in range(2)
            ]
            await asyncio.sleep(0)
            assert (fe.in_flight, fe.queued) == (3, 6)
            _law(fe)
            gate.set()
            await asyncio.gather(*inline, *queued, *late)
            await fe.stop()
            assert peak == 3
            assert fe.completed == 9
            _law(fe)

        run(main())

    def test_request_queues_behind_what_is_queued(self):
        async def main():
            fe = ServingFrontend(_StubEngine(), max_in_flight=1)
            await fe.start()
            order: list[str] = []
            gate = asyncio.Event()

            first = asyncio.ensure_future(
                fe.request("t", _recording_op(order, "inline", gate))
            )
            await asyncio.sleep(0)
            assert fe.in_flight == 1
            queued = fe.submit("u", _recording_op(order, "queued"))
            late = asyncio.ensure_future(
                fe.request("t", _recording_op(order, "late"))
            )
            await asyncio.sleep(0)
            assert fe.queued == 2 and order == ["inline"]
            gate.set()
            await asyncio.gather(first, queued, late)
            await fe.stop()
            assert order == ["inline", "queued", "late"]

        run(main())

    def test_freed_capacity_goes_to_the_queue_before_a_later_arrival(self):
        async def main():
            fe = ServingFrontend(_StubEngine(), max_in_flight=1)
            await fe.start()
            order: list[str] = []
            gate = asyncio.Event()

            async def client():
                # closed loop: the next request is issued the moment
                # the first returns — after its completion pumped
                await fe.request("t", _recording_op(order, "first", gate))
                assert fe.in_flight == 1  # handed to the queue already
                await fe.request("t", _recording_op(order, "next"))

            task = asyncio.ensure_future(client())
            await asyncio.sleep(0)
            queued = fe.submit("u", _recording_op(order, "queued"))
            gate.set()
            await asyncio.gather(task, queued)
            await fe.stop()
            assert order == ["first", "queued", "next"]

        run(main())

    def test_request_before_start_queues(self):
        async def main():
            fe = ServingFrontend(_StubEngine())

            async def op():
                return 1

            task = asyncio.ensure_future(fe.request("t", op))
            await asyncio.sleep(0)
            assert (fe.in_flight, fe.queued) == (0, 1) and not task.done()
            await fe.start()
            assert await task == 1
            await fe.stop()

        run(main())

    def test_cancelled_inline_request_is_counted_and_frees_its_capacity(self):
        async def main():
            fe = ServingFrontend(_StubEngine(), max_in_flight=1)
            await fe.start()
            reached = asyncio.Event()

            async def stuck():
                reached.set()
                await asyncio.Event().wait()

            async def op():
                return "served"

            task = asyncio.ensure_future(fe.request("t", stuck))
            await reached.wait()
            queued = fe.submit("t", op)  # waits behind the full cap
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert fe.failed == {"CancelledError": 1}
            assert await queued == "served"
            await fe.stop()
            assert fe.in_flight == 0
            _law(fe)

        run(main())

    def test_stop_waits_for_inline_requests_in_flight(self):
        async def main():
            fe = ServingFrontend(_StubEngine())
            await fe.start()
            gate = asyncio.Event()

            async def op():
                await gate.wait()

            task = asyncio.ensure_future(fe.request("t", op))
            await asyncio.sleep(0)
            stops = [asyncio.ensure_future(fe.stop()) for _ in range(2)]
            for _ in range(3):
                await asyncio.sleep(0)
            assert fe.in_flight == 1
            assert not any(s.done() for s in stops)
            with pytest.raises(ServeOverloadError):  # closed meanwhile
                await fe.request("t", op)
            gate.set()
            await asyncio.gather(task, *stops)
            assert fe.completed == 1 and fe.in_flight == 0
            await fe.stop()  # drained: returns at once

        run(main())

    def test_stop_drains_a_frontend_that_was_never_started(self):
        async def main():
            fe = ServingFrontend(_StubEngine(), max_in_flight=1)

            async def op():
                return 5

            futs = [fe.submit("t", op) for _ in range(3)]
            await fe.stop()
            assert [f.result() for f in futs] == [5, 5, 5]
            assert fe.queued == 0 and fe.completed == 3
            _law(fe)

        run(main())

    def test_rotation_holds_only_tenants_with_queued_work(self):
        async def main():
            fe = ServingFrontend(_StubEngine(), max_in_flight=4)

            async def op():
                await asyncio.sleep(0)

            futs = [fe.submit(f"tenant-{i}", op) for i in range(1000)]
            assert len(fe._rr) == 1000
            await fe.start()
            await asyncio.gather(*futs)
            assert len(fe._rr) == 0
            # with room, a request never enters the rotation
            await fe.request("one-more", op)
            assert len(fe._rr) == 0
            await fe.stop()
            assert fe.completed == 1001
            assert len(fe.per_tenant()) == 1001
            _law(fe)

        run(main())

    @pytest.mark.parametrize("test_seed", [0, 1, 2, 3], indirect=True)
    def test_accounting_law_under_a_random_interleaving(self, test_seed):
        """request / submit / cancel / complete in seeded random order
        at ``max_in_flight=2``: the law holds after every step (and the
        cap, and the order of service inside each tenant's queue)."""
        rng = random.Random(f"frontend-law:{test_seed}")

        async def main():
            fe = ServingFrontend(
                _StubEngine(), max_in_flight=2, tenant_queue_depth=4
            )
            await fe.start()
            loop = asyncio.get_running_loop()
            gates: dict = {}  # op id -> the future its op waits on
            waiters: list = []  # request tasks and submit futures
            started: list[int] = []
            rejected = 0

            def op_for(i: int):
                async def op():
                    started.append(i)
                    gates[i] = loop.create_future()
                    return await gates[i]

                return op

            def check() -> None:
                _law(fe)
                assert fe.in_flight <= 2
                assert fe.queued <= 3 * 4

            for i in range(300):
                tenant = rng.choice("abc")
                step = rng.random()
                if step < 0.3:
                    waiters.append(
                        asyncio.ensure_future(fe.request(tenant, op_for(i)))
                    )
                elif step < 0.5:
                    try:
                        waiters.append(fe.submit(tenant, op_for(i)))
                    except TenantQueueFull:
                        rejected += 1
                elif step < 0.65 and waiters:
                    rng.choice(waiters).cancel()
                else:
                    live = [g for g in gates.values() if not g.done()]
                    if live:
                        gate = rng.choice(live)
                        if rng.random() < 0.2:
                            gate.set_exception(ValueError("boom"))
                        else:
                            gate.set_result(i)
                check()
                for _ in range(rng.randrange(3)):
                    await asyncio.sleep(0)
                    check()
            while fe.in_flight or fe.queued:
                for g in gates.values():
                    if not g.done():
                        g.set_result(None)
                await asyncio.sleep(0)
                check()
            await fe.stop()
            outcomes = await asyncio.gather(*waiters, return_exceptions=True)
            check()
            rejected += sum(isinstance(o, ServeOverloadError) for o in outcomes)
            assert fe.rejected == rejected
            assert fe.accepted == fe.completed + sum(fe.failed.values())
            assert len(started) == fe.accepted
            assert set(fe.failed) <= {"ValueError", "CancelledError"}

        run(main())


class TestInlineCancellationOverTheEngine:
    @pytest.mark.deadline(120)
    def test_cancelled_inline_request_releases_both_pool_slots(self):
        def prog(comm):
            with offloaded(comm, telemetry=True, pool_size=2) as oc:
                engine = AsyncOffloadEngine(oc)
                me = engine.rank

                async def main():
                    fe = ServingFrontend(engine, max_in_flight=4)
                    await fe.start()
                    posted = asyncio.Event()

                    async def echo_nobody_answers():
                        rbuf = np.empty(4, dtype=np.uint8)
                        sbuf = np.arange(4, dtype=np.uint8)
                        waits = asyncio.gather(
                            engine.offload_irecv(rbuf, me, tag=5),
                            engine.offload_isend(sbuf, me, tag=6),
                        )
                        await asyncio.sleep(0)  # both commands submitted
                        posted.set()
                        await waits

                    task = asyncio.ensure_future(
                        fe.request("t", echo_nobody_answers)
                    )
                    await posted.wait()
                    assert fe.in_flight == 1
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task
                    assert fe.failed == {"CancelledError": 1}
                    assert fe.in_flight == 0
                    # complete the abandoned pair: their resolves must
                    # still consume the handles
                    buf = np.empty(4, dtype=np.uint8)
                    await asyncio.gather(
                        engine.offload_isend(buf, me, tag=5),
                        engine.offload_irecv(buf.copy(), me, tag=6),
                    )
                    # ... on this loop: one that lands after the loop
                    # closed would be a counted drop instead
                    for _ in range(5000):
                        if not engine.stats()["pool_allocated"]:
                            break
                        await asyncio.sleep(1e-3)
                    await fe.stop()
                    _law(fe)

                asyncio.run(main())
                oc.flush()
                stats = engine.stats()
                assert stats["pool_allocated"] == 0, stats
                assert stats["continuation_drops"] == 0
                assert stats["continuation_fires"] == 4
                return True

        assert all(run_world_mt(1, prog))


class TestSloReport:
    def test_percentile_nearest_rank(self):
        vals = [float(i) for i in range(100)]
        assert percentile(vals, 0.50) == 50.0
        assert percentile(vals, 0.99) == 99.0
        assert percentile([], 0.99) == 0.0
        assert percentile([3.0], 0.5) == 3.0

    def test_report_counts_and_targets(self):
        async def main():
            fe = ServingFrontend(
                _StubEngine(), slo_p50_ms=1e4, slo_p99_ms=1e4
            )
            await fe.start()

            async def op():
                return None

            await asyncio.gather(
                *(fe.request("t", op) for _ in range(20))
            )
            await fe.stop()
            rep = fe.slo_report()
            assert rep.count == 20
            assert rep.met  # 10-second targets are unmissable here
            assert rep.p50_ms <= rep.p99_ms or rep.p99_ms >= 0
            assert "MET" in rep.render()
            return True

        assert run(main())

    def test_missed_targets_reported(self):
        async def main():
            fe = ServingFrontend(_StubEngine(), slo_p99_ms=0.0)
            await fe.start()

            async def op():
                await asyncio.sleep(0.001)

            await fe.request("t", op)
            await fe.stop()
            rep = fe.slo_report()
            assert not rep.met
            assert "MISSED" in rep.render()
            return True

        assert run(main())
