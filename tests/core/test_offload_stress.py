"""Randomized stateful stress test for the offload engine.

N producer threads fire mixed blocking/nonblocking commands at one
engine through a deliberately tiny command ring, so ``QueueFull``
backpressure is constantly exercised.  Afterwards the telemetry
snapshot must satisfy the conservation law

    enqueued == drained == completions + control + in_flight

and every payload must have arrived exactly once — no lost and no
duplicated completions (a duplicate would raise ``OffloadError``
from the request handle's completed-twice guard).
"""

import threading

import numpy as np
import pytest

from repro import obs
from repro.core import EnginePool, interpose
from repro.util.rng import seeded_rng

from tests.conftest import run_world_mt

pytestmark = pytest.mark.deadline(180)

NPRODUCERS = 4
OPS_PER_PRODUCER = 100


def _producer_ops(oc, tid: int, seed_round: int) -> dict:
    """One producer thread's mixed workload; returns its op counts."""
    rng = seeded_rng("offload-stress", seed_round, tid)
    issued = {"commands": 0, "payload_errors": 0}
    outstanding = []  # (send_req, recv_req, recvbuf, expected)
    for i in range(OPS_PER_PRODUCER):
        tag = tid * 10_000 + i
        expected = float(tid * OPS_PER_PRODUCER + i)
        choice = int(rng.integers(0, 3))
        if choice == 0:
            # nonblocking self-exchange, waited later
            recvbuf = np.empty(1)
            sreq = oc.isend(np.array([expected]), oc.rank, tag=tag)
            rreq = oc.irecv(recvbuf, oc.rank, tag=tag)
            issued["commands"] += 2
            outstanding.append((sreq, rreq, recvbuf, expected))
        elif choice == 1:
            # blocking self-exchange (engine converts both, §3.3)
            recvbuf = np.empty(1)
            oc.send(np.array([expected]), oc.rank, tag=tag)
            oc.recv(recvbuf, oc.rank, tag=tag)
            issued["commands"] += 2
            if recvbuf[0] != expected:
                issued["payload_errors"] += 1
        else:
            # blocking single-rank collective
            out = oc.allreduce(np.array([expected]))
            issued["commands"] += 1
            if out[0] != expected:
                issued["payload_errors"] += 1
        # randomly retire some outstanding nonblocking pairs
        if outstanding and rng.random() < 0.3:
            sreq, rreq, recvbuf, exp = outstanding.pop(
                int(rng.integers(len(outstanding)))
            )
            sreq.wait(timeout=60)
            rreq.wait(timeout=60)
            if recvbuf[0] != exp:
                issued["payload_errors"] += 1
    for sreq, rreq, recvbuf, exp in outstanding:
        sreq.wait(timeout=60)
        rreq.wait(timeout=60)
        if recvbuf[0] != exp:
            issued["payload_errors"] += 1
    return issued


def _stress_world(seed_round: int, pool_size: int):
    def prog(comm):
        with EnginePool(
            comm,
            pool_size=pool_size,
            queue_capacity=8,
            pool_capacity=512,
            telemetry=True,
        ) as pool:
            oc = interpose(comm, pool)
            results: list[dict | None] = [None] * NPRODUCERS
            errors: list[BaseException] = []

            def worker(tid):
                try:
                    results[tid] = _producer_ops(oc, tid, seed_round)
                except BaseException as exc:  # surfaced to the test
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(NPRODUCERS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive(), "producer thread hung"
            if errors:
                raise errors[0]
            issued = sum(r["commands"] for r in results)
            payload_errors = sum(r["payload_errors"] for r in results)
            snap = oc.engine.telemetry_snapshot()
            return issued, payload_errors, snap

    return run_world_mt(1, prog)


@pytest.mark.stress
class TestOffloadEngineStress:
    @pytest.mark.parametrize("test_seed", [0, 1], indirect=True)
    def test_counters_balance_and_no_lost_completions(
        self, test_seed, engine_pool_size
    ):
        obs.drain_snapshots()
        (issued, payload_errors, snap), = _stress_world(
            test_seed, engine_pool_size
        )
        assert payload_errors == 0
        c = snap["counters"]
        # every app-issued command was enqueued exactly once ...
        assert c["enqueues"] == issued
        # ... drained exactly once, and none are still pending
        ok, detail = obs.check_balance(snap)
        assert ok, detail
        assert snap["in_flight"] == 0
        assert detail["completions"] == issued
        # backpressure was actually exercised by the tiny ring
        assert snap["queue"]["occupancy_hwm"] <= snap["queue"]["capacity"]
        assert c["testany_sweeps"] > 0
        # pool conservation: every alloc was released
        assert c["pool_allocated"] == snap["pool"]["allocated"] == 0
        # final (post-shutdown) snapshot from the registry also balances
        final = obs.merge(obs.drain_snapshots())
        ok, detail = obs.check_balance(final)
        assert ok, detail
        assert detail["in_flight"] == 0
        assert detail["control"] >= 1  # the SHUTDOWN command

    def test_pool_sharded_producers_balance(self):
        obs.drain_snapshots()
        (issued, payload_errors, snap), = _stress_world(2, pool_size=2)
        assert payload_errors == 0
        assert snap["engines"] == 2
        assert snap["counters"]["enqueues"] == issued
        ok, detail = obs.check_balance(snap)
        assert ok, detail
        obs.drain_snapshots()
