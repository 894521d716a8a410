"""Cross-shard send-ordering stress for the sharded engine pool.

MPI's non-overtaking rule: two sends from the same source to the same
destination with the same tag are received in the order they were
sent.  A sharded pool puts that rule at risk if routing splits one
stream over two rings, so this stress has N producer threads each own
one (source, dest, tag) stream and push an ordered payload sequence
through a small-ring 4-shard pool, while one receiver thread per
stream asserts the payloads arrive in exactly program order.
"""

import threading

import numpy as np
import pytest

from repro.core import EnginePool, interpose
from repro.util.rng import seeded_rng

from tests.conftest import run_world_mt

pytestmark = pytest.mark.deadline(180)

NSTREAMS = 4
MSGS_PER_STREAM = 40


def _sender(oc, tag: int, seed_round: int) -> int:
    """One ordered stream: payloads 0..K-1 to rank 1 on ``tag``."""
    rng = seeded_rng("pool-order-stress", seed_round, tag)
    outstanding = []
    for i in range(MSGS_PER_STREAM):
        payload = np.array([float(i)])
        if rng.random() < 0.5:
            # nonblocking: program order is the submit order
            outstanding.append(oc.isend(payload, 1, tag=tag))
        else:
            # blocking: completes before the next submit
            oc.send(payload, 1, tag=tag)
        if outstanding and rng.random() < 0.25:
            outstanding.pop(0).wait(timeout=60)
    for req in outstanding:
        req.wait(timeout=60)
    return MSGS_PER_STREAM


def _receiver(oc, tag: int) -> int:
    """Drain one stream; the i-th arrival must carry payload i."""
    misordered = 0
    buf = np.empty(1)
    for i in range(MSGS_PER_STREAM):
        oc.recv(buf, 0, tag=tag)
        if buf[0] != float(i):
            misordered += 1
    return misordered


def _prog(comm, seed_round: int):
    # small rings: constant backpressure
    with EnginePool(comm, pool_size=4, queue_capacity=16) as pool:
        oc = interpose(comm, pool)
        results = [None] * NSTREAMS
        if comm.rank == 0:
            work = _sender
        else:
            work = lambda oc, tag, _seed: _receiver(oc, tag)  # noqa: E731

        def run(idx: int) -> None:
            results[idx] = work(oc, idx, seed_round)

        threads = [
            threading.Thread(target=run, args=(i,), name=f"stream-{i}")
            for i in range(NSTREAMS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert all(not t.is_alive() for t in threads), "stream wedged"
        oc.flush()
        stats = oc.engine.stats()
    return results, stats


@pytest.mark.stress
class TestPoolOrderingStress:
    @pytest.mark.parametrize("test_seed", [0, 1], indirect=True)
    def test_same_stream_order_survives_routing(self, test_seed):
        out = run_world_mt(2, _prog, test_seed, timeout=150)
        sender_counts, sender_stats = out[0]
        misordered, _ = out[1]
        assert sender_counts == [MSGS_PER_STREAM] * NSTREAMS
        assert misordered == [0] * NSTREAMS, (
            "same-(source, dest, tag) sends overtook each other: "
            f"{misordered} misordered arrivals per stream"
        )
        # the stress actually exercised the pool, not a degenerate
        # single-shard path
        assert sender_stats["engines"] == 4
        assert sender_stats["completions"] > 0
