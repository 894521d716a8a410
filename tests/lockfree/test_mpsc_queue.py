"""Unit, stress and property tests for the MPSC command queue."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lockfree.mpsc_queue import MPSCQueue, QueueClosed, QueueFull


class TestBasics:
    def test_fifo_single_producer(self):
        q = MPSCQueue(8)
        for i in range(5):
            q.enqueue(i)
        assert q.drain() == [0, 1, 2, 3, 4]

    def test_empty_dequeue(self):
        q = MPSCQueue(8)
        ok, v = q.try_dequeue()
        assert not ok and v is None

    def test_full_raises(self):
        q = MPSCQueue(4)
        for i in range(4):
            q.enqueue(i)
        with pytest.raises(QueueFull):
            q.enqueue(99)

    def test_slot_recycling(self):
        q = MPSCQueue(4)
        for round_ in range(10):
            for i in range(4):
                q.enqueue((round_, i))
            assert q.drain() == [(round_, i) for i in range(4)]

    def test_len_tracks_occupancy(self):
        q = MPSCQueue(8)
        assert q.empty()
        q.enqueue(1)
        q.enqueue(2)
        assert len(q) == 2
        q.try_dequeue()
        assert len(q) == 1

    def test_capacity_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            MPSCQueue(3)
        with pytest.raises(ValueError):
            MPSCQueue(0)

    def test_close_rejects_enqueue_but_allows_drain(self):
        q = MPSCQueue(8)
        q.enqueue(1)
        q.close()
        with pytest.raises(QueueClosed):
            q.enqueue(2)
        assert q.drain() == [1]

    def test_drain_limit(self):
        q = MPSCQueue(8)
        for i in range(5):
            q.enqueue(i)
        assert q.drain(limit=2) == [0, 1]
        assert q.drain() == [2, 3, 4]

    def test_len_clamped_to_capacity(self):
        # len() reads the dequeue side first, so a racing burst of
        # dequeues between the two reads can only *over*-estimate;
        # the clamp keeps the result inside the ring's structural
        # bounds either way.
        q = MPSCQueue(4)
        for i in range(4):
            q.enqueue(i)
        assert len(q) == 4
        q.try_dequeue()
        assert len(q) == 3

    def test_len_is_the_distance_between_the_cursors(self):
        # exact whenever producers are quiescent, across wrap-around,
        # with nothing but the two cursors behind it
        q = MPSCQueue(4)
        assert not hasattr(q, "enqueue_count")
        for lap in range(5):
            for i in range(3):
                q.enqueue((lap, i))
                assert len(q) == i + 1
            assert len(q.drain(2)) == 2
            assert len(q) == 1 and not q.empty()
            q.drain()
            assert len(q) == 0 and q.empty()
        assert q.dequeue_count == 15

    def test_tombstone_occupies_its_cell_until_consumed(self):
        """A producer that loses to ``close()`` after its CAS publishes
        a tombstone: the cell counts as occupied until the consumer has
        passed it, is never counted as delivered, and the closed ring
        reads empty once the final drain is through."""
        from repro.lockfree.atomics import AtomicCounter

        q = MPSCQueue(4)
        q.enqueue("kept")

        class ClosingCounter(AtomicCounter):
            # the close lands between the producer's check and its CAS
            def compare_and_swap(self, expected, new):
                q.close()
                return super().compare_and_swap(expected, new)

        q._enqueue_pos = ClosingCounter(q._enqueue_pos.load())
        with pytest.raises(QueueClosed):
            q.enqueue("lost")
        assert len(q) == 2 and not q.empty()  # the item, the tombstone
        assert q.drain_closed() == ["kept"]
        assert len(q) == 0 and q.empty()
        assert q.dequeue_count == 1

    def test_drain_closed_returns_committed_items(self):
        q = MPSCQueue(8)
        q.enqueue(1)
        q.enqueue(2)
        q.close()
        assert q.drain_closed() == [1, 2]
        assert q.drain_closed() == []


class TestConcurrency:
    def test_len_stays_inside_the_ring_under_contention(self):
        """Four producers against a draining consumer: every ``len``
        sampled on the way is within ``[0, capacity]``, and the ring
        reads exactly empty at the end."""
        q = MPSCQueue(8)
        per_producer, nproducers = 500, 4
        sampled: list[int] = []
        got: list[int] = []

        def producer():
            for i in range(per_producer):
                while True:
                    try:
                        q.enqueue(i)
                        break
                    except QueueFull:
                        sampled.append(len(q))

        def consumer():
            while len(got) < per_producer * nproducers:
                sampled.append(len(q))
                got.extend(q.drain(3))

        threads = [threading.Thread(target=producer) for _ in range(nproducers)]
        threads.append(threading.Thread(target=consumer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "queue thread hung"
        assert sampled and all(0 <= n <= q.capacity for n in sampled)
        assert max(sampled) > 0
        assert len(q) == 0 and q.empty()
        assert q.dequeue_count == per_producer * nproducers

    def test_no_loss_no_duplication_under_contention(self):
        q = MPSCQueue(64)
        nproducers, per = 8, 500
        done = threading.Event()
        received = []

        def producer(pid):
            for i in range(per):
                while True:
                    try:
                        q.enqueue((pid, i))
                        break
                    except QueueFull:
                        pass

        def consumer():
            while len(received) < nproducers * per:
                ok, item = q.try_dequeue()
                if ok:
                    received.append(item)
            done.set()

        threads = [
            threading.Thread(target=producer, args=(p,))
            for p in range(nproducers)
        ]
        ct = threading.Thread(target=consumer)
        ct.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert done.wait(30)
        ct.join()
        assert len(received) == nproducers * per
        assert len(set(received)) == nproducers * per

    def test_close_race_loses_nothing_completes_nothing_twice(self):
        """Regression: a producer past the pre-CAS closed check used to
        publish into a closed ring, where the item was silently dropped
        once the consumer had done its final drain.  Now every item is
        either acknowledged (enqueue returned) and drained exactly
        once, or rejected with QueueClosed and never drained."""
        for round_ in range(20):
            q = MPSCQueue(64)
            nproducers, per = 6, 200
            accepted = [set() for _ in range(nproducers)]
            rejected = [set() for _ in range(nproducers)]
            start = threading.Barrier(nproducers + 1)

            def producer(pid):
                start.wait()
                for i in range(per):
                    try:
                        while True:
                            try:
                                q.enqueue((pid, i))
                                break
                            except QueueFull:
                                if q.closed:
                                    raise QueueClosed("full+closed")
                        accepted[pid].add(i)
                    except QueueClosed:
                        rejected[pid].add(i)

            threads = [
                threading.Thread(target=producer, args=(p,))
                for p in range(nproducers)
            ]
            for t in threads:
                t.start()
            start.wait()
            # Consume a while mid-storm, then close and final-drain
            # while producers are still racing the close.
            drained = []
            for _ in range(500 + round_ * 50):
                ok, item = q.try_dequeue()
                if ok:
                    drained.append(item)
            q.close()
            drained.extend(q.drain_closed())
            for t in threads:
                t.join()
            # Post-join sweep must find nothing: drain_closed already
            # collected every committed item.
            assert q.drain() == []
            got = set(drained)
            assert len(got) == len(drained), "item delivered twice"
            want = {
                (pid, i)
                for pid in range(nproducers)
                for i in accepted[pid]
            }
            assert got == want
            for pid in range(nproducers):
                assert accepted[pid].isdisjoint(rejected[pid])

    def test_per_producer_fifo_preserved(self):
        """MPI ordering requirement: each producer's items must be
        dequeued in that producer's program order."""
        q = MPSCQueue(32)
        nproducers, per = 4, 400
        received = []

        def producer(pid):
            for i in range(per):
                while True:
                    try:
                        q.enqueue((pid, i))
                        break
                    except QueueFull:
                        pass

        stop = threading.Event()

        def consumer():
            while not stop.is_set() or not q.empty():
                ok, item = q.try_dequeue()
                if ok:
                    received.append(item)

        ct = threading.Thread(target=consumer)
        ct.start()
        threads = [
            threading.Thread(target=producer, args=(p,))
            for p in range(nproducers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        ct.join()
        for pid in range(nproducers):
            seq = [i for p, i in received if p == pid]
            assert seq == sorted(seq)
            assert len(seq) == per


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("enq"), st.integers(0, 1000)),
            st.tuples(st.just("deq"), st.just(0)),
        ),
        max_size=200,
    )
)
def test_sequential_queue_matches_list_model(ops):
    """Property: against a plain-list reference model, any sequential
    interleaving of enqueue/dequeue behaves identically."""
    q = MPSCQueue(16)
    model: list[int] = []
    for kind, value in ops:
        if kind == "enq":
            if len(model) < 16:
                q.enqueue(value)
                model.append(value)
            else:
                with pytest.raises(QueueFull):
                    q.enqueue(value)
        else:
            ok, got = q.try_dequeue()
            if model:
                assert ok and got == model.pop(0)
            else:
                assert not ok
    assert q.drain() == model
