"""Schedule-explored edge cases for ``MPSCQueue.drain_closed()`` and
the free list's chunk primitives, ``pop_batch()`` / ``push_batch()``.

These are the windows the plain concurrent stress tests cannot pin
down: the DST scheduler drives every interleaving of the close/drain
teardown protocol and the single-CAS refill and spill paths, so the
invariants below are checked over *all* schedules of each small
program (exhaustive strategy), not a random sample.
"""

import pytest

from repro.dst.explorer import Explorer, InvariantViolation
from repro.lockfree.freelist import FreeList, FreeListExhausted
from repro.lockfree.mpsc_queue import MPSCQueue, QueueClosed, QueueFull


def _explore(make_program, schedules=10_000):
    """Exhaustively explore; the tree must fit the budget so a clean
    result is a proof over every schedule."""
    result = Explorer(
        make_program, strategy="exhaustive", schedules=schedules
    ).run()
    assert not result.found, str(result.failure)
    assert result.exhausted, (
        f"schedule tree larger than {schedules}: not a full proof"
    )
    return result


class CloseDuringBatchProgram:
    """close() + final drain landing anywhere inside a producer's
    multi-item batch refill of the ring.

    Invariant: the batch splits cleanly — every item accepted before
    the cut is drained exactly once, every item after it is rejected
    with ``QueueClosed``, and nothing is lost or duplicated.
    """

    BATCH = 3

    def __init__(self) -> None:
        self.queue: MPSCQueue[str] = MPSCQueue(4)
        self.accepted: list[str] = []
        self.rejected: list[str] = []
        self.drained: list[str] | None = None

    def setup(self, sched) -> None:
        def producer() -> None:
            for i in range(self.BATCH):
                item = f"item{i}"
                try:
                    self.queue.enqueue(item)
                except QueueClosed:
                    self.rejected.append(item)
                    continue
                self.accepted.append(item)

        def closer() -> None:
            self.queue.close()
            self.drained = self.queue.drain_closed()

        sched.spawn(producer, name="producer")
        sched.spawn(closer, name="closer")

    def check(self) -> None:
        drained = self.drained if self.drained is not None else []
        if sorted(drained) != sorted(self.accepted):
            raise InvariantViolation(
                f"accepted {self.accepted} but drained {drained}"
            )
        if len(self.accepted) + len(self.rejected) != self.BATCH:
            raise InvariantViolation(
                f"batch items unaccounted for: accepted={self.accepted} "
                f"rejected={self.rejected}"
            )


class DrainVsTombstoneProgram:
    """drain_closed() racing a producer that loses to close() post-CAS.

    The producer claims its ticket, observes the close, and publishes a
    tombstone; the drain must wait out the claimed-but-unpublished cell
    and then skip the tombstone.  Invariant: the drain returns only real
    values (never the tombstone placeholder), delivered-vs-rejected
    accounting is exact, and the dequeue counter matches deliveries.
    """

    def __init__(self) -> None:
        self.queue: MPSCQueue[str] = MPSCQueue(4)
        self.outcomes: list[str] = []
        self.drained: list[str] | None = None

    def setup(self, sched) -> None:
        def producer() -> None:
            try:
                self.queue.enqueue("payload")
            except QueueClosed:
                self.outcomes.append("rejected")
            else:
                self.outcomes.append("accepted")

        def closer() -> None:
            self.queue.close()
            self.drained = self.queue.drain_closed()

        sched.spawn(producer, name="producer")
        sched.spawn(closer, name="closer")

    def check(self) -> None:
        drained = self.drained if self.drained is not None else []
        for value in drained:
            if value != "payload":
                raise InvariantViolation(
                    f"drain delivered a non-payload object {value!r} "
                    "(tombstone leak)"
                )
        expected = ["payload"] if self.outcomes == ["accepted"] else []
        if drained != expected:
            raise InvariantViolation(
                f"producer outcome {self.outcomes} but drain {drained}"
            )
        if self.queue.dequeue_count != len(drained):
            raise InvariantViolation(
                f"dequeue_count {self.queue.dequeue_count} != "
                f"{len(drained)} deliveries (tombstone was counted)"
            )
        # len() is the distance between the cursors: a tombstone the
        # final drain did not reach (its CAS came after the snapshot)
        # still occupies its cell; one more consumer pass — the engine
        # loop's next look — takes it out, and the ring reads empty.
        left, pos = len(self.queue), self.queue._dequeue_pos
        if self.queue.drain() or self.queue._dequeue_pos - pos != left:
            raise InvariantViolation(
                f"len() said {left} cell(s) occupied after the final "
                f"drain, a further pass consumed "
                f"{self.queue._dequeue_pos - pos}"
            )
        if not self.queue.empty():
            raise InvariantViolation("closed, drained ring not empty")


class BatchAtExhaustionProgram:
    """Two racing pop_batch calls that together over-subscribe the
    list, so one of them crosses the exhaustion boundary mid-walk.

    Invariant: handed-out slots are disjoint, every batch is non-empty
    (or the caller got a typed ``FreeListExhausted``), the ledger is
    untouched (the slots are owned-free), the list holds exactly the
    rest, and pushing every chunk back restores the full list.
    """

    CAPACITY = 3
    WANT = 2

    def __init__(self) -> None:
        self.freelist: FreeList[None] = FreeList(self.CAPACITY)
        self.got: dict[str, list[int]] = {}

    def setup(self, sched) -> None:
        def taker(name: str) -> None:
            try:
                self.got[name] = self.freelist.pop_batch(self.WANT)
            except FreeListExhausted:
                self.got[name] = []

        sched.spawn(taker, "a", name="a")
        sched.spawn(taker, "b", name="b")

    def check(self) -> None:
        a, b = self.got.get("a", []), self.got.get("b", [])
        if set(a) & set(b):
            raise InvariantViolation(
                f"batches overlap: a={a} b={b} — one slot, two owners"
            )
        taken = a + b
        if len(set(taken)) != len(taken):
            raise InvariantViolation(f"duplicate slots in {taken}")
        if self.freelist.allocated:
            raise InvariantViolation(
                f"a chunk move flipped the ledger: "
                f"{self.freelist.allocated} live"
            )
        if self.freelist.free_count() != self.CAPACITY - len(taken):
            raise InvariantViolation(
                f"{len(taken)} popped but {self.freelist.free_count()} "
                f"of {self.CAPACITY} still listed"
            )
        # the list must still be structurally whole: push both chunks
        # back and recount (free_count raises on a cycle)
        self.freelist.push_batch(a)
        self.freelist.push_batch(b)
        if self.freelist.free_count() != self.CAPACITY:
            raise InvariantViolation(
                f"free list lost slots: {self.freelist.free_count()} "
                f"of {self.CAPACITY} after full release"
            )


class PushBatchAbaProgram:
    """push_batch racing a pop-then-push-back of the very head it read.

    The ABA shape, mirrored from the batched pop: between the pusher's
    look at the head and its CAS, the cycler takes the head chunk off
    and puts its first slot back — the same index heads the list again,
    under another version and in front of other links.  The tagged CAS
    must refuse the stale look and relink the chunk's tail.

    Invariant: no slot is lost or listed twice — what the cycler kept
    plus what the list holds is every slot exactly once.
    """

    CAPACITY = 4

    def __init__(self) -> None:
        self.freelist: FreeList[None] = FreeList(self.CAPACITY)
        # popped here, outside the scheduler: the pusher's chunk
        self.chunk = self.freelist.pop_batch(2)
        self.kept: list[int] = []

    def setup(self, sched) -> None:
        def pusher() -> None:
            self.freelist.push_batch(self.chunk)

        def cycler() -> None:
            got = self.freelist.pop_batch(2)
            self.freelist.push_batch(got[:1])
            self.kept = got[1:]

        sched.spawn(pusher, name="pusher")
        sched.spawn(cycler, name="cycler")

    def check(self) -> None:
        listed = self.freelist.free_count()  # raises on a cycle
        if listed + len(self.kept) != self.CAPACITY:
            raise InvariantViolation(
                f"{listed} listed + {len(self.kept)} kept != "
                f"{self.CAPACITY}: a slot was lost or linked twice"
            )
        rest = self.freelist.pop_batch(self.CAPACITY)
        if sorted(rest + self.kept) != list(range(self.CAPACITY)):
            raise InvariantViolation(
                f"list holds {rest}, cycler kept {self.kept}"
            )


class TestDrainClosedEdges:
    def test_close_during_batch_refill_all_schedules(self):
        _explore(CloseDuringBatchProgram)

    def test_drain_racing_tombstoning_producer_all_schedules(self):
        _explore(DrainVsTombstoneProgram)


class TestAllocBatchEdges:
    def test_racing_batches_at_exhaustion_all_schedules(self):
        _explore(BatchAtExhaustionProgram)

    @pytest.mark.dst
    def test_larger_batches_at_exhaustion_all_schedules(self):
        # the deep-tier variant: a bigger tree (~6k schedules) with
        # longer chains, so mid-walk CAS invalidation is hit harder
        class Larger(BatchAtExhaustionProgram):
            CAPACITY = 4
            WANT = 3

        _explore(Larger)

    def test_push_batch_racing_a_recycled_head_all_schedules(self):
        _explore(PushBatchAbaProgram)

    def test_batch_clamps_to_remaining_slots(self):
        fl: FreeList[None] = FreeList(4)
        for _ in range(3):
            fl.alloc()
        got = fl.pop_batch(3)  # only one slot left
        assert len(got) == 1
        with pytest.raises(FreeListExhausted):
            fl.pop_batch(3)
        assert fl.allocated == 3  # the popped slot is owned-free

    def test_batch_of_one_pops_one_slot(self):
        fl: FreeList[None] = FreeList(2)
        got = fl.pop_batch(1)
        assert len(got) == 1
        assert fl.allocated == 0 and fl.free_count() == 1
