"""``ProgressEngine.post_batch`` against the same posts made one by one.

A run posted under one hold of the library lock must be
indistinguishable from its operations posted call by call: the same
per-operation outcome (request kind or exception type), the same
matches, the same bytes in every receive buffer, the same counters.
The property test drives twin three-rank worlds from one thread — the
progress engines are passive objects — through seeded random runs of
eager and rendezvous sizes, wildcards, ``PROC_NULL``, self-sends, with
arrivals already in the inbox, a REVOKE notice among them, and a dead
peer.
"""

import random

import numpy as np
import pytest

from repro.mpisim import ANY_SOURCE, ANY_TAG, THREAD_MULTIPLE, World
from repro.mpisim.communicator import Communicator
from repro.mpisim.constants import PROC_NULL
from repro.mpisim.exceptions import (
    CommRevokedError,
    InvalidRankError,
    RankDeadError,
)

EAGER = 256  # eager/rendezvous switch-over of the test worlds
SIZES = (8, 64, EAGER, 1000)  # the last one is a rendezvous
NRANKS = 3


class _Twin:
    """One of the two worlds, plus everything the scenario posted."""

    def __init__(self, dead_peer: bool) -> None:
        self.world = World(
            NRANKS, thread_level=THREAD_MULTIPLE, eager_threshold=EAGER
        )
        self.comms = [self.world.comm_world(r) for r in range(NRANKS)]
        # a second communicator over the same ranks, to be revoked
        cid = self.world.allocate_cid()
        self.others = [
            Communicator(
                self.world, self.world.engines[r], tuple(range(NRANKS)), cid
            )
            for r in range(NRANKS)
        ]
        if dead_peer:
            self.world.mark_rank_dead(2, RuntimeError("rank 2 died"))
        self.outcomes: list = []
        self.buffers: list[np.ndarray] = []

    def pump(self, rounds: int = 6) -> None:
        for _ in range(rounds):
            for eng in self.world.engines:
                if eng.rank not in self.world.dead_ranks:
                    eng.progress()

    def observe(self) -> dict:
        """Everything an application or a counter could tell apart."""
        seen = []
        for out in self.outcomes:
            if isinstance(out, BaseException):
                seen.append(("raised", type(out).__name__))
            else:
                st = out.status
                seen.append(
                    (
                        type(out).__name__,
                        out.done,
                        type(out.error).__name__,
                        None if st is None else (st.source, st.tag, st.count),
                    )
                )
        return {
            "outcomes": seen,
            "buffers": [b.tobytes() for b in self.buffers],
            "counters": [
                {
                    k: v
                    for k, v in eng.counters().items()
                    if k != "progress_calls"
                }
                for eng in self.world.engines
            ],
        }


def _scenario(seed: int) -> dict:
    rng = random.Random(seed)
    revoke = rng.random() < 0.4
    dead_peer = rng.random() < 0.3
    peers = [0, 1, 2, PROC_NULL]

    def payload(n: int) -> np.ndarray:
        return np.frombuffer(rng.randbytes(n), dtype=np.uint8).copy()

    # what rank 1 sent to rank 0 before the run: sits in 0's inbox
    early = [
        (rng.random() < 0.3, payload(rng.choice(SIZES)), rng.randrange(4))
        for _ in range(rng.randrange(4))
    ]
    ops = []
    for _ in range(rng.randrange(1, 12)):
        on_other = rng.random() < 0.3
        tag = rng.randrange(4)
        if rng.random() < 0.5:
            ops.append(
                ("send", on_other, payload(rng.choice(SIZES)), rng.choice(peers), tag)
            )
        else:
            src = rng.choice(peers + [ANY_SOURCE])
            if rng.random() < 0.3:
                tag = ANY_TAG
            ops.append(("recv", on_other, rng.choice(SIZES[1:]), src, tag))
    # after the run the peers receive whatever rank 0 sent them
    return {
        "revoke": revoke,
        "dead_peer": dead_peer,
        "early": early,
        "ops": ops,
    }


def _play(sc: dict, batched: bool) -> dict:
    tw = _Twin(sc["dead_peer"])
    eng = tw.world.engines[0]
    for on_other, data, tag in sc["early"]:
        comm = (tw.others if on_other else tw.comms)[1]
        tw.outcomes.append(comm.isend(data, 0, tag))
    if sc["revoke"]:
        tw.others[1].revoke()  # the notice is now in rank 0's inbox
        assert not tw.others[0].revoked  # ... and not yet handled
    run = []
    for kind, on_other, arg, peer, tag in sc["ops"]:
        comm = (tw.others if on_other else tw.comms)[0]
        if kind == "send":
            run.append(comm._p2p_op(True, arg, peer, tag))
        else:
            buf = np.zeros(arg, dtype=np.uint8)
            tw.buffers.append(buf)
            run.append(comm._p2p_op(False, buf, peer, tag))
    if batched:
        outcomes, raised = tw.comms[0]._post_run(run)
        assert raised == any(isinstance(o, Exception) for o in outcomes)
        tw.outcomes += outcomes
    else:
        for is_send, buf, peer, tag, ctx in run:
            post = eng.post_send if is_send else eng.post_recv
            try:
                tw.outcomes.append(post(buf, peer, tag, ctx))
            except Exception as exc:  # noqa: BLE001 - the outcome
                tw.outcomes.append(exc)
    # the peers take what they were sent: wildcard receives, in order
    for r in (1, 2):
        if r in tw.world.dead_ranks:
            continue
        for comm in (tw.comms[r], tw.others[r]):
            for _ in range(len(sc["ops"])):
                buf = np.zeros(SIZES[-1], dtype=np.uint8)
                tw.buffers.append(buf)
                try:
                    tw.outcomes.append(comm.irecv(buf, 0, ANY_TAG))
                except CommRevokedError as exc:
                    tw.outcomes.append(exc)
    tw.pump()
    return tw.observe()


@pytest.mark.parametrize("test_seed", [0, 1, 2, 3], indirect=True)
def test_batch_equals_call_by_call(test_seed):
    kinds = set()
    for i in range(150):
        seed = test_seed * 10_000 + i
        sc = _scenario(seed)
        one_by_one = _play(sc, batched=False)
        batched = _play(sc, batched=True)
        assert batched == one_by_one, f"scenario seed {seed}: {sc}"
        kinds.update(o[0] if o[0] != "raised" else o[1] for o in batched["outcomes"])
    # the generator reaches what the issue lists, every seed
    for want in (
        "SendRequest",
        "RecvRequest",
        "CompletedRequest",
        "CommRevokedError",
        "RankDeadError",
    ):
        assert want in kinds, f"never generated: {want}"


def _world_of_two():
    world = World(2, thread_level=THREAD_MULTIPLE)
    return world, world.engines[0], world.comm_world(0)


def test_failing_op_leaves_its_neighbours_posted():
    """Op k raises (dead peer), ops k-1 and k+1 are posted in order."""
    world = World(3, thread_level=THREAD_MULTIPLE)
    world.mark_rank_dead(2, RuntimeError("gone"))
    comm = world.comm_world(0)
    a, b, c = (np.full(4, v, dtype=np.uint8) for v in (1, 2, 3))
    out, raised = comm._post_run(
        [
            comm._p2p_op(True, a, 1, 7),
            comm._p2p_op(True, b, 2, 7),
            comm._p2p_op(True, c, 1, 7),
        ]
    )
    assert raised
    assert out[0].done and out[2].done
    assert isinstance(out[1], RankDeadError)
    peer = world.comm_world(1)
    got = np.zeros(4, dtype=np.uint8)
    for want in (1, 3):  # non-overtaking: a before c
        peer.recv(got, 0, 7)
        assert (got == want).all()


def test_validation_raises_before_the_substrate_is_entered():
    _, eng, comm = _world_of_two()
    with pytest.raises(InvalidRankError):
        comm._p2p_op(True, np.zeros(1, dtype=np.uint8), 2, 0)
    with pytest.raises(InvalidRankError):
        comm._p2p_op(True, np.zeros(1, dtype=np.uint8), ANY_SOURCE, 0)
    # wildcards are a receive's privilege
    op = comm._p2p_op(False, np.zeros(1, dtype=np.uint8), ANY_SOURCE, ANY_TAG)
    assert op[2:4] == (ANY_SOURCE, ANY_TAG)
    assert eng.counters()["bytes_sent"] == 0


def test_revoke_in_the_inbox_is_handled_before_the_run_posts():
    """Drain-then-check inside a run: the REVOKE notice waiting in the
    inbox is handled by the first receive's drain, and that receive is
    refused — not posted on a communicator about to be purged."""
    world = World(2, thread_level=THREAD_MULTIPLE)
    comm = world.comm_world(0)
    world.comm_world(1).revoke()
    assert not comm.revoked
    buf = np.zeros(8, dtype=np.uint8)
    out, raised = comm._post_run(
        [comm._p2p_op(False, buf, 1, 3), comm._p2p_op(True, buf, 1, 3)]
    )
    assert raised
    assert [type(o) for o in out] == [CommRevokedError, CommRevokedError]
    assert comm.revoked
    assert world.engines[0].pending_counts()["posted_recvs"] == 0
