"""ULFM recovery plane: revoke / agree / shrink semantics
(``Communicator`` layer and the offload facade; DESIGN.md §15)."""

import threading

import numpy as np
import pytest

from repro.core import OffloadError, RecoveryPolicy, offloaded
from repro.mpisim.exceptions import (
    CommRevokedError,
    RankDeadError,
    WorldError,
)
from tests.conftest import run_world, run_world_mt

pytestmark = pytest.mark.deadline(120)


def _cause_chain(exc):
    seen = []
    while exc is not None and exc not in seen:
        seen.append(exc)
        exc = exc.__cause__ or exc.__context__
    return seen


def _run_expecting_dead(world, prog, *args, dead=(), timeout=60):
    """Unwrap the WorldError entries that are just dead-rank records."""
    with pytest.raises(WorldError) as ei:
        world.run(prog, *args, timeout=timeout)
    assert set(ei.value.failures) == set(dead)


class TestRevoke:
    def test_future_ops_fail_typed(self):
        def prog(comm):
            # sync on the ft plane: a barrier here would race the
            # first rank's revoke notice against stragglers' pending
            # cid-0 barrier receives
            comm.agree(1)
            comm.revoke()
            assert comm.revoked
            with pytest.raises(CommRevokedError):
                comm.send(np.ones(1), (comm.rank + 1) % comm.size, tag=0)
            with pytest.raises(CommRevokedError):
                comm.recv(np.empty(1), (comm.rank - 1) % comm.size, tag=0)
            return True

        assert all(run_world(2, prog))

    def test_pending_recv_poisoned_by_peer_revoke(self):
        posted = threading.Event()

        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(np.empty(4), 1, tag=7)
                posted.set()
                with pytest.raises(CommRevokedError):
                    req.wait(timeout=30)
            else:
                assert posted.wait(10)
                comm.revoke()
            return True

        assert all(run_world(2, prog))

    def test_revoke_is_idempotent_and_counted_once(self):
        def prog(comm):
            comm.agree(1)  # revoke-immune sync (see TestRevoke)
            comm.revoke()
            comm.revoke()
            comm.revoke()
            return comm.engine.comm_revokes

        assert run_world(2, prog) == [1, 1]


class TestAgree:
    def test_returns_bitwise_and_of_flags(self):
        def prog(comm):
            return comm.agree(0 if comm.rank == 1 else 1)

        assert run_world(3, prog) == [0, 0, 0]

    def test_all_ones_stays_one(self):
        def prog(comm):
            return comm.agree(1)

        assert run_world(3, prog) == [1, 1, 1]

    def test_works_on_revoked_communicator(self):
        def prog(comm):
            comm.agree(1)  # revoke-immune sync (see TestRevoke)
            comm.revoke()
            return comm.agree(1)

        assert run_world(2, prog) == [1, 1]

    def test_same_value_despite_participant_death(self):
        """A participant dying before it joins must not split the
        survivors' verdicts — the decisiveness guard forces re-rounds
        until the live-mask settles."""
        def prog(comm):
            if comm.rank == 2:
                comm.world.mark_rank_dead(
                    2, RuntimeError("died before agreeing")
                )
                raise comm.world.dead_ranks[2]
            return comm.agree(1)

        from repro.mpisim import World

        w = World(3)
        with pytest.raises(WorldError) as ei:
            w.run(prog, timeout=60)
        assert set(ei.value.failures) == {2}
        # Survivor return values are lost with WorldError; re-run
        # recording out-of-band to compare them.
        values = {}

        def prog2(comm):
            if comm.rank == 2:
                comm.world.mark_rank_dead(
                    2, RuntimeError("died before agreeing")
                )
                raise comm.world.dead_ranks[2]
            values[comm.rank] = comm.agree(1)

        w2 = World(3)
        with pytest.raises(WorldError):
            w2.run(prog2, timeout=60)
        assert set(values) == {0, 1}
        assert values[0] == values[1]

    def test_back_to_back_agreements_stay_epoch_aligned(self):
        def prog(comm):
            out = []
            for i in range(5):
                out.append(comm.agree(1 if (i + comm.rank) else 1))
            return out

        assert run_world(3, prog) == [[1] * 5] * 3


class TestShrink:
    def test_survivors_get_renumbered_working_comm(self):
        values = {}

        def prog(comm):
            if comm.rank == 1:
                comm.world.mark_rank_dead(1, RuntimeError("fail-stop"))
                raise comm.world.dead_ranks[1]
            comm.revoke()
            new = comm.shrink()
            # old-group order preserved: 0 -> 0, 2 -> 1
            values[comm.rank] = (new.size, new.rank)
            assert not new.revoked
            out = new.allreduce(np.full(2, float(new.rank + 1)))
            np.testing.assert_array_equal(out, np.full(2, 3.0))
            return True

        w_ranks = 3
        from repro.mpisim import World

        w = World(w_ranks)
        with pytest.raises(WorldError) as ei:
            w.run(prog, timeout=60)
        assert set(ei.value.failures) == {1}
        assert values == {0: (2, 0), 2: (2, 1)}
        assert w.engines[0].shrink_epochs == 1
        assert w.engines[2].shrink_epochs == 1

    def test_shrink_without_death_keeps_everyone(self):
        def prog(comm):
            comm.agree(1)  # revoke-immune sync (see TestRevoke)
            comm.revoke()
            new = comm.shrink()
            assert (new.size, new.rank) == (comm.size, comm.rank)
            return float(new.allreduce(np.ones(1))[0])

        assert run_world(3, prog) == [3.0, 3.0, 3.0]


class TestOffloadFacade:
    """The fault-tolerance plane through ``OffloadCommunicator``."""

    def test_offloaded_op_on_revoked_comm_fails_typed(self):
        def prog(comm):
            rec = RecoveryPolicy(op_timeout=5.0)
            with offloaded(comm, recovery=rec) as oc:
                oc.agree(1)  # revoke-immune sync (see TestRevoke)
                oc.revoke()
                assert oc.revoked
                with pytest.raises((OffloadError, CommRevokedError)) as ei:
                    oc.allreduce(np.ones(1))
                assert any(
                    isinstance(e, CommRevokedError)
                    for e in _cause_chain(ei.value)
                )
            return True

        assert all(run_world_mt(2, prog))

    def test_facade_shrink_returns_working_facade(self):
        def prog(comm):
            rec = RecoveryPolicy(op_timeout=5.0)
            with offloaded(comm, recovery=rec) as oc:
                oc.agree(1)  # revoke-immune sync (see TestRevoke)
                oc.revoke()
                new = oc.shrink()
                assert new.engine is oc.engine
                out = new.allreduce(np.ones(3))
                np.testing.assert_array_equal(out, np.full(3, 2.0))
            return True

        assert all(run_world_mt(2, prog))

    def test_auto_revoke_on_dead_rank_with_shrink_policy(self):
        """``rank_failure='shrink'`` turns a dead-rank failure into an
        automatic revoke, so every rank (not just the one that tripped
        over the corpse) sees typed CommRevokedError and can recover.
        """
        dead_evt = threading.Event()
        rec = RecoveryPolicy(op_timeout=5.0, rank_failure="shrink")

        def prog(comm):
            if comm.rank == 2:
                comm.world.mark_rank_dead(
                    2, RuntimeError("fail-stop injected")
                )
                dead_evt.set()
                raise comm.world.dead_ranks[2]
            assert dead_evt.wait(10)
            with offloaded(comm, recovery=rec) as oc:
                with pytest.raises(OffloadError) as ei:
                    oc.recv(np.empty(1), 2, tag=3)
                # Either this rank tripped over the corpse itself
                # (RankDeadError) or a sibling's auto-revoke poisoned
                # the receive first (CommRevokedError) — both typed.
                assert any(
                    isinstance(e, (RankDeadError, CommRevokedError))
                    for e in _cause_chain(ei.value)
                )
                # the engine revoked the communicator on our behalf
                assert oc.revoked
                new = oc.shrink(timeout=20.0)
                out = new.allreduce(np.ones(1))
                assert out[0] == 2.0
            return True

        from repro.mpisim import THREAD_MULTIPLE, World

        w = World(3, thread_level=THREAD_MULTIPLE)
        _run_expecting_dead(w, prog, dead={2})
