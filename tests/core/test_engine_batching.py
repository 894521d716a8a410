"""Semantics of the batched issue loop.

The engine drains the command ring in batches and posts each run of
point-to-point commands under one substrate entry.  That may not be
visible to the application: per-peer program order is preserved, a
mid-batch crash fails the rest of the batch with typed errors, faults
hit single messages inside a run, and the chaos contract holds at
every batch size.
"""

import threading

import numpy as np
import pytest

from repro import obs
from repro.core import EnginePool, OffloadError, offloaded
from repro.core.offload_comm import OffloadCommunicator
from repro.core.request_pool import OffloadEngineDied, OffloadRequest
from repro.faults import FaultAction, FaultPlan, FaultRule
from repro.faults.chaos import run_chaos, render_report

from tests.conftest import run_world, run_world_mt


def _preloaded_engine(comm, **kwargs):
    """A pool of one whose shard gets commands queued *before* its
    thread starts, so the first drain deterministically pulls them as
    one batch; returns the shard and the facade."""
    pool = EnginePool(comm, **kwargs)
    return pool.engines[0], OffloadCommunicator(comm, pool)


class TestBatchOrdering:
    def test_in_batch_ordering_preserved_within_one_run(self):
        """A same-tag burst to one peer must arrive in program order
        when the whole burst is posted as one run."""

        def prog(comm):
            n = 24
            engine, oc = _preloaded_engine(comm, telemetry=True)
            bufs = [np.empty(1) for _ in range(n)]
            recvs = [oc.irecv(bufs[i], 0, tag=7) for i in range(n)]
            sends = [
                oc.isend(np.array([float(i)]), 0, tag=7) for i in range(n)
            ]
            engine.start()
            for h in recvs + sends:
                h.wait(timeout=30)
            engine.stop()
            # the burst was queued ahead of start, so it drained as one
            # batch and entered the substrate once
            assert engine.batch_size_hwm >= n
            assert engine.stats()["substrate_entries"] == 1
            return [int(b[0]) for b in bufs]

        assert run_world(1, prog) == [list(range(24))]

    def test_mixed_batch_recvs_break_runs_but_still_match(self):
        """Receives interleaved with sends share one run; the
        messages must still match pairwise in order."""

        def prog(comm):
            n = 12
            engine, oc = _preloaded_engine(comm, telemetry=True)
            bufs = [np.empty(1) for _ in range(n)]
            handles = []
            for i in range(n):
                # recv-send-recv-send-... interleaving
                handles.append(oc.irecv(bufs[i], 0, tag=i))
                handles.append(oc.isend(np.array([float(i * 3)]), 0, tag=i))
            engine.start()
            for h in handles:
                h.wait(timeout=30)
            engine.stop()
            return [int(b[0]) for b in bufs]

        assert run_world(1, prog) == [[i * 3 for i in range(12)]]

    def test_multi_peer_burst_lands_per_destination(self):
        """Sends alternating between two peers: data must land on the
        right rank in the right order."""

        def prog(comm):
            n = 8
            with offloaded(comm, telemetry=True) as oc:
                me = oc.rank
                others = [r for r in range(oc.size) if r != me]
                bufs = {r: [np.empty(1) for _ in range(n)] for r in others}
                recvs = [
                    oc.irecv(bufs[r][i], r, tag=i)
                    for r in others
                    for i in range(n)
                ]
                sends = [
                    oc.isend(np.array([float(me * 100 + i)]), r, tag=i)
                    for i in range(n)
                    for r in others
                ]
                for h in recvs + sends:
                    h.wait(timeout=30)
                return {
                    r: [int(b[0]) for b in bufs[r]] for r in others
                }

        got = run_world_mt(3, prog)
        for me, per_rank in enumerate(got):
            for src, values in per_rank.items():
                assert values == [src * 100 + i for i in range(8)]


class TestMidBatchCrash:
    def test_crash_mid_batch_fails_remaining_commands_typed(self):
        """A crash injected at command N of a single drained batch must
        terminal-fail every later command in that batch — no handle may
        hang, none may complete twice."""

        def prog(comm):
            n, crash_at = 8, 3
            plan = FaultPlan(
                [FaultRule(FaultAction.ENGINE_CRASH, after=crash_at, count=1)]
            )
            comm.world.install_faults(plan)
            engine, oc = _preloaded_engine(comm, telemetry=True)
            handles = [
                oc.isend(np.array([float(i)]), 0, tag=i) for i in range(n)
            ]
            engine.start()
            outcomes = []
            for h in handles:
                try:
                    h.wait(timeout=10)
                    outcomes.append("ok")
                except OffloadError:
                    outcomes.append("failed")
            # the first `crash_at` self-sends completed before the
            # crash; the crashing command and the rest of the batch all
            # failed typed
            assert outcomes == ["ok"] * crash_at + ["failed"] * (n - crash_at)
            assert isinstance(engine.dead, OffloadEngineDied)
            # telemetry balance: everything enqueued was drained, and
            # everything drained reached a terminal state
            snap = engine.telemetry_snapshot()
            assert snap["counters"]["enqueues"] == n
            ok, detail = obs.check_balance(snap)
            assert ok, detail
            assert snap["in_flight"] == 0
            engine.stop()
            return True

        assert all(run_world_mt(1, prog))

    def test_crash_mid_mixed_run_posts_the_admitted_prefix(self):
        """The same over one run of sends *and* receives: the commands
        admitted before the crash were accepted by a live engine and
        are posted — here the receives find their messages at the post
        — the crashing command and the tail fail typed."""

        def prog(comm):
            crash_at = 4
            plan = FaultPlan(
                [FaultRule(FaultAction.ENGINE_CRASH, after=crash_at, count=1)]
            )
            comm.world.install_faults(plan)
            engine, oc = _preloaded_engine(comm, telemetry=True)
            bufs = [np.full(1, -1.0) for _ in range(4)]
            handles = [
                oc.isend(np.array([10.0]), 0, tag=0),
                oc.isend(np.array([11.0]), 0, tag=1),
                oc.irecv(bufs[0], 0, tag=0),
                oc.irecv(bufs[1], 0, tag=1),
                oc.isend(np.array([12.0]), 0, tag=2),  # crashes here
                oc.irecv(bufs[2], 0, tag=2),
                oc.isend(np.array([13.0]), 0, tag=3),
                oc.irecv(bufs[3], 0, tag=3),
            ]
            engine.start()
            outcomes = []
            for h in handles:
                try:
                    h.wait(timeout=10)
                    outcomes.append("ok")
                except OffloadError:
                    outcomes.append("failed")
            assert outcomes == ["ok"] * crash_at + ["failed"] * 4
            assert [float(b[0]) for b in bufs] == [10.0, 11.0, -1.0, -1.0]
            assert isinstance(engine.dead, OffloadEngineDied)
            assert engine.stats()["substrate_entries"] == 1
            snap = engine.telemetry_snapshot()
            assert snap["counters"]["enqueues"] == len(handles)
            ok, detail = obs.check_balance(snap)
            assert ok, detail
            assert snap["in_flight"] == 0
            engine.stop()
            return True

        assert all(run_world_mt(1, prog))

    def test_crash_mid_send_run_fails_tail_posts_prefix(self):
        """A run of sends only: the prefix admitted before the crash
        is posted under the run's one substrate entry, the crashing
        command and the unprocessed tail fail typed, nothing
        vanishes."""

        def prog(comm):
            n, crash_at = 8, 2
            plan = FaultPlan(
                [FaultRule(FaultAction.ENGINE_CRASH, after=crash_at, count=1)]
            )
            comm.world.install_faults(plan)
            engine, oc = _preloaded_engine(comm, telemetry=True)
            handles = [
                oc.isend(np.array([float(i)]), 0, tag=i) for i in range(n)
            ]
            engine.start()
            for h in handles[:crash_at]:
                h.wait(timeout=10)
            for h in handles[crash_at:]:
                with pytest.raises(OffloadError):
                    h.wait(timeout=10)
            assert engine.stats()["substrate_entries"] == 1
            snap = engine.telemetry_snapshot()
            assert snap["counters"]["enqueues"] == n
            ok, detail = obs.check_balance(snap)
            assert ok, detail
            engine.stop()
            return True

        assert all(run_world_mt(1, prog))


class TestMessageFaultsInRun:
    @pytest.mark.parametrize("zero_copy", [False, True])
    def test_drop_window_inside_one_run(self, zero_copy):
        """Message-scope faults are batch-invisible: a DROP window over
        a burst posted as one run loses exactly the messages it names,
        the rest arrive in program order, every send is terminal."""
        from repro.mpisim import THREAD_MULTIPLE, World

        n, skip, k = 10, 2, 3
        plan = FaultPlan(
            [
                FaultRule(
                    FaultAction.DROP,
                    rank=1,
                    kind="eager",
                    tag=7,
                    after=skip,
                    count=k,
                )
            ]
        )

        def prog(comm):
            if comm.rank == 1:
                got = []
                buf = np.empty(1)
                for _ in range(n - k):
                    comm.recv(buf, 0, tag=7)
                    got.append(int(buf[0]))
                return got
            engine, oc = _preloaded_engine(comm, telemetry=True)
            sends = [
                oc.isend(np.array([float(i)]), 1, tag=7) for i in range(n)
            ]
            engine.start()
            for h in sends:
                h.wait(timeout=30)  # dropped or matched: all terminal
            engine.stop()
            assert engine.batch_size_hwm >= n
            assert engine.stats()["substrate_entries"] == 1
            ok, detail = obs.check_balance(engine.telemetry_snapshot())
            assert ok, detail
            return None

        world = World(2, thread_level=THREAD_MULTIPLE, zero_copy=zero_copy)
        world.install_faults(plan)
        survivors = [i for i in range(n) if not skip <= i < skip + k]
        assert world.run(prog, timeout=60)[1] == survivors
        assert plan.stats()["fault_drop"] == k


class TestRunOutcomes:
    """One operation of a run failing says nothing about its
    neighbours: they are posted, in order, under the same substrate
    entry."""

    @staticmethod
    def _outcomes(handles):
        out = []
        for h in handles:
            try:
                h.wait(timeout=10)
                out.append(None)
            except OffloadError as exc:
                out.append(exc.__cause__)
        return out

    def test_invalid_rank_fails_only_its_command(self):
        from repro.mpisim.exceptions import InvalidRankError

        def prog(comm):
            engine, oc = _preloaded_engine(comm, telemetry=True)
            bufs = [np.empty(1), np.empty(1)]
            handles = [
                oc.irecv(bufs[0], 0, tag=0),
                oc.irecv(bufs[1], 0, tag=2),
                oc.isend(np.array([1.0]), 0, tag=0),
                oc.isend(np.array([9.0]), 5, tag=1),  # no rank 5
                oc.isend(np.array([2.0]), 0, tag=2),
            ]
            engine.start()
            got = self._outcomes(handles)
            assert got[:3] == [None] * 3 and got[4] is None
            assert isinstance(got[3], InvalidRankError)
            assert [float(b[0]) for b in bufs] == [1.0, 2.0]
            assert engine.stats()["substrate_entries"] == 1
            engine.stop()
            ok, detail = obs.check_balance(engine.telemetry_snapshot())
            assert ok, detail
            return True

        assert all(run_world_mt(1, prog))

    def test_dead_peer_fails_only_its_command(self):
        from repro.mpisim import THREAD_MULTIPLE, World
        from repro.mpisim.exceptions import RankDeadError

        world = World(3, thread_level=THREAD_MULTIPLE)
        world.mark_rank_dead(2, RuntimeError("rank 2 is gone"))
        comm = world.comm_world(0)
        engine, oc = _preloaded_engine(comm, telemetry=True)
        handles = [
            oc.isend(np.array([1.0]), 1, tag=0),
            oc.isend(np.array([2.0]), 2, tag=1),  # dead
            oc.irecv(np.empty(1), 2, tag=1),  # dead, nothing arrived
            oc.isend(np.array([3.0]), 1, tag=2),
        ]
        engine.start()
        got = self._outcomes(handles)
        engine.stop()
        assert got[0] is None and got[3] is None
        assert isinstance(got[1], RankDeadError)
        assert isinstance(got[2], RankDeadError)
        assert engine.stats()["substrate_entries"] == 1
        # both live sends reached rank 1, in order
        peer = world.comm_world(1)
        for want, tag in ((1.0, 0), (3.0, 2)):
            buf = np.empty(1)
            peer.recv(buf, 0, tag)
            assert float(buf[0]) == want

    def test_revoked_communicator_fails_its_run_not_the_next(self):
        from repro.mpisim.exceptions import CommRevokedError

        def prog(comm):
            other = comm.dup()
            engine, oc = _preloaded_engine(comm, telemetry=True)
            oc2 = OffloadCommunicator(other, oc.engine)
            bufs = [np.empty(1), np.empty(1)]
            handles = [
                oc.irecv(bufs[0], 0, tag=0),
                oc.isend(np.array([1.0]), 0, tag=0),
                oc2.isend(np.array([7.0]), 0, tag=0),  # revoked below
                oc2.irecv(np.empty(1), 0, tag=0),
                oc.irecv(bufs[1], 0, tag=1),
                oc.isend(np.array([2.0]), 0, tag=1),
            ]
            other.revoke()
            engine.start()
            got = self._outcomes(handles)
            assert [g is None for g in got] == [True, True, False, False, True, True]
            assert isinstance(got[2], CommRevokedError)
            assert isinstance(got[3], CommRevokedError)
            assert [float(b[0]) for b in bufs] == [1.0, 2.0]
            # three runs: a communicator change ends a run
            assert engine.stats()["substrate_entries"] == 3
            engine.stop()
            return True

        assert all(run_world_mt(1, prog))

    def test_command_without_communicator_fails_typed_engine_lives(self):
        """The facade never builds one, but a hand-made p2p command
        with no communicator fails only itself — it must not escape
        the run and take the engine thread down."""
        from repro.core.commands import Command, CommandKind as K

        def prog(comm):
            with offloaded(comm) as oc:
                engine = oc.engine
                slot = engine.pool.alloc()
                handle = OffloadRequest(engine.pool, slot)
                engine.submit(Command(K.ISEND, slot=slot, buf=np.zeros(1)))
                (cause,) = self._outcomes([handle])
                assert isinstance(cause, ValueError), cause
                assert "carries no communicator" in str(cause)
                assert engine.dead is None
                buf = np.empty(1)
                r = oc.irecv(buf, 0, tag=0)
                oc.isend(np.array([4.0]), 0, tag=0).wait(timeout=10)
                r.wait(timeout=10)
                return float(buf[0])

        assert run_world_mt(1, prog) == [4.0]


class TestShutdownRace:
    def test_producers_racing_stop_never_lose_a_command(self):
        """Threads flooding submits while the engine stops: every
        accepted handle reaches a terminal state (completed or typed
        error), and rejected submits raise typed — nothing hangs."""

        def prog(comm):
            engine = EnginePool(comm, telemetry=True).start()
            oc = OffloadCommunicator(comm, engine)
            results = {"ok": 0, "rejected": 0, "failed": 0}
            lock = threading.Lock()
            # set once a submit is accepted, so stop() races a flood
            # already under way rather than every producer's first call
            first_accepted = threading.Event()

            def producer(tid):
                for i in range(60):
                    try:
                        h = oc.isend(
                            np.array([float(i)]), 0, tag=tid * 100 + i
                        )
                    except OffloadEngineDied:
                        with lock:
                            results["rejected"] += 1
                        continue
                    first_accepted.set()
                    try:
                        h.wait(timeout=15)
                        with lock:
                            results["ok"] += 1
                    except OffloadError:
                        with lock:
                            results["failed"] += 1

            threads = [
                threading.Thread(target=producer, args=(t,))
                for t in range(4)
            ]
            for t in threads:
                t.start()
            # stop mid-flood; late submits race the ring close
            first_accepted.wait(timeout=5)
            try:
                engine.stop()
            except OffloadEngineDied:
                pass
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads), "producer hung"
            total = sum(results.values())
            assert total == 4 * 60, results
            # sends accepted before the close completed; a clean stop
            # fails nothing silently
            assert results["ok"] >= 1
            return True

        assert all(run_world_mt(1, prog, timeout=120))


@pytest.mark.chaos
class TestChaosWithBatching:
    def test_transient_profile_with_explicit_batch_size(self, monkeypatch):
        monkeypatch.setattr("repro.core.engine._BATCH", 4)
        report = run_chaos(
            nranks=2,
            rounds=8,
            seed=4,
            profile="transient",
            op_timeout=0.5,
            run_timeout=60.0,
        )
        assert report["ok"], render_report(report)
        assert report["balance"]["ok"]

    def test_messages_profile_batch_one_still_correct(self, monkeypatch):
        # a batch of one degenerates to the pre-batching loop; the
        # chaos contract must hold at both extremes
        monkeypatch.setattr("repro.core.engine._BATCH", 1)
        report = run_chaos(
            nranks=2,
            rounds=6,
            seed=6,
            profile="messages",
            op_timeout=0.4,
            run_timeout=60.0,
        )
        assert report["ok"], render_report(report)
