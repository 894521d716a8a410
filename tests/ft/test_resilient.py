"""``run_resilient``: checkpoint/restart epoch driver over the ULFM
plane, with the bitwise-deterministic CNN/QCD epoch workloads."""

import numpy as np
import pytest

from repro.faults.plan import FaultAction, FaultPlan, FaultRule
from repro.ft import DiskCheckpointStore, run_resilient
from repro.ft.workloads import CNNEpochApp, QCDEpochApp
from repro.mpisim import THREAD_MULTIPLE, World

pytestmark = pytest.mark.deadline(240)

SMALL_CNN = dict(
    epochs=3, batch=8, features=6, hidden=8, classes=3, units=4
)
SMALL_QCD = dict(epochs=3, sites=32, units=4, iters=2)


def _apps():
    return [CNNEpochApp(**SMALL_CNN), QCDEpochApp(**SMALL_QCD)]


def _reference(app_factory):
    report = run_resilient(app_factory, World(1, THREAD_MULTIPLE))
    assert report.ok, report
    return report.result


class DeathAt:
    """Wrap an epoch app so one rank dies at a chosen epoch."""

    def __init__(self, app, victim, at_epoch):
        self.app = app
        self.name = app.name
        self.epochs = app.epochs
        self.victim = victim
        self.at_epoch = at_epoch

    def init(self, comm):
        return self.app.init(comm)

    def step(self, comm, state, epoch):
        inner = getattr(comm, "inner", comm)
        if epoch == self.at_epoch and inner.engine.rank == self.victim:
            exc = RuntimeError(
                f"injected fail-stop at epoch {epoch}"
            )
            inner.world.mark_rank_dead(self.victim, exc)
            raise exc
        return self.app.step(comm, state, epoch)

    def snapshot(self, state):
        return self.app.snapshot(state)

    def restore(self, blob):
        return self.app.restore(blob)

    def finish(self, comm, state):
        return self.app.finish(comm, state)


class TestFaultFree:
    @pytest.mark.parametrize("nranks", [2, 3])
    def test_bitwise_identical_across_world_sizes(self, nranks):
        for app in _apps():
            ref = _reference(type(app)(**(
                SMALL_CNN if isinstance(app, CNNEpochApp) else SMALL_QCD
            )))
            report = run_resilient(app, World(nranks, THREAD_MULTIPLE))
            assert report.ok, report
            assert report.restarts == 0
            assert report.result == ref
            # every rank finished with the same bytes
            assert len(set(report.results.values())) == 1

    def test_report_counts_epochs_and_bytes(self):
        app = QCDEpochApp(**SMALL_QCD)
        report = run_resilient(app, World(2, THREAD_MULTIPLE))
        assert report.ok
        assert report.epochs == app.epochs
        assert report.checkpoint_bytes > 0
        assert report.dead == []
        assert report.unexpected == {}


class TestRecovery:
    def test_mid_step_death_restarts_and_matches_reference(self):
        ref = _reference(CNNEpochApp(**SMALL_CNN))
        app = DeathAt(CNNEpochApp(**SMALL_CNN), victim=2, at_epoch=1)
        report = run_resilient(app, World(3, THREAD_MULTIPLE))
        assert report.restarts >= 1
        assert report.dead == [2]
        assert report.ok, report.unexpected
        assert report.result == ref
        assert report.counters["comm_revokes"] >= 1
        assert report.counters["shrink_epochs"] >= 1
        assert report.counters["agree_rounds"] >= 1

    def test_disk_store_survives_and_replays(self, tmp_path):
        ref = _reference(QCDEpochApp(**SMALL_QCD))
        store = DiskCheckpointStore(str(tmp_path / "ck"))
        app = DeathAt(QCDEpochApp(**SMALL_QCD), victim=1, at_epoch=2)
        report = run_resilient(app, World(3, THREAD_MULTIPLE), store=store)
        assert report.ok, report.unexpected
        assert report.result == ref
        assert report.restarts >= 1
        # committed checkpoints are on disk, one per completed epoch
        assert store.epochs() == list(range(app.epochs))
        assert store.stats()["restarts"] == report.restarts

    def test_offload_path_with_fault_plan_crash(self):
        ref = _reference(CNNEpochApp(**SMALL_CNN))
        world = World(3, THREAD_MULTIPLE)
        world.install_faults(
            FaultPlan(
                [
                    FaultRule(
                        FaultAction.RANK_CRASH,
                        rank=2,
                        after=5,
                        count=1,
                        rule_id="resilient-test-crash",
                    )
                ]
            )
        )
        report = run_resilient(
            CNNEpochApp(**SMALL_CNN), world, offload=True
        )
        assert report.ok, report.unexpected
        assert report.dead == [2]
        assert report.restarts >= 1
        assert report.result == ref

    def test_max_restarts_bounds_death_spiral(self):
        class AlwaysDying(DeathAt):
            """The highest rank of every communicator dies in its
            first step — one death per recovery cycle, whatever the
            timing (membership is read from the communicator in hand,
            which only a shrink changes)."""

            def step(self, comm, state, epoch):
                inner = getattr(comm, "inner", comm)
                if (
                    len(inner.group) > 1
                    and inner.engine.rank == max(inner.group)
                ):
                    exc = RuntimeError("serial fail-stop")
                    inner.world.mark_rank_dead(inner.engine.rank, exc)
                    raise exc
                return self.app.step(comm, state, epoch)

        app = AlwaysDying(QCDEpochApp(**SMALL_QCD), victim=-1, at_epoch=-1)
        report = run_resilient(
            app, World(3, THREAD_MULTIPLE), max_restarts=1
        )
        # The typed outcome, not merely "not ok" (a deadlock is also
        # not ok): rank 2 dies, one recovery, rank 1 dies, and the
        # last survivor refuses the second recovery.
        assert not report.ok
        assert report.dead == [1, 2]
        assert report.restarts == 1
        assert report.unexpected == {
            0: "RuntimeError: rank 0: gave up after 1 restarts"
        }
