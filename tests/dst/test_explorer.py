"""Tests for the schedule explorer: finding planted bugs, exhausting
small schedule trees, replaying failures from tokens, the counter /
linearizability plumbing, and placement (every virtual thread on the
first CPU of the caller's mask)."""

import os

import pytest

from repro.dst import hooks
from repro.dst.explorer import (
    Explorer,
    InvariantViolation,
    derive_seed,
)
from repro.dst.linearize import History, LinearizabilityError, QueueSpec
from repro.lockfree.atomics import AtomicCounter
from repro.obs.counters import Counters


class RacyProgram:
    """Two increments through a read-yield-write window: final value 1
    (a lost update) is reachable and must be found."""

    def __init__(self) -> None:
        self.value = 0

    def setup(self, sched) -> None:
        def inc() -> None:
            v = self.value
            hooks.yield_point("read")
            self.value = v + 1

        sched.spawn(inc, name="a")
        sched.spawn(inc, name="b")

    def check(self) -> None:
        if self.value != 2:
            raise InvariantViolation(f"lost update: value={self.value}")


class SafeProgram:
    """Same shape, but atomic: no schedule can break it."""

    def __init__(self) -> None:
        self.value = AtomicCounter(0)

    def setup(self, sched) -> None:
        for name in ("a", "b"):
            sched.spawn(lambda: self.value.fetch_add(1), name=name)

    def check(self) -> None:
        if self.value.load() != 2:
            raise InvariantViolation("atomic increment lost")


class BadHistoryProgram:
    """check() passes but the recorded history violates the spec, so
    only the linearizability oracle can catch it."""

    def __init__(self) -> None:
        self.history = History()
        self.spec = QueueSpec(capacity=4)

    def setup(self, sched) -> None:
        def body() -> None:
            rec = self.history.invoke("dequeue", ())
            self.history.respond(rec, (True, "ghost"))  # never enqueued

        sched.spawn(body)

    def check(self) -> None:
        pass


class TestExploration:
    def test_exhaustive_finds_lost_update(self):
        result = Explorer(RacyProgram, strategy="exhaustive").run()
        assert result.found
        assert result.failure.token[0] == "path"
        assert isinstance(result.failure.error, InvariantViolation)

    def test_exhaustive_exhausts_safe_program(self):
        result = Explorer(SafeProgram, strategy="exhaustive").run()
        assert not result.found
        assert result.exhausted
        assert result.runs >= 1

    def test_random_and_pct_find_lost_update(self):
        for strategy in ("random", "pct"):
            # PCT samples its priority-change points over the max_steps
            # horizon, so the horizon must match the program's actual
            # length for the preemption to land inside it
            result = Explorer(
                RacyProgram, strategy=strategy, schedules=100, max_steps=16
            ).run()
            assert result.found, strategy
            assert result.failure.token[0] == strategy

    def test_failure_carries_replay_hint(self):
        result = Explorer(RacyProgram, strategy="random", schedules=50).run()
        hint = result.failure.replay_hint()
        assert "REPRO_TEST_SEED" in hint
        assert str(result.failure.token[1]) in hint


class TestReplay:
    def test_path_token_reproduces_failure(self):
        result = Explorer(RacyProgram, strategy="exhaustive").run()
        token = result.failure.token
        replayed = Explorer(RacyProgram).replay(token)
        assert replayed is not None
        assert isinstance(replayed.error, InvariantViolation)

    def test_seed_token_reproduces_failure(self):
        result = Explorer(RacyProgram, strategy="random", schedules=50).run()
        seed = result.failure.token[1]
        # the bare-integer form is what REPRO_TEST_SEED carries
        replayed = Explorer(RacyProgram).replay(seed)
        assert replayed is not None

    def test_fixed_schedule_passes_on_fixed_program(self):
        result = Explorer(RacyProgram, strategy="exhaustive").run()
        token = result.failure.token
        assert Explorer(SafeProgram).replay(token) is None


class TestPlumbing:
    def test_counters_follow_obs_conventions(self):
        counters = Counters()
        Explorer(
            RacyProgram, strategy="exhaustive", counters=counters
        ).run()
        snap = counters.snapshot()
        assert snap["schedules_explored"] >= 1
        assert snap["yields"] >= 1
        assert snap["dst_violations"] == 1

    def test_linearizability_oracle_runs_automatically(self):
        counters = Counters()
        result = Explorer(
            BadHistoryProgram, strategy="exhaustive", counters=counters
        ).run()
        assert result.found
        assert isinstance(result.failure.error, LinearizabilityError)
        assert counters.snapshot()["lin_histories_checked"] == 1

    def test_derive_seed_injective_over_runs(self):
        seeds = {derive_seed(b, i) for b in range(3) for i in range(100)}
        assert len(seeds) == 300

    def test_uninstalls_scheduler_after_each_run(self):
        Explorer(RacyProgram, strategy="random", schedules=5).run()
        assert hooks.current() is None


class _MaskProgram:
    """Two virtual threads that record the CPU mask they run on."""

    def __init__(self, masks: list) -> None:
        self.masks = masks

    def setup(self, sched) -> None:
        def body() -> None:
            hooks.yield_point("x")
            self.masks.append(os.sched_getaffinity(0))

        sched.spawn(body, name="a")
        sched.spawn(body, name="b")

    def check(self) -> None:
        pass


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no affinity call"
)
class TestPlacement:
    def test_virtual_threads_run_on_the_first_cpu_of_the_callers_mask(
        self,
    ):
        launch = os.sched_getaffinity(0)
        masks: list = []
        res = Explorer(lambda: _MaskProgram(masks), schedules=3).run()
        assert not res.found and res.runs == 3
        assert masks == [{min(launch)}] * 6
        assert os.sched_getaffinity(0) == launch  # the caller's, as is

    def test_a_refused_binding_explores_unbound(self, monkeypatch):
        def refuse(pid, cpus) -> None:
            raise OSError("not permitted")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        launch = os.sched_getaffinity(0)
        masks: list = []
        res = Explorer(lambda: _MaskProgram(masks), schedules=2).run()
        assert not res.found and masks == [launch] * 4

    def test_an_error_in_exploration_reaches_the_caller(self):
        def broken() -> None:
            raise RuntimeError("no program")

        with pytest.raises(RuntimeError, match="no program"):
            Explorer(broken, schedules=1).run()
