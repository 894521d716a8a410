"""The DST regression corpus: every fixed race must be rediscovered by
the explorer when its fix is disabled, pass clean when the fix is on
(the production classes, unmodified), and reproduce exactly from the
printed token.

The unmarked tests are the CI smoke subset (small bounded budgets); the
``-m dst`` tier re-runs the full corpus at its default budgets.
"""

import dataclasses

import pytest

from repro.core.engine import OffloadEngine
from repro.core.engine_pool import ShardRouter
from repro.core.request_pool import OffloadRequestPool, _Slot
from repro.dst.explorer import Explorer
from repro.dst.targets import CORPUS, run_corpus, run_target
from repro.lockfree.mpsc_queue import MPSCQueue
from repro.mpisim.communicator import Communicator
from repro.mpisim.progress import ProgressEngine
from repro.obs.counters import Counters

#: target -> (the part of its program the broken variant replaces, the
#: production class that part must be with the fix on)
PORTED = {
    "queue-close-enqueue": (lambda p: p.queue, MPSCQueue),
    "freelist-double-free": (lambda p: p.freelist._live, set),
    "engine-mid-batch-crash": (lambda p: p.engine, OffloadEngine),
    "routing-order": (lambda p: p.pool.router, ShardRouter),
    "eager-deferred-copy": (lambda p: p.world.engines[0], ProgressEngine),
    "rendezvous-split-reuse": (
        lambda p: p.world.engines[0],
        ProgressEngine,
    ),
    "agree-participant-crash": (lambda p: p.comms[0], Communicator),
    "shrink-inflight-eager": (lambda p: p.world.engines[1], ProgressEngine),
    "continuation-vs-crash": (lambda p: p.engine.pool, OffloadRequestPool),
    "continuation-double-fire": (lambda p: p.pool._slots[p.idx], _Slot),
}


class TestCorpusRegistry:
    def test_expected_targets_present(self):
        assert set(CORPUS) == {
            "queue-close-enqueue",
            "freelist-double-free",
            "engine-mid-batch-crash",
            "routing-order",
            "eager-deferred-copy",
            "rendezvous-split-reuse",
            "agree-participant-crash",
            "shrink-inflight-eager",
            "continuation-vs-crash",
            "continuation-double-fire",
            "continuation-vs-release",
            "park-vs-ring",
            "wait-vs-arrival",
            "flag-park-vs-set",
            "revoke-vs-post-recv",
            "land-vs-drain",
            "queue-linearizability",
            "freelist-linearizability",
            "pool-linearizability",
        }

    def test_regression_and_oracle_counts(self):
        regressions = [t for t in CORPUS.values() if t.regression]
        assert len(regressions) == 16
        assert len(CORPUS) - len(regressions) == 3

    def test_oracle_targets_reject_fix_disabled(self):
        with pytest.raises(ValueError, match="oracle"):
            run_target("queue-linearizability", fix_disabled=True)

    def test_a_proof_run_must_walk_the_recorded_tree(self, monkeypatch):
        name = "revoke-vs-post-recv"
        assert run_target(name).expected
        wrong = dataclasses.replace(CORPUS[name], tree=CORPUS[name].tree + 1)
        monkeypatch.setitem(CORPUS, name, wrong)
        outcome = run_target(name)
        assert not outcome.result.found and outcome.result.exhausted
        assert outcome.expected is False
        # off the row's default budget the run is a sample, not its proof
        assert run_target(name, schedules=3).expected

    @pytest.mark.parametrize("name", sorted(PORTED))
    def test_fix_on_runs_the_production_class(self, name):
        """The fix-on side is shipped code; only the broken side swaps
        in a harness variant."""
        part, production = PORTED[name]
        make = CORPUS[name].make
        assert type(part(make(False))) is production
        assert type(part(make(True))) is not production


class TestSmokeRegressions:
    """Each PR 4 race found within a bounded budget (the acceptance
    criterion), and the fixed code clean over the same budget."""

    @pytest.mark.parametrize(
        "name", ["queue-close-enqueue", "freelist-double-free"]
    )
    def test_exhaustive_targets_found_and_clean(self, name):
        broken = run_target(name, fix_disabled=True, schedules=500)
        assert broken.result.found and broken.expected
        assert broken.result.failure.token[0] == "path"
        fixed = run_target(name, fix_disabled=False, schedules=500)
        assert not fixed.result.found and fixed.expected
        # the whole schedule tree fits in the budget: the clean result
        # is a proof over all schedules, not a sample
        assert fixed.result.exhausted

    def test_mid_batch_crash_found_and_clean(self):
        broken = run_target(
            "engine-mid-batch-crash", fix_disabled=True, schedules=100
        )
        assert broken.result.found and broken.expected
        assert broken.result.failure.crash_site == "engine.dispatch"
        fixed = run_target(
            "engine-mid-batch-crash", fix_disabled=False, schedules=50
        )
        assert not fixed.result.found and fixed.expected


class TestPoolSmokeRegressions:
    """The sharded-pool race (routing stickiness) rediscovered within
    a bounded budget and clean once fixed."""

    @pytest.mark.parametrize("name, budget", [("routing-order", 100)])
    def test_pool_targets_found_and_clean(self, name, budget):
        broken = run_target(name, fix_disabled=True, schedules=budget)
        assert broken.result.found and broken.expected
        assert broken.result.failure.token[0] == "random"
        fixed = run_target(name, fix_disabled=False, schedules=50)
        assert not fixed.result.found and fixed.expected

    def test_routing_order_token_replays(self):
        broken = run_target(
            "routing-order", fix_disabled=True, schedules=100
        )
        kind, seed = broken.result.failure.token
        assert kind == "random"
        target = CORPUS["routing-order"]
        replayed = Explorer(lambda: target.make(True)).replay(seed)
        assert replayed is not None
        assert Explorer(lambda: target.make(False)).replay(seed) is None


class TestZeroCopySmokeRegression:
    """The deferred-copy window race (DESIGN.md §14) rediscovered
    within a bounded budget, clean when fixed, and replayable from the
    single printed token."""

    def test_eager_deferred_copy_found_and_clean(self):
        broken = run_target(
            "eager-deferred-copy", fix_disabled=True, schedules=100
        )
        assert broken.result.found and broken.expected
        fixed = run_target(
            "eager-deferred-copy", fix_disabled=False, schedules=50
        )
        assert not fixed.result.found and fixed.expected

    def test_eager_deferred_copy_token_replays(self):
        broken = run_target(
            "eager-deferred-copy", fix_disabled=True, schedules=100
        )
        kind, seed = broken.result.failure.token
        assert kind == "random"
        target = CORPUS["eager-deferred-copy"]
        replayed = Explorer(lambda: target.make(True)).replay(seed)
        assert replayed is not None
        # the exact schedule that exposed the premature completion
        # passes once completion is deferred to the match-time copy
        assert Explorer(lambda: target.make(False)).replay(seed) is None


class TestRendezvousSplitSmokeRegression:
    """The split rendezvous's reuse race (DESIGN.md §23): a sender
    completing after its own half is found within the target's budget,
    and the production countdown is clean over it."""

    def test_rendezvous_split_reuse_found_and_clean(self):
        broken = run_target("rendezvous-split-reuse", fix_disabled=True)
        assert broken.result.found and broken.expected
        assert "scribble" in str(broken.result.failure)
        fixed = run_target("rendezvous-split-reuse", fix_disabled=False)
        assert not fixed.result.found and fixed.expected


class TestFaultToleranceSmokeRegressions:
    """The ULFM recovery-plane races (DESIGN.md §15) rediscovered
    within a bounded budget, clean when fixed, and replayable from the
    single printed token."""

    @pytest.mark.parametrize(
        "name", ["agree-participant-crash", "shrink-inflight-eager"]
    )
    def test_ft_targets_found_and_clean(self, name):
        broken = run_target(name, fix_disabled=True, schedules=100)
        assert broken.result.found and broken.expected
        assert broken.result.failure.token[0] == "random"
        fixed = run_target(name, fix_disabled=False, schedules=50)
        assert not fixed.result.found and fixed.expected

    def test_agree_crash_token_replays_and_fix_survives(self):
        broken = run_target(
            "agree-participant-crash", fix_disabled=True, schedules=100
        )
        kind, seed = broken.result.failure.token
        assert kind == "random"
        target = CORPUS["agree-participant-crash"]
        replayed = Explorer(lambda: target.make(True)).replay(seed)
        assert replayed is not None
        # the exact schedule that split the survivors' verdicts passes
        # once agreement re-rounds until the live-mask is uniform
        assert Explorer(lambda: target.make(False)).replay(seed) is None


class TestContinuationSmokeRegressions:
    """The continuation-completion races (DESIGN.md §16) rediscovered
    within a bounded budget, clean when fixed, and replayable from the
    single printed token."""

    @pytest.mark.parametrize(
        "name, budget",
        [
            ("continuation-vs-crash", 400),
            ("continuation-double-fire", 300),
        ],
    )
    def test_continuation_targets_found_and_clean(self, name, budget):
        broken = run_target(name, fix_disabled=True, schedules=budget)
        assert broken.result.found and broken.expected
        assert broken.result.failure.token[0] == "random"
        fixed = run_target(name, fix_disabled=False, schedules=50)
        assert not fixed.result.found and fixed.expected

    def test_double_fire_token_replays_and_fix_survives(self):
        broken = run_target(
            "continuation-double-fire", fix_disabled=True, schedules=300
        )
        kind, seed = broken.result.failure.token
        assert kind == "random"
        target = CORPUS["continuation-double-fire"]
        replayed = Explorer(lambda: target.make(True)).replay(seed)
        assert replayed is not None
        # the exact schedule that double-delivered passes once the
        # cont_fired claim collapses the two fire attempts to one
        assert Explorer(lambda: target.make(False)).replay(seed) is None


    def test_register_vs_complete_is_clean_over_every_schedule(self):
        """The completer looks at ``cont`` without the lock; every
        order of (publish flag, look at cont) against (store cont,
        look at flag) must still deliver exactly once."""
        fixed = run_target("continuation-double-fire", strategy="exhaustive")
        assert not fixed.result.found and fixed.expected
        assert fixed.result.exhausted


    def test_register_vs_lock_free_release(self):
        """`release` takes no lock when it sees no continuation; the
        registrant's second look at the generation is what keeps a
        racing registration from being lost or inherited."""
        fixed = run_target("continuation-vs-release")
        assert not fixed.result.found and fixed.expected
        assert fixed.result.exhausted
        broken = run_target("continuation-vs-release", fix_disabled=True)
        assert broken.result.found and broken.expected
        token = broken.result.failure.token
        target = CORPUS["continuation-vs-release"]
        assert Explorer(lambda: target.make(False)).replay(token) is None


class TestDoneFlagPark:
    """A waiter parking on a done flag against its setter: publish then
    look on one side, register then look on the other (DESIGN.md §18)."""

    def test_no_schedule_loses_a_wake_up(self):
        fixed = run_target("flag-park-vs-set")
        assert not fixed.result.found and fixed.expected
        assert fixed.result.exhausted  # a proof, not a sample

    def test_registering_without_looking_again_is_rediscovered(self):
        broken = run_target("flag-park-vs-set", fix_disabled=True)
        assert broken.result.found and broken.expected
        # no timeout under the scheduler: the lost wake-up is a deadlock
        assert "blocked" in str(broken.result.failure.error)
        token = broken.result.failure.token
        target = CORPUS["flag-park-vs-set"]
        assert Explorer(lambda: target.make(True)).replay(token) is not None
        assert Explorer(lambda: target.make(False)).replay(token) is None


class TestRevokeVsPostedReceive:
    """ROADMAP item 0: a REVOKE handled by the drain inside
    ``post_recv`` must also refuse the receive being posted."""

    def test_found_and_clean(self):
        broken = run_target("revoke-vs-post-recv", fix_disabled=True)
        assert broken.result.found and broken.expected
        assert "still pending" in str(broken.result.failure.error)
        fixed = run_target("revoke-vs-post-recv")
        assert not fixed.result.found and fixed.expected
        assert fixed.result.exhausted
        token = broken.result.failure.token
        target = CORPUS["revoke-vs-post-recv"]
        assert Explorer(lambda: target.make(False)).replay(token) is None

    def test_found_and_clean_with_the_receive_inside_a_run(self):
        """The offload engine posts receives in runs (``post_batch``,
        DESIGN.md §19): same drain-then-check, same harness-injected
        break, every schedule."""
        make = CORPUS["revoke-vs-post-recv"].make
        broken = Explorer(
            lambda: make(True, in_run=True), strategy="exhaustive"
        ).run()
        assert broken.found
        assert "still pending" in str(broken.failure.error)
        fixed = Explorer(
            lambda: make(False, in_run=True), strategy="exhaustive"
        ).run()
        assert not fixed.found and fixed.exhausted
        replay = Explorer(lambda: make(False, in_run=True))
        assert replay.replay(broken.failure.token) is None


class TestWakeUpProtocol:
    """The engine loop's clear → look → park order (DESIGN.md §17)
    against a submit, an arrival and a remote completion."""

    def test_no_schedule_loses_a_wake_up(self):
        fixed = run_target("park-vs-ring")
        assert not fixed.result.found and fixed.expected
        # every interleaving of the three ringers with the real loop
        # was run: a proof, not a sample
        assert fixed.result.exhausted

    def test_looking_before_clearing_is_rediscovered(self):
        broken = run_target("park-vs-ring", fix_disabled=True)
        assert broken.result.found and broken.expected
        # a lost wake-up has no tick to rescue it under the scheduler
        assert "blocked" in str(broken.result.failure.error)
        token = broken.result.failure.token
        target = CORPUS["park-vs-ring"]
        assert Explorer(lambda: target.make(True)).replay(token) is not None
        assert Explorer(lambda: target.make(False)).replay(token) is None


class TestDrivenWaitProtocol:
    """A blocking substrate wait's register → clear → pump → look →
    park (DESIGN.md §17) against an arrival's publish → ring."""

    def test_no_schedule_loses_an_arrival(self):
        fixed = run_target("wait-vs-arrival")
        assert not fixed.result.found and fixed.expected
        assert fixed.result.exhausted

    def test_registering_after_the_look_is_rediscovered(self):
        broken = run_target("wait-vs-arrival", fix_disabled=True)
        assert broken.result.found and broken.expected
        # the waiter parks for ever on a message it already has
        assert "blocked" in str(broken.result.failure.error)
        token = broken.result.failure.token
        target = CORPUS["wait-vs-arrival"]
        assert Explorer(lambda: target.make(True)).replay(token) is not None
        assert Explorer(lambda: target.make(False)).replay(token) is None


class TestLandedQueueProtocol:
    """The asyncio bridge's publish → ring against the drain's clear →
    look (DESIGN.md §16–§17): two completers, one loop."""

    def test_no_schedule_strands_a_landed_completion(self):
        fixed = run_target("land-vs-drain")
        assert not fixed.result.found and fixed.expected
        # every interleaving of the queue and bell accesses was run
        assert fixed.result.exhausted

    def test_draining_before_clearing_is_rediscovered(self):
        broken = run_target("land-vs-drain", fix_disabled=True)
        assert broken.result.found and broken.expected
        assert broken.result.runs <= 100  # the stated bound (16 here)
        # the awaiter is never resolved: the loop has nothing scheduled
        assert "blocked" in str(broken.result.failure.error)
        token = broken.result.failure.token
        target = CORPUS["land-vs-drain"]
        assert Explorer(lambda: target.make(True)).replay(token) is not None
        assert Explorer(lambda: target.make(False)).replay(token) is None


class TestReplayContract:
    """A failure token is a complete reproduction recipe."""

    def test_token_replays_on_broken_program(self):
        broken = run_target(
            "freelist-double-free", fix_disabled=True, schedules=500
        )
        token = broken.result.failure.token
        target = CORPUS["freelist-double-free"]
        replayed = Explorer(lambda: target.make(True)).replay(token)
        assert replayed is not None
        assert type(replayed.error) is type(broken.result.failure.error)

    def test_same_schedule_passes_with_fix_enabled(self):
        broken = run_target(
            "queue-close-enqueue", fix_disabled=True, schedules=500
        )
        token = broken.result.failure.token
        target = CORPUS["queue-close-enqueue"]
        assert Explorer(lambda: target.make(False)).replay(token) is None

    def test_random_token_is_a_bare_seed_recipe(self):
        broken = run_target(
            "engine-mid-batch-crash", fix_disabled=True, schedules=100
        )
        kind, seed = broken.result.failure.token
        assert kind == "random"
        target = CORPUS["engine-mid-batch-crash"]
        replayed = Explorer(lambda: target.make(True)).replay(seed)
        assert replayed is not None


class TestCli:
    def test_single_target_exit_zero(self):
        from repro.__main__ import main

        assert main(["dst", "freelist-double-free"]) == 0

    def test_unknown_target_exit_two(self):
        from repro.__main__ import main

        assert main(["dst", "no-such-race"]) == 2

    def test_json_output(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["dst", "freelist-double-free", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]
        assert {o["target"] for o in payload["outcomes"]} == {
            "freelist-double-free"
        }
        assert payload["counters"]["schedules_explored"] > 0


@pytest.mark.dst
class TestDeepTier:
    """Full corpus at default budgets (the ``-m dst`` CI tier)."""

    def test_full_corpus_self_check(self):
        counters = Counters()
        outcomes = run_corpus(counters=counters)
        wrong = [o for o in outcomes if not o.expected]
        assert wrong == [], [
            (o.target, o.fix_disabled, o.result.found) for o in wrong
        ]
        # both directions ran: planted bugs found, fixed code clean
        assert sum(o.fix_disabled for o in outcomes) == 16
        assert len(outcomes) == 35
        snap = counters.snapshot()
        assert snap["schedules_explored"] > 0
        assert snap["lin_histories_checked"] > 0
        assert snap["dst_violations"] == 16
