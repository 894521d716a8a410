"""Chaos harness: seeded fault storms over the offloaded stack.

Drives a deterministic multi-rank workload (ring point-to-point plus
periodic allreduces, all eager-sized) through the offload engine while
a :class:`~repro.faults.plan.FaultPlan` drops, delays, duplicates,
stalls, errors, and crashes underneath it — then verifies the
robustness contract:

* **no hang** — every rank terminates within the run budget; every
  faulted operation resolves with a success or a *typed* exception
  (:class:`~repro.core.request_pool.OffloadError` family or
  :class:`~repro.mpisim.exceptions.MPIError` family) within its
  deadline;
* **no lost completion** — the balance law
  ``enqueued == drained == completions + control + in_flight`` holds
  on every engine's final snapshot;
* **no silent failure** — anything outside the typed families is
  reported as an unexpected error and fails the run.

Entry points: :func:`run_chaos` (library) and ``python -m repro chaos``
(CLI; exits nonzero when the contract is violated).
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.core.interpose import offloaded
from repro.core.recovery import RecoveryPolicy, RetryPolicy
from repro.core.request_pool import OffloadError
from repro.faults.plan import FaultAction, FaultPlan, FaultRule
from repro.mpisim.exceptions import MPIError, WorldError
from repro.mpisim.world import World
from repro.obs.report import check_balance, merge

#: Fault profiles selectable from the CLI.
PROFILES = (
    "messages",
    "stragglers",
    "transient",
    "crash",
    "shard-crash",
    "mixed",
    "rank-crash-survive",
)


def default_plan(
    nranks: int, seed: int = 0, profile: str = "mixed"
) -> FaultPlan:
    """A bounded fault storm for ``nranks`` ranks.

    Every rule is windowed (``count``) so the storm is finite and the
    run converges; message rules target EAGER traffic only (control
    envelopes are never dropped, so rendezvous cannot be stranded
    outside the deadline machinery's reach).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown chaos profile {profile!r}")
    if profile == "rank-crash-survive":
        return crash_survive_plan(nranks, seed=seed)
    plan = FaultPlan(seed=seed)
    if profile in ("messages", "mixed"):
        plan.add(
            FaultRule(
                FaultAction.DROP, kind="eager", probability=0.05, count=6
            )
        )
        plan.add(
            FaultRule(
                FaultAction.DELAY,
                kind="eager",
                probability=0.05,
                delay=0.02,
                count=6,
            )
        )
        plan.add(
            FaultRule(
                FaultAction.DUPLICATE,
                kind="eager",
                probability=0.05,
                count=4,
            )
        )
    if profile in ("stragglers", "mixed"):
        plan.add(
            FaultRule(
                FaultAction.SLOW_RANK,
                rank=nranks - 1,
                probability=0.02,
                duration=0.01,
                count=8,
            )
        )
        plan.add(
            FaultRule(
                FaultAction.STALL,
                rank=0,
                after=20,
                duration=0.05,
                count=2,
            )
        )
    if profile in ("transient", "mixed"):
        plan.add(
            FaultRule(
                FaultAction.COMMAND_ERROR,
                probability=0.08,
                count=10,
            )
        )
    if profile in ("crash", "mixed"):
        plan.add(
            FaultRule(
                FaultAction.ENGINE_CRASH,
                rank=min(1, nranks - 1),
                after=25,
                count=1,
            )
        )
    if profile == "shard-crash":
        # One engine-thread crash under load against a *sharded* pool
        # (run_chaos widens pool_size for this profile): exactly one
        # shard dies mid-storm, its pending work fails typed, sibling
        # shards keep completing, and the balance law must still hold
        # on every shard — plus light eager delay noise so routing
        # stays busy while the crash lands.
        plan.add(
            FaultRule(
                FaultAction.ENGINE_CRASH,
                rank=min(1, nranks - 1),
                after=25,
                count=1,
            )
        )
        plan.add(
            FaultRule(
                FaultAction.DELAY,
                kind="eager",
                probability=0.05,
                delay=0.01,
                count=8,
            )
        )
    return plan


def crash_survive_plan(
    nranks: int, seed: int = 0, ncrashes: int | None = None
) -> FaultPlan:
    """Seeded fail-stop deaths for the ``rank-crash-survive`` profile.

    RANK_CRASH rules **only**: the ULFM recovery plane's agreement
    traffic is eager-kind, so message DROP rules could stall the
    recovery protocol itself — this profile injects pure fail-stop
    deaths and leaves delivery intact, which is exactly the ULFM fault
    model.  ``after`` windows are kept small so every death lands
    while the workload's epochs are still issuing commands.
    """
    import random

    rng = random.Random(f"crash-survive:{seed}")
    if ncrashes is None:
        ncrashes = max(1, min(nranks - 2, nranks // 2))
    victims = rng.sample(range(nranks), ncrashes)
    plan = FaultPlan(seed=seed)
    for i, victim in enumerate(victims):
        plan.add(
            FaultRule(
                FaultAction.RANK_CRASH,
                rank=victim,
                after=rng.randint(3, 8),
                count=1,
                rule_id=f"ft-crash-{i}",
            )
        )
    return plan


def run_crash_survive(
    nranks: int = 4,
    seed: int = 0,
    run_timeout: float = 120.0,
    plan: FaultPlan | None = None,
) -> dict:
    """The ``rank-crash-survive`` chaos profile: finish, don't fail fast.

    Drives the paper's two end-to-end workloads (the Fig. 14 CNN
    trainer and the Fig. 9 QCD solver loop, in resilient epoch form)
    through :func:`repro.ft.resilient.run_resilient` over the offload
    engine while a seeded plan crashes ranks.  The contract is
    stronger than the other profiles' no-hang/typed-failure check:

    * the run **completes** — survivors shrink around the dead and
      finish every epoch (``restarts >= 1`` proves recovery ran);
    * the survivors' results are **bitwise identical** to a fault-free
      single-rank reference run of the same workload.
    """
    from repro.ft.resilient import run_resilient
    from repro.ft.workloads import CNNEpochApp, QCDEpochApp
    from repro.mpisim.constants import ThreadLevel

    ft: dict[str, dict] = {}
    unexpected: dict[str, str] = {}
    fault_stats: dict[str, int] = {}
    total_restarts = 0
    for App in (CNNEpochApp, QCDEpochApp):
        app = App(seed=seed)
        reference = run_resilient(
            App(seed=seed),
            World(1, thread_level=ThreadLevel.MULTIPLE),
            run_timeout=run_timeout,
        )
        world = World(nranks, thread_level=ThreadLevel.MULTIPLE)
        wplan = plan or crash_survive_plan(nranks, seed=seed)
        world.install_faults(wplan)
        report = run_resilient(
            app, world, offload=True, run_timeout=run_timeout
        )
        bitwise = (
            report.result is not None
            and report.result == reference.result
        )
        ft[app.name] = {
            "ok": report.ok and bitwise and report.restarts >= 1,
            "bitwise": bitwise,
            "restarts": report.restarts,
            "dead": report.dead,
            "survivors": sorted(report.results),
            "checkpoint_bytes": report.checkpoint_bytes,
            **report.counters,
        }
        for rank, msg in report.unexpected.items():
            unexpected[f"{app.name}:r{rank}"] = msg
        for k, v in wplan.stats().items():
            fault_stats[k] = fault_stats.get(k, 0) + v
        total_restarts += report.restarts
        # fresh plan per workload: count windows are consumed
        plan = None
    ok = all(d["ok"] for d in ft.values()) and not unexpected
    return {
        "ok": ok,
        "nranks": nranks,
        "rounds": sum(
            App(seed=seed).epochs for App in (CNNEpochApp, QCDEpochApp)
        ),
        "seed": seed,
        "profile": "rank-crash-survive",
        "pool_size": 1,
        "pool": {},
        "ops": sum(d["restarts"] + 1 for d in ft.values()),
        "completed_ok": sum(1 for d in ft.values() if d["ok"]),
        "typed_failures": {},
        "wait_timeouts": 0,
        "hangs": [],
        "unexpected_errors": unexpected,
        "degraded_exits": [],
        "faults": fault_stats,
        "recovered": {"restarts": total_restarts},
        "balance": {"ok": True},
        "balance_violations": [],
        "ft": ft,
    }


def _attempt(report: dict, fn) -> None:
    """Run one operation; success or *typed* failure both count."""
    report["ops"] += 1
    try:
        fn()
        report["ok"] += 1
    except (OffloadError, MPIError) as exc:
        name = type(exc).__name__
        report["failed"][name] = report["failed"].get(name, 0) + 1
    except TimeoutError:
        # Caller-side wait timeout: the engine's own deadline should
        # have fired first, so this is a contract violation.
        report["wait_timeouts"] += 1


def _rank_program(
    comm,
    rounds: int,
    payload_bytes: int,
    recovery: RecoveryPolicy,
    reports: list,
    lock: threading.Lock,
    pool_size: int = 1,
    router: str = "dest",
) -> None:
    rank, size = comm.rank, comm.size
    report: dict[str, Any] = {
        "rank": rank,
        "ops": 0,
        "ok": 0,
        "failed": {},
        "wait_timeouts": 0,
        "degraded_exit": False,
        "dead_shards": 0,
        "snapshot": None,
        "shard_snapshots": [],
    }
    n = max(1, payload_bytes)
    sbuf = np.full(n, rank % 251, dtype=np.uint8)
    rbuf = np.empty(n, dtype=np.uint8)
    acc = np.ones(8, dtype=np.int64)
    # The caller-side wait budget sits well above the engine deadline,
    # so the engine's typed OffloadTimeout always fires first.
    wait_budget = 4 * recovery.op_timeout + 1.0
    with offloaded(
        comm,
        recovery=recovery,
        pool_size=pool_size if pool_size > 1 else None,
        router=router,
    ) as oc:
        # ``holder`` is the EnginePool; ``dead`` is only non-None once
        # *no* shard can serve (a pool with one dead shard keeps
        # running: its streams are remapped to survivors).
        holder = oc.engine
        for rnd in range(rounds):
            if holder.dead is not None:
                # Engine died (injected crash / watchdog): exercise the
                # degraded inline path with hazard-free operations —
                # a probe and an eager fire-and-forget send — then
                # leave the loop.
                _attempt(report, lambda: oc.iprobe(rank, tag=999))
                _attempt(
                    report,
                    lambda: oc.isend(
                        sbuf, (rank + 1) % size, tag=10_000 + rnd
                    ).wait(wait_budget),
                )
                report["degraded_exit"] = True
                break
            dst = (rank + 1) % size
            src = (rank - 1) % size
            rreq = oc.irecv(rbuf, src, tag=rnd)
            sreq = oc.isend(sbuf, dst, tag=rnd)
            _attempt(report, lambda: sreq.wait(wait_budget))
            _attempt(report, lambda: rreq.wait(wait_budget))
            if rnd % 5 == 4:
                _attempt(report, lambda: oc.allreduce(acc))
        try:
            oc.flush()
        except (OffloadError, MPIError):
            pass
        engines = holder.engines
        report["dead_shards"] = sum(
            1 for e in engines if e.dead is not None
        )
        # Each shard drains only its own ring: the balance law holds
        # shard by shard, not only on the pool-merged snapshot.
        report["snapshot"] = holder.telemetry_snapshot()
        report["shard_snapshots"] = [
            e.telemetry_snapshot() for e in engines
        ]
        stats = holder.stats()
        report["stats"] = {
            k: stats.get(k, 0)
            for k in (
                "retries",
                "deadline_expirations",
                "watchdog_trips",
                "degraded_mode_commands",
                "router_misroutes",
            )
        }
    with lock:
        reports.append(report)


def run_serve_chaos(
    rounds: int = 40,
    seed: int = 0,
    profile: str = "mixed",
    op_timeout: float = 1.0,
    run_timeout: float = 120.0,
    pool_size: int = 1,
    plan: FaultPlan | None = None,
) -> dict:
    """Chaos with the serving front-end as the workload.

    Runs the seeded loadgen (closed loop, tenant mix, sharded pool)
    on a single rank while the profile's fault plan drops, delays,
    errors, and crashes underneath it.  The contract is the ring
    workload's — no hang, typed failures only, balance law intact —
    plus the serving tier's own: **zero lost completions** (every
    admitted request reaches completed/failed/rejected) and exactly
    one continuation fire per offloaded command.
    """
    from repro.serve.loadgen import LoadgenConfig, run_loadgen

    if profile == "rank-crash-survive":
        raise ValueError(
            "rank-crash-survive drives the resilient epoch workloads; "
            "the serve workload has no multi-rank membership to shrink"
        )
    config = LoadgenConfig(
        seed=seed,
        requests=max(1, rounds) * 5,
        concurrency=32,
        pool_size=max(2, pool_size),
        op_timeout=op_timeout,
        run_timeout=run_timeout,
    )
    recovery = RecoveryPolicy(
        retry=RetryPolicy(max_retries=2, base_backoff=1e-4),
        watchdog_timeout=max(10.0, 4 * op_timeout),
        degrade=True,
    )
    if plan is None:
        plan = default_plan(1, seed=seed, profile=profile)
    hangs: list[int] = []
    unexpected: dict[int, str] = {}
    report = None
    try:
        report = run_loadgen(config, faults=plan, recovery=recovery)
    except WorldError as we:
        for rank, exc in we.failures.items():
            if isinstance(exc, TimeoutError):
                hangs.append(rank)
            else:
                unexpected[rank] = f"{type(exc).__name__}: {exc}"
    serve: dict[str, Any] = {}
    typed_failures: dict[str, int] = {}
    balance_ok, balance_detail = True, {}
    ops = completed = 0
    if report is not None:
        ops = report.issued
        completed = report.completed
        typed_failures = dict(report.failed)
        balance_ok, balance_detail = (
            report.balance_ok,
            report.balance_detail,
        )
        serve = {
            "rejected": report.rejected,
            "lost": report.lost,
            "continuation_fires": report.continuation_fires,
            "continuation_drops": report.continuation_drops,
            "slo": report.slo.render(),
            "per_tenant": report.per_tenant,
        }
    ok = (
        report is not None
        and not hangs
        and not unexpected
        and balance_ok
        and report.lost == 0
    )
    return {
        "ok": ok,
        "nranks": 1,
        "rounds": rounds,
        "seed": seed,
        "profile": profile,
        "pool_size": config.pool_size,
        "pool": {},
        "ops": ops,
        "completed_ok": completed,
        "typed_failures": typed_failures,
        "wait_timeouts": 0,
        "hangs": sorted(hangs),
        "unexpected_errors": unexpected,
        "degraded_exits": [],
        "faults": plan.stats(),
        "recovered": {},
        "balance": {"ok": balance_ok, **balance_detail},
        "balance_violations": [],
        "serve": serve,
    }


def run_chaos(
    nranks: int = 4,
    rounds: int = 40,
    seed: int = 0,
    payload_bytes: int = 2048,
    op_timeout: float = 1.0,
    profile: str = "mixed",
    run_timeout: float = 120.0,
    plan: FaultPlan | None = None,
    pool_size: int = 1,
    router: str = "dest",
    zero_copy: bool = False,
    workload: str = "ring",
) -> dict:
    """One seeded chaos run; returns a structured verdict report.

    ``report["ok"]`` is True iff no rank hung, every failure was typed,
    and the balance law held on every engine.

    ``pool_size > 1`` runs each rank on a sharded
    :class:`~repro.core.engine_pool.EnginePool` and checks the balance
    law on every shard; the ``shard-crash`` profile defaults to a
    4-shard pool (one shard dies under load, the pool must survive with
    every shard's balance intact).

    ``zero_copy=True`` runs the storm over the zero-copy data plane
    (DESIGN.md §14) — eager sends borrow user buffers and complete at
    match time, so DROP/DUPLICATE rules exercise the fault hooks'
    send-request completion and deep-copy paths.
    """
    if workload == "serve":
        # The serving front-end as the thing the faults break: the
        # loadgen's concurrent awaiters replace the ring storm.
        return run_serve_chaos(
            rounds=rounds,
            seed=seed,
            profile=profile,
            op_timeout=op_timeout,
            run_timeout=run_timeout,
            pool_size=pool_size,
            plan=plan,
        )
    if workload != "ring":
        raise ValueError(f"unknown chaos workload {workload!r}")
    if profile == "rank-crash-survive":
        # Entirely different contract (complete + bitwise-correct
        # instead of fail-typed); delegated to the resilient driver.
        return run_crash_survive(
            nranks=nranks, seed=seed, run_timeout=run_timeout, plan=plan
        )
    if profile == "shard-crash" and pool_size == 1:
        pool_size = 4
    # One policy for every rank: built here, so a malformed deadline
    # raises before any rank starts.
    recovery = RecoveryPolicy(
        retry=RetryPolicy(
            max_retries=3, base_backoff=1e-4, max_backoff=5e-3
        ),
        op_timeout=op_timeout,
        watchdog_timeout=max(2.0, 2 * op_timeout),
        degrade=True,
    )
    if plan is None:
        plan = default_plan(nranks, seed=seed, profile=profile)
    if pool_size > 1:
        # Several offload threads per rank enter MPI concurrently.
        from repro.mpisim.constants import ThreadLevel

        world = World(
            nranks,
            thread_level=ThreadLevel.MULTIPLE,
            zero_copy=zero_copy,
        )
    else:
        world = World(nranks, zero_copy=zero_copy)
    world.install_faults(plan)
    reports: list[dict] = []
    lock = threading.Lock()
    hangs: list[int] = []
    unexpected: dict[int, str] = {}
    # Typed families the contract allows; FaultInjectionError appears in
    # WorldError via the dead-rank bookkeeping even when the rank
    # program itself degraded gracefully (crash profiles).
    from repro.faults.plan import FaultInjectionError

    expected_kinds = (OffloadError, MPIError, FaultInjectionError)
    try:
        world.run(
            _rank_program,
            rounds,
            payload_bytes,
            recovery,
            reports,
            lock,
            pool_size,
            router,
            timeout=run_timeout,
        )
    except WorldError as we:
        for rank, exc in we.failures.items():
            if isinstance(exc, TimeoutError):
                hangs.append(rank)
            elif not isinstance(exc, expected_kinds):
                unexpected[rank] = f"{type(exc).__name__}: {exc}"
    snapshots = [r["snapshot"] for r in reports if r.get("snapshot")]
    merged = merge(snapshots)
    balance_ok, balance_detail = (
        check_balance(merged) if snapshots else (True, {})
    )
    per_engine_violations = []
    for r in reports:
        for shard, snap in enumerate(r["shard_snapshots"]):
            ok, detail = check_balance(snap)
            if not ok:
                per_engine_violations.append(
                    {"rank": r["rank"], "shard": shard, **detail}
                )
    failed: dict[str, int] = {}
    for r in reports:
        for name, cnt in r["failed"].items():
            failed[name] = failed.get(name, 0) + cnt
    wait_timeouts = sum(r["wait_timeouts"] for r in reports)
    recovered = {
        k: sum(r.get("stats", {}).get(k, 0) for r in reports)
        for k in (
            "retries",
            "deadline_expirations",
            "watchdog_trips",
            "degraded_mode_commands",
        )
    }
    pool_detail = {
        "router_misroutes": sum(
            r.get("stats", {}).get("router_misroutes", 0) for r in reports
        ),
        "dead_shards": sum(r.get("dead_shards", 0) for r in reports),
    }
    ok = (
        not hangs
        and not unexpected
        and balance_ok
        and not per_engine_violations
        and wait_timeouts == 0
        and len(reports) >= nranks - len(hangs)
    )
    return {
        "ok": ok,
        "nranks": nranks,
        "rounds": rounds,
        "seed": seed,
        "profile": profile,
        "pool_size": pool_size,
        "pool": pool_detail,
        "ops": sum(r["ops"] for r in reports),
        "completed_ok": sum(r["ok"] for r in reports),
        "typed_failures": failed,
        "wait_timeouts": wait_timeouts,
        "hangs": sorted(hangs),
        "unexpected_errors": unexpected,
        "degraded_exits": [
            r["rank"] for r in reports if r["degraded_exit"]
        ],
        "faults": plan.stats(),
        "recovered": recovered,
        "balance": {"ok": balance_ok, **balance_detail},
        "balance_violations": per_engine_violations,
    }


def render_report(report: dict) -> str:
    """Human-readable chaos verdict block."""
    lines = [
        f"chaos: seed={report['seed']} profile={report['profile']} "
        f"ranks={report['nranks']} rounds={report['rounds']}",
        f"  ops={report['ops']} ok={report['completed_ok']} "
        f"typed_failures={report['typed_failures'] or '{}'}",
        f"  faults_injected={report['faults'].get('faults_injected', 0)} "
        f"({ {k: v for k, v in report['faults'].items() if k.startswith('fault_')} })",
        f"  recovered={report['recovered']}",
        f"  pool_size={report.get('pool_size', 1)} "
        f"pool={report.get('pool', {})}",
        f"  degraded_exits={report['degraded_exits']}",
        "  balance: "
        + " ".join(
            f"{k}={v}" for k, v in report["balance"].items() if k != "ok"
        )
        + (" OK" if report["balance"]["ok"] else " IMBALANCED"),
    ]
    if report["hangs"]:
        lines.append(f"  HANGS: ranks {report['hangs']}")
    if report["wait_timeouts"]:
        lines.append(f"  WAIT TIMEOUTS: {report['wait_timeouts']}")
    if report["unexpected_errors"]:
        lines.append(f"  UNEXPECTED: {report['unexpected_errors']}")
    if report["balance_violations"]:
        lines.append(f"  VIOLATIONS: {report['balance_violations']}")
    serve = report.get("serve")
    if serve:
        lines.append(
            f"  serve: rejected={serve['rejected']} "
            f"lost={serve['lost']} "
            f"fires={serve['continuation_fires']} "
            f"drops={serve['continuation_drops']}"
        )
        lines.append(f"  {serve['slo']}")
    for name, d in report.get("ft", {}).items():
        lines.append(
            f"  ft[{name}]: restarts={d['restarts']} dead={d['dead']} "
            f"survivors={d['survivors']} "
            f"revokes={d.get('comm_revokes', 0)} "
            f"agree_rounds={d.get('agree_rounds', 0)} "
            f"shrinks={d.get('shrink_epochs', 0)} "
            f"ckpt_bytes={d.get('checkpoint_bytes', 0)} "
            + ("bitwise-OK" if d["bitwise"] else "BITWISE-MISMATCH")
        )
    lines.append(
        "  verdict: " + ("PASS" if report["ok"] else "FAIL")
    )
    return "\n".join(lines)
