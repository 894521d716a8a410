"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``list`` — show every reproducible paper artifact;
* ``run <artifact>...`` — regenerate artifacts (``--full`` for
  paper-scale sweeps); no names = all 15; ``--telemetry`` enables
  engine telemetry and prints counter snapshots for any offload
  engines the artifacts spin up;
* ``report [--full] [-o FILE]`` — regenerate everything and write a
  markdown reproduction report;
* ``telemetry`` — run the functional Figure-2 overlap exchange with
  engine telemetry enabled and print the counter snapshot (the quick
  way to see Testany sweeps / queue counters for a real engine run);
* ``chaos`` — run a seeded fault-injection storm over the offloaded
  stack and verify the robustness contract (no hang, no lost
  completion, telemetry balance law); exits nonzero on violation;
* ``dst`` — deterministic-simulation self-check: explore the
  regression corpus (known races with their fixes disabled must be
  rediscovered; with fixes enabled the schedule budget must pass
  clean; linearizability oracles must hold); exits nonzero on any
  wrong outcome and prints a single-seed replay token per finding;
* ``info`` — version and layer summary.
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_list() -> int:
    from repro.experiments import REGISTRY, load

    print(f"{len(REGISTRY)} reproducible artifacts:\n")
    for exp_id, path in REGISTRY.items():
        doc = (load(exp_id).__doc__ or "").strip().splitlines()[0]
        print(f"  {exp_id:6s} {doc}")
    print("\nregenerate with: python -m repro run <id> [--full]")
    return 0


def _cmd_run(names: list[str], full: bool, telemetry: bool = False) -> int:
    from repro import obs
    from repro.experiments import REGISTRY, load

    wanted = names or list(REGISTRY)
    unknown = [n for n in wanted if n not in REGISTRY]
    if unknown:
        print(f"unknown artifact(s): {unknown}; try 'python -m repro list'")
        return 2
    obs.drain_snapshots()
    failures = []
    for exp_id in wanted:
        mod = load(exp_id)
        t0 = time.perf_counter()
        with obs.telemetry(telemetry):
            table = mod.run(fast=not full)
        print(table.render())
        if telemetry:
            snaps = obs.drain_snapshots()
            if snaps:
                print()
                print(obs.render(obs.merge(snaps),
                                 title=f"{exp_id} engine telemetry"))
            else:
                print(f"[{exp_id}: analytic artifact — no offload "
                      "engines ran; try 'python -m repro telemetry']")
        try:
            mod.check(table)
            print(f"-> {exp_id}: checks PASS "
                  f"({time.perf_counter() - t0:.1f}s)\n")
        except AssertionError as exc:
            failures.append(exp_id)
            print(f"-> {exp_id}: CHECK FAILED: {exc}\n")
    if failures:
        print(f"failed: {failures}")
        return 1
    return 0


def _cmd_telemetry(nbytes: int, nranks: int) -> int:
    """Functional Figure-2 analogue with engine counters.

    Runs the rendezvous-sized overlap exchange on real offload engines
    with telemetry enabled, then prints the merged counter snapshot and
    verifies the paper's §3.2 signature: Testany sweeps happened during
    the compute phase and every enqueued command was accounted for.
    """
    from repro import obs
    from repro.bench.overlap import overlap_benchmark

    obs.drain_snapshots()
    with obs.telemetry(True):
        sample = overlap_benchmark("offload", nbytes, nranks=nranks)
    snaps = obs.drain_snapshots()
    merged = obs.merge(snaps)
    print(f"functional overlap exchange: {nranks} ranks, "
          f"{nbytes} B messages (rendezvous), offload approach")
    print(f"  overlap achieved: {sample.overlap_fraction * 100:.0f}% "
          f"(transfer done before wait: {sample.done_before_wait})")
    # where each engine thread ran (World.run binds a lone rank only)
    print("  binding: " + ", ".join(
        f"rank {s['rank']} engine on CPUs {s['cpus']}"
        for s in sorted(snaps, key=lambda s: s["rank"])) + "\n")
    print(obs.render(merged))
    sweeps = merged["counters"].get("testany_sweeps", 0)
    balanced, detail = obs.check_balance(merged)
    ok = sweeps > 0 and balanced
    print(f"\nTestany sweeps during run: {sweeps} "
          f"({'OK' if sweeps > 0 else 'MISSING'})")
    print(f"command accounting balanced: {balanced} ({detail})")
    return 0 if ok else 1


def _cmd_chaos(
    nranks: int,
    rounds: int,
    seed: int,
    profile: str,
    op_timeout: float,
    run_timeout: float,
    as_json: bool,
    pool_size: int = 1,
    router: str = "dest",
    workload: str = "ring",
) -> int:
    """Seeded chaos run; nonzero exit on any contract violation."""
    from repro.faults.chaos import render_report, run_chaos

    report = run_chaos(
        nranks=nranks,
        rounds=rounds,
        seed=seed,
        profile=profile,
        op_timeout=op_timeout,
        run_timeout=run_timeout,
        pool_size=pool_size,
        router=router,
        workload=workload,
    )
    if as_json:
        import json

        print(json.dumps(report, indent=2, default=str))
    else:
        print(render_report(report))
    return 0 if report["ok"] else 1


def _cmd_serve(
    requests: int,
    concurrency: int,
    mode: str,
    seed: int,
    pool_size: int,
    as_json: bool,
) -> int:
    """One seeded loadgen run; nonzero exit on lost completions or a
    balance violation."""
    from dataclasses import asdict

    from repro.serve import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        seed=seed,
        mode=mode,
        requests=requests,
        concurrency=concurrency,
        pool_size=pool_size,
    )
    report = run_loadgen(config)
    if as_json:
        import json

        payload = asdict(report)
        payload["lost"] = report.lost
        payload["ok"] = report.ok
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_dst(
    targets: list[str],
    seed: int,
    schedules: int | None,
    strategy: str | None,
    as_json: bool,
) -> int:
    """DST corpus self-check; nonzero exit on any wrong outcome."""
    from repro.dst.targets import CORPUS, run_corpus
    from repro.obs.counters import Counters

    unknown = [t for t in targets if t not in CORPUS]
    if unknown:
        print(f"unknown target(s): {unknown}; available: {list(CORPUS)}")
        return 2
    counters = Counters()
    t0 = time.perf_counter()
    outcomes = run_corpus(
        seed=seed, schedules=schedules, strategy=strategy,
        counters=counters, names=targets or None,
    )
    elapsed = time.perf_counter() - t0
    rows = []
    ok = True
    for o in outcomes:
        ok = ok and o.expected
        rows.append(
            {
                "target": o.target,
                "fix_disabled": o.fix_disabled,
                "found": o.result.found,
                "runs": o.result.runs,
                "exhausted": o.result.exhausted,
                "replay_token": (
                    list(o.result.failure.token)
                    if o.result.failure is not None
                    else None
                ),
                "expected": o.expected,
            }
        )
    if as_json:
        import json

        print(
            json.dumps(
                {
                    "ok": ok,
                    "seed": seed,
                    "elapsed_s": round(elapsed, 3),
                    "outcomes": rows,
                    "counters": counters.snapshot(),
                },
                indent=2,
            )
        )
        return 0 if ok else 1
    print(f"DST corpus self-check (seed={seed}):\n")
    for row in rows:
        mode = "fix OFF" if row["fix_disabled"] else "fix ON " \
            if any(r["target"] == row["target"] and r["fix_disabled"]
                   for r in rows) else "oracle "
        verdict = "ok" if row["expected"] else "WRONG OUTCOME"
        found = (
            f"found in {row['runs']} schedule(s)"
            if row["found"]
            else f"clean over {row['runs']} schedule(s)"
            + (" [tree exhausted]" if row["exhausted"] else "")
        )
        print(f"  {row['target']:28s} {mode} {found:42s} {verdict}")
    snap = counters.snapshot()
    print(
        f"\n{snap.get('schedules_explored', 0)} schedules, "
        f"{snap.get('yields', 0)} yield points, "
        f"{snap.get('lin_histories_checked', 0)} histories checked "
        f"in {elapsed:.1f}s"
    )
    if not ok:
        print("\nDST SELF-CHECK FAILED: see 'DST:' lines above for "
              "replay tokens")
        return 1
    print("all targets behaved as expected")
    return 0


def _cmd_report(out_path: str | None, full: bool) -> int:
    from repro.experiments.report import generate_report

    text = generate_report(fast=not full)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(f"report written to {out_path}")
    else:
        print(text)
    return 0 if "FAILED" not in text else 1


def _cmd_info() -> int:
    import repro

    print(f"repro {repro.__version__}")
    print((repro.__doc__ or "").strip())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SC'15 MPI software-offloading reproduction",
    )
    sub = parser.add_subparsers(dest="cmd")
    sub.add_parser("list", help="list reproducible paper artifacts")
    runp = sub.add_parser("run", help="regenerate artifacts")
    runp.add_argument("names", nargs="*", help="artifact ids (default all)")
    runp.add_argument(
        "--full", action="store_true", help="paper-scale sweeps"
    )
    runp.add_argument(
        "--telemetry",
        action="store_true",
        help="enable engine telemetry and print counter snapshots",
    )
    rep = sub.add_parser("report", help="write a markdown report")
    rep.add_argument("-o", "--output", default=None)
    rep.add_argument("--full", action="store_true")
    tel = sub.add_parser(
        "telemetry",
        help="run a functional overlap exchange and print engine counters",
    )
    tel.add_argument(
        "--nbytes", type=int, default=1 << 21,
        help="message size in bytes (default 2 MiB, rendezvous)",
    )
    tel.add_argument("--nranks", type=int, default=2)
    cha = sub.add_parser(
        "chaos",
        help="seeded fault-injection storm; nonzero exit on hang / "
        "lost completion / balance violation",
    )
    cha.add_argument("--nranks", type=int, default=4)
    cha.add_argument("--rounds", type=int, default=40)
    cha.add_argument("--seed", type=int, default=0)
    cha.add_argument(
        "--profile",
        default="mixed",
        choices=[
            "messages",
            "stragglers",
            "transient",
            "crash",
            "shard-crash",
            "mixed",
            "rank-crash-survive",
        ],
    )
    cha.add_argument(
        "--pool-size", type=int, default=1,
        help="engine shards per rank (shard-crash defaults to 4)",
    )
    cha.add_argument(
        "--workload", default="ring", choices=["ring", "serve"],
        help="ring point-to-point storm, or the serving front-end's "
        "loadgen (concurrent awaiters over the asyncio bridge)",
    )
    cha.add_argument(
        "--router", default="dest",
        choices=["dest", "thread"],
        help="pool routing policy (default: dest affinity)",
    )
    cha.add_argument(
        "--op-timeout", type=float, default=1.0,
        help="per-operation deadline in seconds",
    )
    cha.add_argument(
        "--run-timeout", type=float, default=120.0,
        help="hard wall-clock bound for the whole run",
    )
    cha.add_argument("--json", action="store_true")
    srv = sub.add_parser(
        "serve",
        help="seeded serving loadgen over the asyncio bridge; nonzero "
        "exit on lost completions or a balance violation",
    )
    srv.add_argument("--requests", type=int, default=200)
    srv.add_argument("--concurrency", type=int, default=32)
    srv.add_argument(
        "--mode", default="closed", choices=["closed", "open"]
    )
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument(
        "--pool-size", type=int, default=2,
        help="engine shards serving the loop",
    )
    srv.add_argument("--json", action="store_true")
    dst = sub.add_parser(
        "dst",
        help="deterministic-simulation self-check over the regression "
        "corpus; nonzero exit on any wrong outcome",
    )
    dst.add_argument(
        "targets", nargs="*",
        help="corpus target names (default: whole corpus)",
    )
    dst.add_argument("--seed", type=int, default=0)
    dst.add_argument(
        "--schedules", type=int, default=None,
        help="override the per-target schedule budget",
    )
    dst.add_argument(
        "--strategy", default=None,
        choices=["random", "pct", "exhaustive"],
        help="override the per-target exploration strategy",
    )
    dst.add_argument("--json", action="store_true")
    sub.add_parser("info", help="version and layout")
    args = parser.parse_args(argv)
    if args.cmd == "list":
        return _cmd_list()
    if args.cmd == "run":
        return _cmd_run(args.names, args.full, args.telemetry)
    if args.cmd == "telemetry":
        return _cmd_telemetry(args.nbytes, args.nranks)
    if args.cmd == "chaos":
        return _cmd_chaos(
            args.nranks,
            args.rounds,
            args.seed,
            args.profile,
            args.op_timeout,
            args.run_timeout,
            args.json,
            args.pool_size,
            args.router,
            args.workload,
        )
    if args.cmd == "serve":
        return _cmd_serve(
            args.requests,
            args.concurrency,
            args.mode,
            args.seed,
            args.pool_size,
            args.json,
        )
    if args.cmd == "dst":
        return _cmd_dst(
            args.targets,
            args.seed,
            args.schedules,
            args.strategy,
            args.json,
        )
    if args.cmd == "report":
        return _cmd_report(args.output, args.full)
    if args.cmd == "info":
        return _cmd_info()
    parser.print_help()
    return 0


if __name__ == "__main__":
    sys.exit(main())
