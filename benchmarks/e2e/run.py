#!/usr/bin/env python3
"""End-to-end benchmark of the real threaded stack (see README.md).

    python benchmarks/e2e/run.py --seed 0                  # all six workloads
    python benchmarks/e2e/run.py --seed 0 --trace          # + per-layer pass
    python benchmarks/e2e/run.py --workload pingpong --seed 3 --seconds 12 --trace 0

Every workload is repeated in fresh ``World``s (fixed work per
repetition, repetitions interleaved round-robin across workloads);
rates and ``setup_s`` are medians over repetitions, latency percentiles
are taken over the samples pooled across repetitions.  End-to-end
metrics always come from untraced repetitions.  The last line of
standard output is one JSON object.  Exit code 0: every operation
verified; 1: some failed; 3: a repetition stalled or raised (its
workload is named on standard error, its operations count as failed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the library under test is missing ({ROOT / 'src' / 'repro'})")
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from repro.mpisim import WorldError  # noqa: E402

#: what a user of ``offloaded()`` gets; benchmarks/conftest.py's 1e-4
#: and harness.run_on_approach's 5e-5 must not leak into this ruler
SWITCH_INTERVAL = 0.005
#: untraced repetitions per workload when ``--seconds`` is not given
DEFAULT_REPS = 7
SMOKE_REPS = 3
DIRECT_REPS = 3
#: the runner-side watchdog fires this long after the time the
#: repetitions were given
WATCHDOG_GRACE_S = 90.0
#: seconds `calibrate()` takes on the quiet reference box (2-core
#: 2.1 GHz Xeon VM, CPython 3.11); only fixes the scale of the
#: speed-corrected metrics
CALIBRATION_REF_S = 0.048


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def provenance(args) -> dict:
    """Where and how this result was produced (no environment variable
    is read: the pinned values below are the whole configuration)."""
    head = ""
    if (ROOT / ".git").exists():  # never consult a repository above the checkout
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    llc = ""
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"))
    if caches:
        llc = caches[-1].read_text().strip()
    return {
        "git_head": head or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "switch_interval_s": sys.getswitchinterval(),
        "llc": llc or "unknown",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def calibrate() -> float:
    """Seconds a fixed piece of single-threaded interpreter work takes
    right now.  The reference box is a shared VM whose speed drifts by
    ±30 % over minutes (thread CPU time of a fixed code path drifts
    with it), so a whole run sits in one regime and no statistic over
    its repetitions steadies it.  The runner samples this before every
    repetition and scales the end-to-end metrics by mean ÷ reference
    (the mean, because the slow state also comes in bursts shorter than
    a repetition, which a repetition averages over): the one steadying
    mechanism, from whose remaining spread the bounds in BENCHMARK.json
    are set (README, *Steadiness*)."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(400_000):
        table[i & 1023] = acc
        acc += table.get((i * 7) & 1023, 0) & 0xFF
    return time.perf_counter() - t0


def one_rep(name: str, inp: dict, mode: str, trace: bool, corrupt: bool = False):
    """Run one repetition; returns ``(rep, tracer-or-None)``."""
    chk = wl.Checker(corrupt)
    if trace:
        with tracing.Tracer() as tr:
            rep = wl.BODIES[name](inp, mode, tr, chk)
        rep.extra["trace"] = layers.snapshot(tr)
    else:
        tr = None
        rep = wl.BODIES[name](inp, mode, wl.NullTracer(), chk)
    rep.ok = min(chk.ok, rep.attempted)
    return rep, tr


def end_to_end(reps: list, speed: float) -> dict:
    """The end-to-end metrics of one workload's untraced reps, corrected
    to the reference machine speed: ``name -> (value, per-rep values)``.
    ``speed`` > 1 means the machine ran slower than the reference, so
    times shrink and rates grow by it."""
    pooled = [u for r in reps for u in r.units]

    def med(fn, scale):
        per_rep = [fn(r) * scale for r in reps]
        return statistics.median(per_rep), per_rep

    return {
        "setup_s": med(lambda r: r.setup_s, 1 / speed),
        "msg_rate": med(lambda r: r.msgs / r.wall_s, speed),
        "bandwidth_MBps": med(lambda r: r.nbytes / r.wall_s / 1e6, speed),
        "issue_cpu_us": med(lambda r: r.issue_cpu_s / r.issue_calls * 1e6, 1 / speed),
        "lat_p50_us": (
            layers.percentile(pooled, 0.5) * 1e6 / speed,
            [layers.percentile(r.units, 0.5) * 1e6 / speed for r in reps],
        ),
    }


def measure(names: list, args, watch: dict) -> dict:
    """Interleave repetitions round-robin across ``names`` until each
    workload has its repetitions or its time (``--seconds``).  A
    repetition that stalls or raises ends its workload: it is named on
    standard error and its operations are kept as failed."""
    scale = 0.05 if args.smoke else 1.0
    inputs = {n: wl.make_inputs(n, args.seed, scale) for n in names}
    # untraced, traced, plain-communicator: the per-layer pass needs all
    # three; the end-to-end pass only the first
    modes = ["u", "t", "d"] if args.trace else ["u"]
    reps: dict = {n: {m: [] for m in "utd"} for n in names}
    calib: dict = {n: [] for n in names}
    spent = {n: 0.0 for n in names}
    stalled: dict = {}
    last_tracer: dict = {}
    turn = 0
    while True:
        active = [n for n in names if n not in stalled and not _done(reps[n], spent[n], args)]
        if not active:
            break
        for name in active:
            mode = modes[turn % len(modes)]
            if mode == "d" and (
                name == "serve_closed" or len(reps[name]["d"]) >= DIRECT_REPS
            ):
                mode = "u"
            watch["name"], watch["ops"] = name, wl.ops(inputs[name])
            t0 = time.perf_counter()
            calib[name].append(calibrate())
            try:
                rep, tr = one_rep(
                    name, inputs[name], "direct" if mode == "d" else "offload", mode == "t"
                )
            except (WorldError, RuntimeError, TimeoutError) as exc:
                print(f"STALL {name}: a repetition raised or stalled: {exc!r}", file=sys.stderr)
                stalled[name] = wl.Rep(attempted=watch["ops"])  # none of them ok
                continue
            spent[name] += time.perf_counter() - t0
            reps[name][mode].append(rep)
            if tr is not None and args.trace_out:
                last_tracer[name] = tr  # up to 1.5 M spans: kept only to be written
        turn += 1
    return {"reps": reps, "tracers": last_tracer, "calib": calib, "stalled": stalled}


def _done(by_mode: dict, spent: float, args) -> bool:
    if args.seconds is not None:
        enough = len(by_mode["u"]) >= 3 and (not args.trace or len(by_mode["t"]) >= 2)
        return enough and spent >= args.seconds
    want = SMOKE_REPS if args.smoke else DEFAULT_REPS
    if args.trace:
        # the traced pass feeds ratios pooled over its repetitions,
        # not medians: half as many are enough
        return len(by_mode["u"]) >= want and len(by_mode["t"]) >= (want + 1) // 2
    return len(by_mode["u"]) >= want


def summarize(name: str, by_mode: dict, calib: list, stalled, sp: dict, trace: bool) -> dict:
    """Result record of one workload (the ``--out`` file's unit).  The
    metric sections are missing where a stall left nothing to take them
    from."""
    untraced = by_mode["u"]
    counted = untraced + by_mode["t"] + by_mode["d"] + ([stalled] if stalled else [])
    attempted = sum(r.attempted for r in counted)
    failed = sum(r.failed for r in counted)
    speed = statistics.fmean(calib) / CALIBRATION_REF_S
    units = {m["name"]: m["unit"] for m in sp["end_to_end"] + sp["per_layer"]}
    out = {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "stalled": stalled is not None,
        "reps": {m: len(v) for m, v in by_mode.items()},
        "samples": sum(len(r.units) for r in untraced),
        "speed_factor": speed,
        "calib_s": calib,
    }
    if untraced:
        e2e = end_to_end(untraced, speed)
        raw = end_to_end(untraced, 1.0)
        out["end_to_end"] = {
            k: {"value": v, "unit": units[k], "as_measured": raw[k][0], "per_rep": per_rep}
            for k, (v, per_rep) in e2e.items()
        }
    if trace and untraced and by_mode["t"]:
        per_layer = layers.derive(name, by_mode["t"], untraced, by_mode["d"])
        per_layer["calib.speed_factor"] = speed
        out["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
        shares: dict = {}
        for r in by_mode["t"]:
            for k, v in r.extra["trace"]["blocking_path"].items():
                shares[k] = shares.get(k, 0.0) + v / len(by_mode["t"])
        out["blocking_path_share"] = shares
    return out


def report(name: str, rec: dict, why: str) -> None:
    print(f"\n== {name}: {why}")
    print(
        f"   reps {rec['reps']}  latency samples {rec['samples']}  "
        f"attempted {rec['attempted']}  failed {rec['failed']}  "
        f"fail_frac {rec['fail_frac']:.6f}  speed factor {rec['speed_factor']:.3f}"
        + ("  STALLED" if rec["stalled"] else "")
    )
    for section in ("end_to_end", "per_layer"):
        for k, m in rec.get(section, {}).items():
            note = f"   (as measured {m['as_measured']:.4f})" if "as_measured" in m else ""
            print(f"   {k:42s} {m['value']:14.4f} {m['unit']}{note}")
    if "blocking_path_share" in rec:
        print("   blocking path (self-time share on the measuring thread):")
        for k, v in sorted(rec["blocking_path_share"].items(), key=lambda kv: -kv[1]):
            print(f"     {k:40s} {v:8.4f}")


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def give_up(watch: dict) -> None:
    """Runner-side watchdog: the run outlived its time by
    ``WATCHDOG_GRACE_S``, so something hangs where ``World.run``'s
    time-out does not reach.  Name the workload, count the repetition
    as failed, and leave without waiting for any thread."""
    print(f"STALL {watch['name']}: the runner's watchdog fired", file=sys.stderr, flush=True)
    print(result_line(watch["ops"], watch["ops"], {}), flush=True)
    os._exit(3)


def main(argv=None) -> int:
    sp = spec()
    names = [w["name"] for w in sp["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", choices=names, help="one workload (default: all six)")
    ap.add_argument(
        "--seconds",
        type=float,
        help=f"repeat each workload for this long (default: {DEFAULT_REPS} repetitions)",
    )
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    ap.add_argument("--layers-iso", action="store_true", help="only the isolated single-thread layer calls")
    ap.add_argument("--smoke", action="store_true", help="tiny repetitions (contract self-test)")
    ap.add_argument("--out", help="write the full result as JSON")
    ap.add_argument("--trace-out", help="write the last traced repetition's spans (Chrome trace JSON)")
    args = ap.parse_args(argv)

    if args.layers_iso:
        iso = layers.isolated()
        for k, (v, unit) in iso.items():
            print(f"{k:44s} {v:14.3f} {unit}")
        print(json.dumps({k: {"value": v, "unit": unit} for k, (v, unit) in iso.items()}))
        return 0

    chosen = [args.workload] if args.workload else names
    prev = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    watch = {"name": chosen[0], "ops": 1}
    budget = (args.seconds or 60.0) * len(chosen) * (2 if args.trace else 1)
    watchdog = threading.Timer(budget + WATCHDOG_GRACE_S, give_up, [watch])
    watchdog.daemon = True
    watchdog.start()
    try:
        prov = provenance(args)
        measured = measure(chosen, args, watch)
    finally:
        watchdog.cancel()
        sys.setswitchinterval(prev)

    why = {w["name"]: w["why"] for w in sp["workloads"]}
    result = {"provenance": prov, "workloads": {}}
    for name in chosen:
        rec = summarize(
            name,
            measured["reps"][name],
            measured["calib"][name],
            measured["stalled"].get(name),
            sp,
            bool(args.trace),
        )
        result["workloads"][name] = rec
        report(name, rec, why[name])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    if args.trace_out and chosen[-1] in measured["tracers"]:
        with open(args.trace_out, "w") as fh:
            json.dump(measured["tracers"][chosen[-1]].chrome_trace(), fh)
    recs = result["workloads"]
    attempted = sum(r["attempted"] for r in recs.values())
    failed = sum(r["failed"] for r in recs.values())
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        (k if args.workload else f"{n}/{k}"): {"value": m["value"], "unit": m["unit"]}
        for n, r in recs.items()
        for k, m in r.get(section, {}).items()
    }
    print()
    print(result_line(attempted, failed, metrics))
    if measured["stalled"]:
        return 3
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
