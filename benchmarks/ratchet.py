#!/usr/bin/env python
"""Benchmark ratchet: gate CI on the committed BENCH_*.json baselines.

Benchmark runs write per-run trajectory artifacts (``BENCH_<name>.json``
via ``benchmarks/conftest.py``) into ``benchmarks/out/``; the committed
reference copies live in ``benchmarks/baselines/``.  This tool compares
the two, direction-aware, and fails (exit 1) on:

* a baseline with no matching run artifact, or a metric-key set that
  drifted from the baseline's (schema break — a renamed or silently
  dropped metric must be an explicit baseline update, not a quiet pass);
* a ``counter``-kind metric that regressed beyond ``--tolerance``
  (counters are deterministic, so in practice any drift at all trips
  this — e.g. ``copies_per_msg_zero_copy_*`` leaving 0.0); a metric
  whose *baseline* entry carries its own ``"tolerance"`` is held to
  that band instead (counts that legitimately differ between
  interpreter versions state theirs in the baseline file);
* with ``--strict`` only: a ``time``-kind metric that regressed beyond
  tolerance.  Wall-clock on shared runners is noisy, so the default
  mode reports timing drift without failing; CI runs the strict pass
  as a separate advisory (continue-on-error) step.

A file in the baseline directory without a ``metrics`` key is a
trajectory kept for plotting (``BENCH_e2e.json``: one row per PR of
end-to-end medians), not a baseline: it is noted and passed by.

``--update`` copies the current run artifacts over the baselines —
the explicit, reviewable way to move the ratchet.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).parent


def _is_regression(value, base, direction: str, tolerance: float) -> bool:
    """Direction-aware drift check with a relative tolerance band."""
    if direction == "lower":  # lower is better: worse means bigger
        if base == 0:
            return value > 0
        return value > base * (1.0 + tolerance)
    # higher is better: worse means smaller
    if base == 0:
        return value < 0
    return value < base * (1.0 - tolerance)


def compare(
    run_dir: Path,
    baseline_dir: Path,
    tolerance: float,
    strict: bool,
    only: list[str] | None = None,
) -> tuple[list[str], list[str]]:
    """Return ``(failures, notes)`` over every baseline artifact, or
    over the benchmarks named in ``only`` (a CI job gates the ones it
    ran; a name without a baseline is a failure, not a silent pass)."""
    failures: list[str] = []
    notes: list[str] = []
    if only:
        baselines = [baseline_dir / f"BENCH_{name}.json" for name in only]
        for path in baselines:
            if not path.exists():
                failures.append(f"{path.name}: no such baseline")
        baselines = [path for path in baselines if path.exists()]
    else:
        baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        failures.append(f"no baselines found in {baseline_dir}")
        return failures, notes

    for base_path in baselines:
        base = json.loads(base_path.read_text())
        if "metrics" not in base:
            # a trajectory kept beside the baselines (BENCH_e2e.json):
            # history to plot, nothing a run is compared against
            notes.append(f"{base_path.name}: no metrics, not gated")
            continue
        run_path = run_dir / base_path.name
        if not run_path.exists():
            failures.append(
                f"{base_path.name}: no run artifact in {run_dir} "
                f"(benchmark did not run or did not write its trajectory)"
            )
            continue
        run = json.loads(run_path.read_text())
        base_metrics = base.get("metrics", {})
        run_metrics = run.get("metrics", {})

        def _keys(metrics, kind):
            return {k for k, m in metrics.items() if m["kind"] == kind}

        # Schema is enforced on the deterministic counter metrics: a
        # renamed or dropped counter must be an explicit baseline
        # update.  Time metrics may legitimately be absent (the smoke
        # run skips the throughput tests), so absence only fails the
        # strict pass.
        if _keys(base_metrics, "counter") != _keys(run_metrics, "counter"):
            gone = sorted(
                _keys(base_metrics, "counter") - _keys(run_metrics, "counter")
            )
            new = sorted(
                _keys(run_metrics, "counter") - _keys(base_metrics, "counter")
            )
            failures.append(
                f"{base_path.name}: counter-metric schema drifted "
                f"(missing: {gone or '-'}, unexpected: {new or '-'}); "
                f"update the baseline explicitly with --update"
            )
            continue
        for key in sorted(base_metrics):
            bm = base_metrics[key]
            blocking = bm["kind"] == "counter"
            if not blocking and not strict:
                continue
            rm = run_metrics.get(key)
            if rm is None:  # time metric not produced by this run
                failures.append(
                    f"[strict] {base_path.name}: {key} missing from run"
                )
                continue
            if _is_regression(
                rm["value"],
                bm["value"],
                bm["direction"],
                bm.get("tolerance", tolerance),
            ):
                msg = (
                    f"{base_path.name}: {key} regressed "
                    f"({bm['direction']} is better): "
                    f"baseline {bm['value']} -> run {rm['value']}"
                )
                if blocking:
                    failures.append(msg)
                else:
                    failures.append(f"[strict] {msg}")
            else:
                notes.append(
                    f"{base_path.name}: {key} ok "
                    f"({bm['value']} -> {rm['value']})"
                )

    for run_path in sorted(run_dir.glob("BENCH_*.json")):
        if not (baseline_dir / run_path.name).exists():
            notes.append(
                f"{run_path.name}: new benchmark with no baseline "
                f"(adopt it with --update)"
            )
    return failures, notes


def update(run_dir: Path, baseline_dir: Path) -> list[str]:
    """Copy every run artifact over its baseline; returns the names."""
    baseline_dir.mkdir(parents=True, exist_ok=True)
    copied = []
    for run_path in sorted(run_dir.glob("BENCH_*.json")):
        shutil.copyfile(run_path, baseline_dir / run_path.name)
        copied.append(run_path.name)
    return copied


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--run-dir",
        type=Path,
        default=HERE / "out",
        help="directory with this run's BENCH_*.json artifacts",
    )
    ap.add_argument(
        "--baseline-dir",
        type=Path,
        default=HERE / "baselines",
        help="directory with the committed baselines",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative regression band (default 0.10 = 10%%)",
    )
    ap.add_argument(
        "--strict",
        action="store_true",
        help="also fail on time-kind metric regressions",
    )
    ap.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="gate only these benchmarks (BENCH_<NAME>.json)",
    )
    ap.add_argument(
        "--update",
        action="store_true",
        help="adopt the current run artifacts as the new baselines",
    )
    args = ap.parse_args(argv)

    if args.update:
        copied = update(args.run_dir, args.baseline_dir)
        if not copied:
            print(f"ratchet: nothing to update in {args.run_dir}")
            return 1
        for name in copied:
            print(f"ratchet: baseline updated: {name}")
        return 0

    failures, notes = compare(
        args.run_dir,
        args.baseline_dir,
        args.tolerance,
        args.strict,
        args.only,
    )
    for line in notes:
        print(f"ratchet: {line}")
    for line in failures:
        print(f"ratchet: FAIL {line}", file=sys.stderr)
    if failures:
        print(
            f"ratchet: {len(failures)} failure(s) "
            f"(tolerance {args.tolerance:.0%}, "
            f"{'strict' if args.strict else 'counters-only'})",
            file=sys.stderr,
        )
        return 1
    print("ratchet: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
