"""Benchmark harness helpers.

Each ``bench_*`` file regenerates one paper table/figure via its
experiment module and asserts the paper's qualitative claims.  Runs
are single-shot (``pedantic``): the quantity of interest is the
artifact itself, not Python-level timing jitter.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest


class BenchTrajectory:
    """Collector behind the per-run ``BENCH_<name>.json`` artifacts.

    Benchmarks append sweep ``rows`` (one dict per measured point) and
    named summary ``metrics``.  Each metric carries:

    * ``kind`` — ``"counter"`` for deterministic values (copy counts,
      hit rates) that the ratchet gate blocks on, ``"time"`` for noisy
      wall-clock values the gate only checks under ``--strict``;
    * ``direction`` — ``"higher"`` or ``"lower"`` is better, so the
      ratchet knows which way a drift is a regression;
    * optionally ``tolerance`` — the metric's own regression band,
      which the ratchet reads from the *baseline* copy in place of its
      ``--tolerance`` default.

    At session end one ``BENCH_<name>.json`` per registered name is
    written to ``$REPRO_BENCH_OUT`` (default ``benchmarks/out``);
    ``benchmarks/ratchet.py`` compares those against the committed
    ``benchmarks/baselines/``.
    """

    def __init__(self) -> None:
        self._store: dict[str, dict] = {}

    def _entry(self, name: str) -> dict:
        return self._store.setdefault(name, {"rows": [], "metrics": {}})

    def add_row(self, name: str, **row) -> None:
        self._entry(name)["rows"].append(row)

    def metric(
        self,
        name: str,
        key: str,
        value,
        kind: str = "time",
        direction: str = "higher",
        tolerance: float | None = None,
    ) -> None:
        assert kind in ("counter", "time") and direction in (
            "higher",
            "lower",
        )
        entry = {"value": value, "kind": kind, "direction": direction}
        if tolerance is not None:
            entry["tolerance"] = tolerance
        self._entry(name)["metrics"][key] = entry

    def write(self, out_dir: Path) -> list[Path]:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, payload in sorted(self._store.items()):
            path = out_dir / f"BENCH_{name}.json"
            with open(path, "w") as fh:
                json.dump(
                    {"name": name, **payload}, fh, indent=2, sort_keys=True
                )
                fh.write("\n")
            written.append(path)
        return written


@pytest.fixture(scope="session")
def bench_trajectory():
    """Session-wide :class:`BenchTrajectory`; artifacts are written on
    session teardown (one file per benchmark name that registered)."""
    traj = BenchTrajectory()
    yield traj
    out_dir = Path(
        os.environ.get(
            "REPRO_BENCH_OUT", str(Path(__file__).parent / "out")
        )
    )
    for path in traj.write(out_dir):
        print(f"\n[bench-trajectory] wrote {path}")


@pytest.fixture(autouse=True, scope="session")
def fine_gil_slices():
    """Functional benchmarks need finer GIL slices (see DESIGN.md)."""
    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    yield
    sys.setswitchinterval(prev)


@pytest.fixture
def engine_telemetry():
    """Enable engine telemetry for this benchmark and collect the final
    snapshots of every offload engine that ran inside it.

    Engines created while telemetry is enabled record a snapshot into
    the :mod:`repro.obs.report` registry at stop(); this fixture clears
    the registry up front and drains it afterwards, yielding a mutable
    holder whose ``snapshots``/``merged`` fields are filled in on exit.
    """
    from repro import obs

    class _Holder:
        snapshots: list = []
        merged: dict = {}

    holder = _Holder()
    obs.drain_snapshots()  # discard anything stale from earlier runs
    with obs.telemetry(True):
        yield holder
    holder.snapshots = obs.drain_snapshots()
    holder.merged = obs.merge(holder.snapshots)


@pytest.fixture
def regenerate(benchmark, engine_telemetry):
    """Run an experiment under the benchmark fixture, print its table,
    and run its qualitative checks.

    Engine telemetry is enabled for the duration, so BENCH_*.json runs
    carry engine counters alongside timings: any offload engine spun up
    by the experiment lands in ``extra_info["telemetry"]`` (analytic
    simtime experiments that run no engines record nothing).
    """

    def _run(exp_id: str, fast: bool = True):
        from repro import obs
        from repro.experiments import load

        mod = load(exp_id)
        table = benchmark.pedantic(
            lambda: mod.run(fast=fast), iterations=1, rounds=1
        )
        print()
        print(table.render())
        mod.check(table)
        benchmark.extra_info["rows"] = len(table.rows)
        snapshots = obs.drain_snapshots()
        if snapshots:
            merged = obs.merge(snapshots)
            benchmark.extra_info["telemetry"] = merged
            print()
            print(obs.render(merged, title=f"{exp_id} engine telemetry"))
        return table

    return _run
