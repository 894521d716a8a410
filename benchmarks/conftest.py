"""Benchmark harness helpers.

``bench_experiments.py`` regenerates every paper table/figure via its
experiment module and asserts the paper's qualitative claims; the
other ``bench_*`` files measure the real offload stack and write
``BENCH_<name>.json`` artifacts through :class:`BenchTrajectory`.

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
