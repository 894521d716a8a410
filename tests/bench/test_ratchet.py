"""The benchmark ratchet gate (benchmarks/ratchet.py): counter metrics
block, time metrics only under --strict, schema drift is explicit."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_ratchet",
    Path(__file__).resolve().parents[2] / "benchmarks" / "ratchet.py",
)
ratchet = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ratchet)


def _metric(value, kind="counter", direction="lower"):
    return {"value": value, "kind": kind, "direction": direction}


def _write(dirpath, name, metrics):
    dirpath.mkdir(parents=True, exist_ok=True)
    path = dirpath / f"BENCH_{name}.json"
    path.write_text(json.dumps({"name": name, "rows": [], "metrics": metrics}))
    return path


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "out", tmp_path / "baselines"


class TestCompare:
    def test_identical_passes(self, dirs):
        run, base = dirs
        metrics = {
            "copies": _metric(0.0),
            "speed": _metric(1.4, kind="time", direction="higher"),
        }
        _write(run, "x", metrics)
        _write(base, "x", metrics)
        assert ratchet.main(
            ["--run-dir", str(run), "--baseline-dir", str(base)]
        ) == 0

    def test_counter_regression_blocks(self, dirs):
        run, base = dirs
        _write(base, "x", {"copies": _metric(0.0)})
        _write(run, "x", {"copies": _metric(0.5)})  # 0 must stay 0
        assert ratchet.main(
            ["--run-dir", str(run), "--baseline-dir", str(base)]
        ) == 1

    def test_counter_within_tolerance_passes(self, dirs):
        run, base = dirs
        _write(base, "x", {"n": _metric(100.0)})
        _write(run, "x", {"n": _metric(105.0)})  # +5% < 10% band
        assert ratchet.main(
            ["--run-dir", str(run), "--baseline-dir", str(base)]
        ) == 0

    def test_baseline_states_its_own_tolerance(self, dirs):
        run, base = dirs
        wide = dict(_metric(100.0), tolerance=0.25)
        _write(base, "x", {"n": wide})
        _write(run, "x", {"n": _metric(120.0)})  # +20% < its 25% band
        args = ["--run-dir", str(run), "--baseline-dir", str(base)]
        assert ratchet.main(args) == 0
        _write(run, "x", {"n": _metric(130.0)})
        assert ratchet.main(args) == 1

    def test_only_gates_the_named_benchmarks(self, dirs):
        run, base = dirs
        _write(base, "ran", {"n": _metric(1.0)})
        _write(base, "elsewhere", {"n": _metric(1.0)})  # other CI job
        _write(run, "ran", {"n": _metric(1.0)})
        args = ["--run-dir", str(run), "--baseline-dir", str(base)]
        assert ratchet.main(args) == 1  # "elsewhere" has no artifact
        assert ratchet.main(args + ["--only", "ran"]) == 0
        assert ratchet.main(args + ["--only", "ran", "typo"]) == 1

    def test_time_regression_advisory_by_default(self, dirs):
        run, base = dirs
        _write(base, "x", {"t": _metric(1.5, kind="time", direction="higher")})
        _write(run, "x", {"t": _metric(0.9, kind="time", direction="higher")})
        argv = ["--run-dir", str(run), "--baseline-dir", str(base)]
        assert ratchet.main(argv) == 0
        assert ratchet.main(argv + ["--strict"]) == 1

    def test_higher_is_better_direction(self, dirs):
        run, base = dirs
        _write(base, "x", {"hits": _metric(1.0, direction="higher")})
        _write(run, "x", {"hits": _metric(0.5, direction="higher")})
        assert ratchet.main(
            ["--run-dir", str(run), "--baseline-dir", str(base)]
        ) == 1

    def test_counter_schema_drift_blocks(self, dirs):
        run, base = dirs
        _write(base, "x", {"copies": _metric(0.0)})
        _write(run, "x", {"renamed": _metric(0.0)})
        assert ratchet.main(
            ["--run-dir", str(run), "--baseline-dir", str(base)]
        ) == 1

    def test_missing_run_artifact_blocks(self, dirs):
        run, base = dirs
        run.mkdir()
        _write(base, "x", {"copies": _metric(0.0)})
        assert ratchet.main(
            ["--run-dir", str(run), "--baseline-dir", str(base)]
        ) == 1

    def test_trajectory_file_without_metrics_is_not_gated(self, dirs):
        """BENCH_e2e.json sits beside the baselines as history: it has
        no ``metrics`` and no benchmark writes an artifact for it."""
        run, base = dirs
        _write(base, "x", {"copies": _metric(0.0)})
        _write(run, "x", {"copies": _metric(0.0)})
        (base / "BENCH_e2e.json").write_text(
            json.dumps({"name": "e2e", "rows": [{"pr": 21}]})
        )
        assert ratchet.main(
            ["--run-dir", str(run), "--baseline-dir", str(base)]
        ) == 0

    def test_missing_time_metric_is_strict_only(self, dirs):
        # the smoke run skips throughput tests, so its artifact lacks
        # the time metrics: blocking pass must still succeed
        run, base = dirs
        _write(
            base,
            "x",
            {
                "copies": _metric(0.0),
                "speed": _metric(1.4, kind="time", direction="higher"),
            },
        )
        _write(run, "x", {"copies": _metric(0.0)})
        argv = ["--run-dir", str(run), "--baseline-dir", str(base)]
        assert ratchet.main(argv) == 0
        assert ratchet.main(argv + ["--strict"]) == 1

    def test_new_benchmark_without_baseline_is_note(self, dirs):
        run, base = dirs
        _write(base, "x", {"copies": _metric(0.0)})
        _write(run, "x", {"copies": _metric(0.0)})
        _write(run, "fresh", {"copies": _metric(0.0)})
        assert ratchet.main(
            ["--run-dir", str(run), "--baseline-dir", str(base)]
        ) == 0

    def test_empty_baseline_dir_fails(self, dirs):
        run, base = dirs
        run.mkdir(), base.mkdir()
        assert ratchet.main(
            ["--run-dir", str(run), "--baseline-dir", str(base)]
        ) == 1


class TestUpdate:
    def test_update_adopts_run_artifacts(self, dirs):
        run, base = dirs
        _write(run, "x", {"copies": _metric(0.0)})
        argv = ["--run-dir", str(run), "--baseline-dir", str(base)]
        assert ratchet.main(argv + ["--update"]) == 0
        assert json.loads((base / "BENCH_x.json").read_text())["name"] == "x"
        assert ratchet.main(argv) == 0

    def test_update_with_no_artifacts_fails(self, dirs):
        run, base = dirs
        run.mkdir()
        assert ratchet.main(
            ["--run-dir", str(run), "--baseline-dir", str(base),
             "--update"]
        ) == 1
