"""Contract self-test of the end-to-end benchmark.

    pytest benchmarks/e2e -q

Outside tier-1 (``testpaths = ["tests"]``): it checks the benchmark,
not the library — that every workload and metric ``BENCHMARK.json``
names is printed with its unit, that span trees are well formed, that
inputs follow the seed, and that a corrupted payload or a stalled
repetition is counted.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = run.spec()


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke --trace`` run of the whole suite."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = _cli("--seed", "0", "--smoke", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc, json.loads(out.read_text())


def test_spec_names_and_units():
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert UNIT.match(m["unit"]), m
    assert set(names) == set(wl.BODIES)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_metric_printed_with_unit(smoke):
    proc, result = smoke
    for w in SPEC["workloads"]:
        rec = result["workloads"][w["name"]]
        assert f"== {w['name']}:" in proc.stdout
        assert rec["failed"] == 0 and rec["attempted"] > 0
        for section in ("end_to_end", "per_layer"):
            for m in SPEC[section]:
                got = rec[section][m["name"]]
                assert got["unit"] == m["unit"]
                assert isinstance(got["value"], float)
                assert re.search(rf"{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}\s", proc.stdout)
        assert all(rec["end_to_end"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
        # blocking-path self times and the unattributed remainder
        # account for the whole of the measured units
        assert sum(rec["blocking_path_share"].values()) == pytest.approx(1.0)
        assert rec["speed_factor"] > 0
    prov = result["provenance"]
    assert prov["switch_interval_s"] == run.SWITCH_INTERVAL
    assert {"git_head", "nproc", "python", "numpy", "llc", "seed"} <= set(prov)


def test_layers_separate(smoke):
    """The workloads reach different layers (sizes are smoke-sized, so
    only the counts and routing facts are asserted, not the timings)."""
    _, result = smoke
    layer = lambda w, k: result["workloads"][w]["per_layer"][k]["value"]  # noqa: E731
    assert layer("late_recv_mixed", "matching.unexpected_frac") >= 0.9
    assert layer("eager_stream", "matching.unexpected_frac") <= 0.1
    assert layer("rndv_stream", "progress.rendezvous_frac") > 0.3
    assert layer("eager_stream", "progress.rendezvous_frac") == 0.0
    for w in result["workloads"]:
        pooled = layer(w, "engine_pool.route_us") > 0
        assert pooled == (w == "serve_closed")
        assert (layer(w, "bridge.awaitable_us") > 0) == (w == "serve_closed")


def test_driver_line():
    proc = _cli("--workload", "pingpong", "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_span_trees_well_formed():
    inp = wl.make_inputs("eager_stream", 0, 0.05)
    rep, tr = run.one_rep("eager_stream", inp, "offload", trace=True)
    assert rep.failed == 0 and tr.kept > 0
    facade = 0
    for t in tr.threads:
        by_id = {s[0]: s for s in t.spans}
        for sid, parent, name, rid, start, end, self_s in t.spans:
            assert end >= start and self_s >= -1e-9
            if parent in by_id:
                pstart, pend = by_id[parent][4:6]
                assert pstart <= start and end <= pend
            # one request id per request: below a facade call the id is
            # the call's tag all the way down
            up = by_id.get(parent)
            while up is not None and not up[2].startswith("offload_comm."):
                up = by_id.get(up[1])
            if up is not None:
                facade += 1
                assert rid == up[3], (name, rid, up)
    assert facade > 0
    assert sum(tr.blocking_path().values()) == pytest.approx(1.0)
    assert "traceEvents" in tr.chrome_trace()


def test_seed_drives_inputs():
    for name in wl.BODIES:
        a, b, c = (wl.make_inputs(name, s, 0.05) for s in (3, 3, 4))

        def flat(inp):
            arrays = {k: v for k, v in inp.items() if k != "seed"}
            return json.dumps(
                arrays,
                sort_keys=True,
                default=lambda o: sorted(o) if isinstance(o, set) else np.asarray(o).tolist(),
            )

        assert flat(a) == flat(b), name
        assert flat(a) != flat(c), name


def test_corrupted_payload_raises_fail_frac():
    inp = wl.make_inputs("pingpong", 0, 0.05)
    clean, _ = run.one_rep("pingpong", inp, "offload", trace=False)
    dirty, _ = run.one_rep("pingpong", inp, "offload", trace=False, corrupt=True)
    assert clean.failed == 0
    assert dirty.failed >= 1 and dirty.attempted == dirty.ok + dirty.failed


def test_stall_is_counted_and_named(monkeypatch, capsys):
    def hang(inp, mode, tr, chk):
        raise run.WorldError({1: TimeoutError("rank 1 did not finish")})

    monkeypatch.setitem(wl.BODIES, "pingpong", hang)
    code = run.main(["--workload", "pingpong", "--seed", "0", "--seconds", "1", "--smoke", "--trace", "0"])
    out, err = capsys.readouterr()
    assert code == 3 and "STALL pingpong" in err
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["attempted"] == last["failed"] >= 1


def test_stall_keeps_the_other_workloads(monkeypatch, capsys, tmp_path):
    real = wl.BODIES["pingpong"]
    calls = []

    def second_hangs(inp, mode, tr, chk):
        calls.append(mode)
        if len(calls) == 2:
            raise TimeoutError("stalled")
        return real(inp, mode, tr, chk)

    monkeypatch.setitem(wl.BODIES, "pingpong", second_hangs)
    out_file = tmp_path / "r.json"
    code = run.main(["--seed", "0", "--smoke", "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert code == 3 and err.count("STALL") == 1 and "STALL pingpong" in err
    recs = json.loads(out_file.read_text())["workloads"]
    assert len(calls) == 2  # a stalled workload is not measured again
    assert recs["pingpong"]["stalled"] and recs["pingpong"]["failed"] == wl.ops(
        wl.make_inputs("pingpong", 0, 0.05)
    )
    assert recs["pingpong"]["attempted"] == 2 * recs["pingpong"]["failed"]
    for name, rec in recs.items():
        assert "end_to_end" in rec
        if name != "pingpong":
            assert rec["failed"] == 0 and not rec["stalled"]
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == recs["pingpong"]["failed"]


def test_isolated_layer_calls():
    iso = layers.isolated()
    want = {"mpsc_queue.iso_enqueue_ns", "mpsc_queue.iso_drain_ns", "freelist.iso_alloc_free_ns"}
    want |= {"request_pool.iso_alloc_release_ns"}
    want |= {f"matching.iso_{q}_match_ns_d{d}" for q in ("posted", "unexpected") for d in (1, 64, 1024)}
    want |= {f"datatypes.iso_copy_GBps_{s}" for s in ("64", "4k", "4m")}
    assert set(iso) == want
    for name, (value, unit) in iso.items():
        assert NAME.match(name) and UNIT.match(unit) and value > 0
