"""Regenerate every paper table and figure from its analytic model.

One case per artifact of :data:`repro.experiments.REGISTRY` (DESIGN.md
§4 is the index, EXPERIMENTS.md the paper-vs-measured record).  Each
runs once under the benchmark fixture — single-shot, because the
quantity of interest is the artifact, not timing jitter — prints its
table, and asserts the paper's qualitative claims with its module's
``check``.

Run with::

    pytest benchmarks/bench_experiments.py --benchmark-only
"""

import pytest

from repro.experiments import REGISTRY, load


@pytest.mark.parametrize("exp_id", list(REGISTRY))
def test_experiment(benchmark, exp_id):
    mod = load(exp_id)
    table = benchmark.pedantic(
        lambda: mod.run(fast=True), iterations=1, rounds=1
    )
    print()
    print(table.render())
    mod.check(table)
    benchmark.extra_info["rows"] = len(table.rows)
