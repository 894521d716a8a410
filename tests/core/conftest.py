"""Pool-size parametrization for the core suite (see TESTING.md).

Every test that reaches the offload stack through
:func:`repro.core.interpose.offloaded` (without an explicit
``pool_size``) inherits :data:`repro.core.interpose.DEFAULT_POOL_SIZE`.
This conftest turns that default into a suite-wide matrix axis: set
``REPRO_POOL_SIZE`` to run the entire existing core suite against a
sharded :class:`~repro.core.engine_pool.EnginePool` instead of a single
engine —

* unset / ``1`` — single-engine baseline, identical to the seed suite
  (no parametrization churn, same test ids);
* ``REPRO_POOL_SIZE=4`` — every ``offloaded`` call builds a 4-shard
  routed pool, each shard draining only its own ring (ids gain a
  ``pool4`` suffix);
* ``REPRO_POOL_SIZE=1,2,4`` — full conformance sweep, one run per
  width.

Default-derived widths are clamped to 1 inside worlds below
``MPI_THREAD_MULTIPLE`` (the pool needs concurrent MPI), so FUNNELED
tests keep passing unchanged while every ``run_world_mt`` test truly
exercises routing across shards.
A ``run_world_mt`` test that builds its own
:class:`~repro.core.engine_pool.EnginePool` (the ring and request-pool
sizes are its keywords alone) takes the ``engine_pool_size`` fixture
and passes it as ``pool_size``.
"""

import os
import sys

import pytest

import repro.core.interpose  # noqa: F401 - bound through sys.modules

# ``repro.core`` re-exports the *function* ``interpose``, which shadows
# the submodule attribute of the same name; go through sys.modules.
_interpose_mod = sys.modules["repro.core.interpose"]


def _pool_sizes() -> list[int]:
    env = os.environ.get("REPRO_POOL_SIZE", "").strip()
    if not env:
        return [1]
    sizes = [int(tok) for tok in env.replace(",", " ").split()]
    if any(n < 1 for n in sizes):
        raise pytest.UsageError(
            f"REPRO_POOL_SIZE must list positive widths, got {env!r}"
        )
    return sizes or [1]


def pytest_generate_tests(metafunc):
    sizes = _pool_sizes()
    if sizes == [1]:
        return  # baseline: keep seed test ids byte-identical
    if "engine_pool_size" in metafunc.fixturenames:
        metafunc.parametrize(
            "engine_pool_size",
            sizes,
            ids=[f"pool{n}" for n in sizes],
            indirect=True,
        )


@pytest.fixture(autouse=True)
def engine_pool_size(request, monkeypatch) -> int:
    """Suite-wide default shard count for ``offloaded`` callers."""
    size = int(getattr(request, "param", 1))
    monkeypatch.setattr(_interpose_mod, "DEFAULT_POOL_SIZE", size)
    return size
