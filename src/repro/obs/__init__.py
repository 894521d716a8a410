"""Observability for the offload stack (counters and reports).

The paper's claims are statements about *internal engine behavior* —
queue occupancy, Testany sweep frequency, rendezvous progress during
compute — that timings alone cannot verify.  This package makes that
behavior observable:

* :mod:`repro.obs.counters` — the counter glossary, plus per-thread
  counter sets for owners that keep no attribute of their own (fault
  plans, checkpoint stores, the DST explorer);
* :mod:`repro.obs.report` — snapshot / merge / render helpers plus the
  process-global registry benchmarks drain.

The offload stack's counters are always on: each is a plain int
attribute of the object that owns the event, or a value read from the
structure that holds the fact (DESIGN.md §9).  The telemetry switch
decides only whether an engine's final snapshot is filed in the
registry: the engine runs the same code either way.  Engines read the
default from :func:`enabled` once at construction; scope it with
:func:`telemetry`, or pass ``telemetry=``
to :class:`~repro.core.engine.OffloadEngine` /
:func:`~repro.core.interpose.offloaded`.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.obs.counters import COUNTER_GLOSSARY, Counters, merge_counters
from repro.obs.report import (
    check_balance,
    drain_snapshots,
    merge,
    peek_snapshots,
    record_snapshot,
    render,
    snapshot_engine,
)

_enabled = False


def enabled() -> bool:
    """Is telemetry globally enabled (default for new engines)?"""
    return _enabled


@contextlib.contextmanager
def telemetry(on: bool = True) -> Iterator[None]:
    """Scope the global telemetry default; restores it on exit."""
    global _enabled
    prev = _enabled
    _enabled = bool(on)
    try:
        yield
    finally:
        _enabled = prev


__all__ = [
    "COUNTER_GLOSSARY",
    "Counters",
    "check_balance",
    "drain_snapshots",
    "enabled",
    "merge",
    "merge_counters",
    "peek_snapshots",
    "record_snapshot",
    "render",
    "snapshot_engine",
    "telemetry",
]
