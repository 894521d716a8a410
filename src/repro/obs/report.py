"""Snapshot / merge / render helpers for engine telemetry.

A *snapshot* is a plain dict (JSON-serializable) capturing one offload
engine's counters (its ``stats()``) plus the state of its command ring,
request pool, and the underlying per-rank progress engine.  Snapshots
from many engines/ranks merge into one aggregate; ``render`` turns
either into a human-readable block for examples and benchmark logs.

A process-global *registry* collects the final snapshot of every
telemetry-enabled engine at shutdown, so harnesses (benchmarks, the
CLI) can report counters for engines that lived and died inside a
``World`` run they did not construct themselves.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.obs.counters import COUNTER_GLOSSARY, merge_counters

#: snapshot keys whose values are counter dicts (merged element-wise)
_DICT_SECTIONS = ("counters", "queue", "pool", "progress")


def snapshot_engine(engine: Any) -> dict:
    """Capture one :class:`~repro.core.engine.OffloadEngine`'s state.

    Works on any object with the engine's surface (``stats``,
    ``_tally``, ``queue``, ``pool``, ``comm``, ``cpus``); the duck
    typing keeps this module free of imports from :mod:`repro.core`.
    Its ``counters`` are the engine's ``stats()``, except that the
    balance law's counts and ``in_flight`` come from the one value the
    engine loop last published (``_tally``), so a snapshot of a live
    engine balances whenever the loop did.
    """
    queue = engine.queue
    progress = engine.comm.engine
    enqueued, drained, completions, control, in_flight = engine._tally
    counters = engine.stats()
    counters.update(
        enqueues=enqueued,
        commands_drained=drained,
        completions=completions,
        control_commands=control,
    )
    return {
        "rank": progress.rank,
        "ranks": [progress.rank],
        # where the engine thread ran (None: not started, or no mask)
        "cpus": engine.cpus,
        "counters": counters,
        "in_flight": in_flight,
        "queue": {
            "capacity": queue.capacity,
            "occupancy": len(queue),
            "occupancy_hwm": queue.occupancy_hwm,
        },
        "pool": {
            "capacity": engine.pool.capacity,
            "allocated": engine.pool.allocated,
        },
        "progress": progress.counters(),
    }


def merge(snapshots: "list[dict]") -> dict:
    """Merge per-engine snapshots into one aggregate.

    Counter-like sections merge element-wise (sum, max for peaks);
    capacities sum (they are per-engine resources); rank lists and the
    engine threads' CPU masks union.
    """
    out: dict = {
        "ranks": sorted(
            {r for s in snapshots for r in s.get("ranks", [])}
        ),
        "cpus": sorted(
            {c for s in snapshots for c in s.get("cpus") or ()}
        ),
        "in_flight": sum(s.get("in_flight", 0) for s in snapshots),
        "engines": len(snapshots),
    }
    for section in _DICT_SECTIONS:
        out[section] = merge_counters(
            [s.get(section, {}) for s in snapshots]
        )
    return out


def check_balance(snapshot: dict) -> tuple[bool, dict[str, int]]:
    """The stress-test conservation law for a (merged) snapshot.

    At any quiescent point::

        enqueued == drained == completions + control + in_flight

    i.e. every command ever enqueued was drained, and every drained
    command either reached a terminal state, was an engine-control
    command, or is still in flight.
    """
    c = snapshot.get("counters", {})
    detail = {
        "enqueued": c.get("enqueues", 0),
        "drained": c.get("commands_drained", 0),
        "completions": c.get("completions", 0),
        "control": c.get("control_commands", 0),
        "in_flight": snapshot.get("in_flight", 0),
    }
    ok = (
        detail["enqueued"] == detail["drained"]
        and detail["drained"]
        == detail["completions"] + detail["control"] + detail["in_flight"]
    )
    return ok, detail


def render(snapshot: dict, title: str = "engine telemetry") -> str:
    """Human-readable block for examples and benchmark logs."""
    lines = [f"{title}:"]
    ranks = snapshot.get("ranks")
    if ranks:
        engines = snapshot.get("engines", len(ranks))
        lines.append(
            f"  ranks={ranks} engines={engines} "
            f"cpus={snapshot.get('cpus')}"
        )
    counters = snapshot.get("counters", {})
    known = [n for n in COUNTER_GLOSSARY if n in counters]
    extra = sorted(set(counters) - set(known))
    for name in known + extra:
        lines.append(f"  {name:24s} {counters[name]}")
    for section in ("queue", "pool", "progress"):
        d = snapshot.get(section, {})
        if d:
            body = " ".join(f"{k}={v}" for k, v in sorted(d.items()))
            lines.append(f"  [{section}] {body}")
    ok, detail = check_balance(snapshot)
    lines.append(
        "  balance: enqueued={enqueued} drained={drained} "
        "completions={completions} control={control} "
        "in_flight={in_flight}".format(**detail)
        + (" OK" if ok else " IMBALANCED")
    )
    return "\n".join(lines)


# -- process-global snapshot registry ------------------------------------

_registry: list[dict] = []
_registry_lock = threading.Lock()


def record_snapshot(snapshot: dict) -> None:
    """Engines with telemetry on push their final snapshot here at
    stop()/abort()."""
    with _registry_lock:
        _registry.append(snapshot)


def drain_snapshots() -> list[dict]:
    """Remove and return everything recorded so far."""
    with _registry_lock:
        out = list(_registry)
        _registry.clear()
    return out


def peek_snapshots() -> list[dict]:
    with _registry_lock:
        return list(_registry)
