"""Interpreter calls per small message, as ratcheted counters.

The offloaded small-message path is interpreter-bound: a 64 B message
costs what Python executes for it (DESIGN.md §19).  This benchmark
counts ``call`` + ``c_call`` profile events on every thread over
warmed windows of pre-posted ``irecv`` / ``isend`` + ``wait``
(:mod:`repro.bench.call_budget`), through the offload stack and through
the plain communicator, and records over the same windows the engine's
substrate entries per command and the substrate's own work per message
(envelopes handled, send-time copies): fewer calls must be the same
work.  ``calls_per_msg_telemetry`` prices the telemetry switch, which
only files a final snapshot: it counts what the switch off does.
``app_calls_per_blocking_rt`` / ``engine_calls_per_blocking_rt`` count
the blocking path: calls per 8 B ``send``/``recv`` round trip
(:func:`repro.bench.call_budget.measure_blocking`) — a blocking call
is its nonblocking command plus a wait on the slot (DESIGN.md §22).

All are ``counter``-kind metrics: they repeat to within a call per
message on one interpreter, so ``benchmarks/ratchet.py`` blocks on
them.  The profile events an interpreter emits differ between CPython
versions (``with lock:`` is one C call on 3.11, two on 3.10;
comprehensions stopped being calls in 3.12), hence the 15 % band stated
with each call count; entries per command depend on how many commands
the engine finds queued when it wakes, hence its wider one; envelopes
and copies per message are exact (one each per message plus the
window's token).  The hard limits — 115 calls (48 application, 66
engine), 64 plain, 1.85 × plain, 0.1 entries per command — are
asserted in ``tests/core/test_call_budget.py``.
"""

from __future__ import annotations

from repro.bench.call_budget import (
    NBYTES,
    WINDOW,
    WINDOWS,
    measure,
    measure_blocking,
)


def test_call_budget(bench_trajectory):
    offload = measure(offload=True)
    plain = measure(offload=False)
    traced = measure(offload=True, telemetry=True)
    blocking = measure_blocking()
    print(f"\noffloaded: {offload.report()}")
    print(f"offloaded, telemetry on: {traced.report(top=5)}")
    print(f"plain: {plain.report(top=0)}")
    print(f"blocking 8 B round trip: {blocking.report(top=5)}")
    print(
        f"substrate entries per command: {offload.entries_per_cmd:.3f} "
        f"({offload.substrate_entries} / {offload.commands})"
    )
    n = offload.messages
    bench_trajectory.add_row(
        "call_budget",
        windows=WINDOWS,
        window=WINDOW,
        nbytes=NBYTES,
        top_callees={
            name: round(calls / n, 2)
            for name, calls in (offload.app + offload.engine).most_common(10)
        },
    )
    for key, value, tolerance in (
        ("calls_per_msg_offload", round(offload.per_msg, 1), 0.15),
        ("app_calls_per_msg", round(sum(offload.app.values()) / n, 1), 0.15),
        (
            "engine_calls_per_msg",
            round(sum(offload.engine.values()) / n, 1),
            0.15,
        ),
        ("calls_per_msg_plain", round(plain.per_msg, 1), 0.15),
        ("calls_per_msg_telemetry", round(traced.per_msg, 1), 0.15),
        (
            "substrate_entries_per_cmd",
            round(offload.entries_per_cmd, 3),
            1.0,
        ),
        (
            "app_calls_per_blocking_rt",
            round(sum(blocking.app.values()) / blocking.messages, 1),
            0.15,
        ),
        (
            "engine_calls_per_blocking_rt",
            round(sum(blocking.engine.values()) / blocking.messages, 1),
            0.15,
        ),
        ("envelopes_per_msg", round(offload.envelopes / n, 3), 0.02),
        ("copies_per_msg", round(offload.copies / n, 3), 0.02),
    ):
        bench_trajectory.metric(
            "call_budget",
            key,
            value,
            kind="counter",
            direction="lower",
            tolerance=tolerance,
        )
    assert offload.per_msg > plain.per_msg > 0
