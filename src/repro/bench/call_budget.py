"""Interpreter calls per small message: the count behind DESIGN.md §19.

The offloaded small-message workloads are interpreter-bound, so what a
message costs is the Python it executes.  :func:`measure` counts it: a
profile hook on every thread (application *and* engine threads) sums
``call`` + ``c_call`` events over warmed windows of pre-posted
``irecv`` / ``isend`` + ``wait`` between two ranks — the shape of the
``eager_stream`` workload — once through ``offloaded()`` and once
through the plain communicator.  ``telemetry=True`` prices the switch,
which files a final snapshot and changes nothing on the message path:
it counts what ``telemetry=False`` does.  Counts, unlike timings,
repeat from run to run on a drifting box (to a few tenths of a call
per message: only the number of engine-loop iterations varies).
:func:`measure_blocking` counts the blocking path the same way: calls
per 8 B ``send``/``recv`` round trip through ``offloaded()``.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core import offloaded
from repro.mpisim import THREAD_FUNNELED, World

WINDOWS = 15
WINDOW = 64
NBYTES = 64
#: GIL switch interval while counting — CPython's default and what the
#: end-to-end benchmark pins.  How many commands the engine finds
#: queued when it wakes (hence loop iterations per message) follows
#: from it; the test suite's 0.1 ms shortens the runs the engine drains.
SWITCH_INTERVAL = 5e-3
_TOKEN_TAG = 1 << 20
_TIMEOUT = 30.0


@dataclass
class CallCount:
    """Calls counted over the measured windows of one exchange."""

    messages: int
    #: ``"file:function"`` (or the C function's name) -> calls, on the
    #: application (rank) threads and on the engine threads
    app: Counter = field(default_factory=Counter)
    engine: Counter = field(default_factory=Counter)
    #: engine ``stats()`` deltas over the measured windows (offloaded)
    substrate_entries: int = 0
    commands: int = 0
    #: ``ProgressEngine.counters()`` deltas, both ranks, same windows
    envelopes: int = 0
    copies: int = 0

    @property
    def per_msg(self) -> float:
        total = sum(self.app.values()) + sum(self.engine.values())
        return total / self.messages

    @property
    def entries_per_cmd(self) -> float:
        return self.substrate_entries / max(1, self.commands)

    def report(self, top: int = 10) -> str:
        n = self.messages
        lines = [f"{self.per_msg:.1f} calls/msg"]
        for side in ("app", "engine"):
            counts = getattr(self, side)
            lines.append(f" {side} threads: {sum(counts.values()) / n:.1f}")
            for name, calls in counts.most_common(top):
                lines.append(f"  {calls / n:7.2f}  {name}")
        return "\n".join(lines)


class Hook:
    """The profile function; counts only while ``on``."""

    def __init__(self) -> None:
        self.on = False
        self.by_thread: dict[str, Counter] = {}

    def __call__(self, frame, event, arg) -> None:
        if not self.on:
            return
        if event == "call":
            code = frame.f_code
            key = f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"
        elif event == "c_call":
            key = getattr(arg, "__qualname__", None) or repr(arg)
        else:
            return
        name = threading.current_thread().name
        counts = self.by_thread.get(name)
        if counts is None:
            counts = self.by_thread[name] = Counter()
        counts[key] += 1


ENGINE_THREAD = "offload-rank-"


def _window(c, rank: int, out, into, tok) -> None:
    """One closed-loop window: rank 1 pre-posts, rank 0 streams."""
    if rank == 0:
        c.recv(tok, 1, _TOKEN_TAG)
        reqs = [c.isend(out, 1, i) for i in range(WINDOW)]
    else:
        reqs = [c.irecv(into[i], 0, i) for i in range(WINDOW)]
        c.send(tok, 0, _TOKEN_TAG)
    for req in reqs:
        req.wait()


def _counted(prog, messages: int) -> CallCount:
    """Run ``prog`` on two ranks under the hook, GIL switch interval
    pinned; the calls it counted, split by side."""
    hook = Hook()
    interval, profile = sys.getswitchinterval(), threading.getprofile()
    sys.setswitchinterval(SWITCH_INTERVAL)
    # rank threads and the engine threads they start run under the hook
    threading.setprofile(hook)
    try:
        World(2, thread_level=THREAD_FUNNELED).run(prog, hook, timeout=120)
    finally:
        threading.setprofile(profile)
        sys.setswitchinterval(interval)
    count = CallCount(messages=messages)
    for name, counts in hook.by_thread.items():
        side = count.engine if name.startswith(ENGINE_THREAD) else count.app
        side.update(counts)
    return count


def _hooked(hook: Hook, gate: threading.Barrier, run) -> None:
    """``run()`` with the hook on, both ranks lined up around it."""
    gate.wait(_TIMEOUT)
    hook.on = True
    gate.wait(_TIMEOUT)
    run()
    gate.wait(_TIMEOUT)
    hook.on = False
    gate.wait(_TIMEOUT)


def measure_blocking(rounds: int = 400) -> CallCount:
    """Count calls per blocking 8 B round trip (``messages`` counts
    round trips): rank 0 sends then receives, rank 1 the reverse —
    the ``pingpong`` workload's shape."""
    gate = threading.Barrier(2)

    def prog(comm, hook):
        buf = np.zeros(1, dtype=np.int64)  # 8 B
        peer = 1 - comm.rank

        def trips(n: int) -> None:
            for _ in range(n):
                if comm.rank == 0:
                    c.send(buf, peer)
                    c.recv(buf, peer)
                else:
                    c.recv(buf, peer)
                    c.send(buf, peer)

        with offloaded(comm, pool_size=1) as c:
            trips(20)  # warm: caches, lazy imports
            _hooked(hook, gate, lambda: trips(rounds))
        return True

    return _counted(prog, rounds)


def measure(
    offload: bool, windows: int = WINDOWS, telemetry: bool = False
) -> CallCount:
    """Count calls per message over ``windows`` warmed windows."""
    gate = threading.Barrier(2)
    stats: list = []

    def prog(comm, hook):
        rank = comm.rank
        out = np.arange(NBYTES, dtype=np.uint8)
        into = np.zeros((WINDOW, NBYTES), dtype=np.uint8)
        tok = np.zeros(1, dtype=np.uint8)
        ctx = (
            offloaded(comm, telemetry=telemetry, pool_size=1)
            if offload
            else contextlib.nullcontext(comm)
        )
        with ctx as c:
            for _ in range(2):  # warm: caches, lazy imports
                _window(c, rank, out, into, tok)
            counters = lambda: {  # noqa: E731 - engine + substrate
                **(c.engine.stats() if offload else {}),
                **comm.engine.counters(),
            }
            before = counters()
            _hooked(
                hook,
                gate,
                lambda: [
                    _window(c, rank, out, into, tok) for _ in range(windows)
                ],
            )
            after = counters()
            stats.append({k: after[k] - before.get(k, 0) for k in after})
            assert rank == 0 or (into == out).all()
        return True

    count = _counted(prog, windows * WINDOW)
    for delta in stats:
        count.substrate_entries += delta.get("substrate_entries", 0)
        count.commands += delta.get("commands_processed", 0)
        count.envelopes += delta["envelopes_handled"]
        count.copies += delta["payload_copies"]
    return count
