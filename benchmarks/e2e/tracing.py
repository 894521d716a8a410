"""Outside-in tracing: spans around the layers' public functions.

Nothing in ``src/`` is stamped.  :class:`Tracer` replaces the public
functions of each layer — where callers look them up — with wrappers
that record a span (name, start, end, parent via a thread-local stack,
request id = the tag where one is visible, else the parent's), and puts
the originals back on exit.  Spans stay in memory; the runner writes
them out at exit (``--trace-out``).  A span's *self time* is its
duration minus the part its child spans cover.

High-frequency engine-loop calls that did nothing (an empty ``drain``,
a ``progress`` that handled no envelope) are folded into a count and a
time sum instead of a span each.
"""

from __future__ import annotations

import threading
import time

from repro.core.engine import OffloadEngine
from repro.core.engine_pool import EnginePool
from repro.core.offload_comm import OffloadCommunicator
from repro.core.request_pool import OffloadRequest, OffloadRequestPool
from repro.lockfree.atomics import AtomicFlag
from repro.lockfree.mpsc_queue import MPSCQueue
from repro.mpisim import datatypes
from repro.mpisim.matching import PostedReceiveQueue, UnexpectedQueue
from repro.mpisim.progress import ProgressEngine
from repro.serve.bridge import AsyncOffloadEngine

perf = time.perf_counter

#: spans kept per repetition; beyond it they only feed the aggregates
#: and ``trace.spans_dropped`` counts them
SPAN_CAP = 1_500_000


class _Thread:
    __slots__ = ("tid", "stack", "spans", "agg", "next_id")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        #: open frames: [span id, name, rid, start, child time]
        self.stack: list = []
        #: closed spans: (id, parent id, name, rid, start, end, self)
        self.spans: list = []
        #: name -> [count, duration sum, self-time sum]
        self.agg: dict = {}
        self.next_id = 0


class Tracer:
    """Span recorder plus the patch table; one per traced repetition."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_Thread] = []
        self.measuring = False
        self.kept = 0
        self.dropped = 0
        self._patched: list = []
        # -- cross-thread bookkeeping (dict ops are GIL-atomic) ---------
        #: id(done flag) -> [enqueue return, drain return, is pool slot]
        self._cmds: dict = {}
        self._by_cmd: dict = {}
        self._flag_set: dict = {}
        self.sums = {
            k: [0, 0.0]
            for k in ("queue_wait", "dispatch_to_done", "wake", "idle_drain", "idle_progress")
        }
        self.copy_bytes = 0
        self.prq_hits = self.umq_hits = self.umq_hwm = 0
        self.engine_tids: set = set()
        self._cpu0: dict = {}
        self.engine_cpu_s = 0.0

    # ------------------------------------------------------------- spans

    def _me(self) -> _Thread:
        try:
            return self._local.t
        except AttributeError:
            t = self._local.t = _Thread(threading.get_ident())
            with self._lock:
                self.threads.append(t)
            return t

    def begin(self, name: str, rid=None) -> None:
        t = self._me()
        stack = t.stack
        if rid is None and stack:
            rid = stack[-1][2]
        stack.append([t.next_id, name, rid, perf(), 0.0])
        t.next_id += 1

    def end(self, fold: str | None = None) -> None:
        """Close the innermost span; ``fold`` names the sum it joins
        instead of being recorded (a call that did nothing)."""
        now = perf()
        t = self._me()
        sid, name, rid, start, child = t.stack.pop()
        dur = now - start
        parent = -1
        if t.stack:
            top = t.stack[-1]
            top[4] += dur
            parent = top[0]
        if not self.measuring:
            return
        if fold is not None:
            s = self.sums[fold]
            s[0] += 1
            s[1] += dur
            return
        a = t.agg.get(name)
        if a is None:
            a = t.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if self.kept < SPAN_CAP:
            self.kept += 1
            t.spans.append((sid, parent, name, rid, start, now, dur - child))
        else:
            self.dropped += 1

    def phase_begin(self) -> None:
        for tid in self.engine_tids:
            self._cpu0[tid] = _thread_cpu(tid)
        self.measuring = True

    def phase_end(self) -> None:
        self.measuring = False
        self.engine_cpu_s = sum(
            _thread_cpu(tid) - self._cpu0.get(tid, 0.0) for tid in self.engine_tids
        )

    # ---------------------------------------------------------- patching

    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _span(self, owner, attr: str, name: str, rid_arg: int = 99):
        """Plain span around ``owner.attr``; ``rid_arg`` is the index of
        the positional argument that carries the tag (default: none)."""
        begin, end = self.begin, self.end

        def make(orig):
            def wrapper(*args, **kw):
                begin(name, args[rid_arg] if len(args) > rid_arg else kw.get("tag"))
                try:
                    return orig(*args, **kw)
                finally:
                    end()

            return wrapper

        self._patch(owner, attr, make)

    def __enter__(self) -> "Tracer":
        span = self._span
        # facade (application threads); tag is the third positional
        for call in ("isend", "irecv", "send", "recv"):
            span(OffloadCommunicator, call, f"offload_comm.{call}", 3)
        span(OffloadRequestPool, "alloc", "request_pool.alloc")
        span(OffloadRequestPool, "release", "request_pool.release")
        span(OffloadRequest, "wait", "request_pool.wait")
        span(EnginePool, "route", "engine_pool.route")
        span(ProgressEngine, "post_send", "progress.post_send", 3)
        span(ProgressEngine, "post_recv", "progress.post_recv", 3)
        self._patch(AtomicFlag, "wait", self._flag_wait)
        self._patch(AtomicFlag, "set", self._flag_set_hook)
        self._patch(OffloadEngine, "submit", self._submit)
        self._patch(MPSCQueue, "enqueue", self._enqueue)
        self._patch(MPSCQueue, "drain", self._drain)
        self._patch(ProgressEngine, "progress", self._progress)
        self._patch(PostedReceiveQueue, "match", self._posted_match)
        self._patch(UnexpectedQueue, "match", self._unexpected_match)
        self._patch(UnexpectedQueue, "add", self._unexpected_add)
        # progress.py calls ``datatypes.copy_into``: patch it there
        self._patch(datatypes, "copy_into", self._copy_into)
        self._patch(AsyncOffloadEngine, "awaitable", self._awaitable)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------- special wrappers

    def _flag_wait(self, orig):
        def wait(flag, timeout=None):
            # the blocked part of OffloadRequest.wait, or of a blocking
            # facade call spinning on its command's done flag
            stack = self._me().stack
            under_wait = stack and stack[-1][1] == "request_pool.wait"
            self.begin("request_pool.wait_blocked" if under_wait else "offload_comm.blocking_wait")
            try:
                return orig(flag, timeout)
            finally:
                self.end()

        return wait

    def _flag_set_hook(self, orig):
        def set_(flag, payload=None):
            orig(flag, payload)
            rec = self._cmds.get(id(flag))
            if rec is not None and rec[1]:
                now = perf()
                if self.measuring:
                    s = self.sums["dispatch_to_done"]
                    s[0] += 1
                    s[1] += now - rec[1]
                rec[1] = 0.0
                if rec[2]:
                    self._flag_set[id(flag)] = now
                else:
                    del self._cmds[id(flag)]

        return set_

    def _submit(self, orig):
        def submit(engine, cmd):
            flag = cmd.done
            if flag is None and cmd.slot >= 0:
                flag = engine.pool.slot(cmd.slot).flag
            if flag is not None:
                # registered before the enqueue: the engine may drain
                # the command before this thread runs again
                rec = [0.0, 0.0, cmd.done is None]
                self._cmds[id(flag)] = self._by_cmd[id(cmd)] = rec
            self.begin("engine.submit", cmd.tag)
            try:
                return orig(engine, cmd)
            finally:
                self.end()

        return submit

    def _enqueue(self, orig):
        def enqueue(queue, value):
            self.begin("mpsc_queue.enqueue")
            try:
                orig(queue, value)
            finally:
                self.end()
            rec = self._by_cmd.get(id(value))
            if rec is not None:
                rec[0] = perf()

        return enqueue

    def _drain(self, orig):
        def drain(queue, limit=None):
            self.begin("mpsc_queue.drain")
            out = None
            try:
                out = orig(queue, limit)
            finally:
                self.end(None if out else "idle_drain")
            now = perf()
            s = self.sums["queue_wait"]
            for cmd in out:
                rec = self._by_cmd.pop(id(cmd), None)
                if rec is not None:
                    rec[1] = now
                    if self.measuring and rec[0]:
                        s[0] += 1
                        s[1] += now - rec[0]
            return out

        return drain

    def _progress(self, orig):
        def progress(engine):
            self.engine_tids.add(threading.get_ident())
            self.begin("progress.progress")
            n = 0
            try:
                n = orig(engine)
            finally:
                self.end(None if n else "idle_progress")
            return n

        return progress

    def _posted_match(self, orig):
        def match(queue, env):
            self.begin("matching.posted_match", env.tag)
            try:
                req = orig(queue, env)
            finally:
                self.end()
            if req is not None and self.measuring:
                self.prq_hits += 1
            return req

        return match

    def _unexpected_match(self, orig):
        def match(queue, source, tag, context_id):
            self.begin("matching.unexpected_match", tag)
            try:
                env = orig(queue, source, tag, context_id)
            finally:
                self.end()
            if env is not None and self.measuring:
                self.umq_hits += 1
            return env

        return match

    def _unexpected_add(self, orig):
        def add(queue, env):
            orig(queue, env)
            if len(queue) > self.umq_hwm:
                self.umq_hwm = len(queue)

        return add

    def _copy_into(self, orig):
        def copy_into(dst, payload):
            self.begin("datatypes.copy_into")
            try:
                n = orig(dst, payload)
            finally:
                self.end()
            if self.measuring:
                self.copy_bytes += n
            return n

        return copy_into

    def _awaitable(self, orig):
        def awaitable(aeng, req):
            flag_id = id(aeng.ocomm.engine.pool.slot(req.slot_index).flag)
            self.begin("bridge.awaitable")
            try:
                fut = orig(aeng, req)
            finally:
                self.end()

            def resolved(_fut):
                done_at = self._flag_set.pop(flag_id, None)
                if done_at is not None and self.measuring:
                    s = self.sums["wake"]
                    s[0] += 1
                    s[1] += perf() - done_at

            fut.add_done_callback(resolved)
            return fut

        return awaitable

    # ----------------------------------------------------------- results

    def totals(self) -> dict:
        """``name -> [count, duration, self time]`` over all threads."""
        out: dict = {}
        for t in self.threads:
            for name, (n, dur, self_s) in t.agg.items():
                a = out.setdefault(name, [0, 0.0, 0.0])
                a[0] += n
                a[1] += dur
                a[2] += self_s
        return out

    def blocking_path(self) -> dict:
        """Self-time share of every span name on the measuring threads
        (those that recorded ``bench.unit``).  The shares sum to one;
        ``bench.unit``'s own share is time inside no wrapped function."""
        merged: dict = {}
        for t in self.threads:
            if "bench.unit" in t.agg:
                for name, a in t.agg.items():
                    merged[name] = merged.get(name, 0.0) + a[2]
        total = sum(merged.values())
        return {k: v / total for k, v in sorted(merged.items())} if total else {}

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome/Perfetto trace-event JSON."""
        events = []
        for t in self.threads:
            for sid, parent, name, rid, start, end, self_s in t.spans:
                events.append(
                    {
                        "name": name,
                        "cat": name.split(".")[0],
                        "ph": "X",
                        "pid": 0,
                        "tid": t.tid,
                        "ts": start * 1e6,
                        "dur": (end - start) * 1e6,
                        "args": {"id": sid, "parent": parent, "rid": rid, "self_us": self_s * 1e6},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ns"}


def _thread_cpu(tid: int) -> float:
    """CPU seconds consumed so far by the (live) thread ``tid``."""
    return time.clock_gettime(time.pthread_getcpuclockid(tid))
