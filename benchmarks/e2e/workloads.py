"""The six closed-loop workloads of the end-to-end benchmark.

Every workload is one function ``body(inp, mode, tr, chk) -> Rep`` that
builds a fresh :class:`World`, enters ``offloaded()`` (``mode ==
"offload"``) or uses the plain communicator (``mode == "direct"``, the
``mpisim.direct_*`` baseline), runs one warm-up unit, then a fixed
amount of work.  The program under test only ever sees the arrays in
``inp``, which :func:`make_inputs` derives from the seed.

A *unit* is the closed-loop step whose duration is the workload's
latency sample: a window (streams), a one-way trip (pingpong), a step
(halo), a round (late_recv_mixed), a request (serve).  Units are timed
on rank 0 (the sender / the event loop); received payloads are compared
with the seeded pattern between units or after the phase, never inside
a timed unit: where a rank checks between units, no rank starts the
next unit before every rank has finished its check.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import OffloadCommunicator, offloaded
from repro.mpisim import ANY_SOURCE, THREAD_FUNNELED, THREAD_MULTIPLE, World
from repro.serve import AsyncOffloadEngine, LoadgenConfig, ServingFrontend
from repro.serve.loadgen import build_schedule

perf = time.perf_counter
cpu = time.thread_time

#: units of fixed work per repetition (about one second each on the
#: 2-core reference box); ``scale`` shrinks them for the smoke test
WORK = {
    "eager_stream": 64,  # windows per producer thread
    "rndv_stream": 60,  # windows
    "pingpong": 800,  # round trips
    "halo_overlap": 160,  # steps
    "late_recv_mixed": 150,  # rounds
    "serve_closed": 2400,  # requests
}

WIN, EAGER_B = 64, 64
RNDV_B = 4 << 20
RNDV_WIN = 8
HALO_B = 512 << 10
HALO_N = 100_000
LATE_MSGS = 32
SERVE_CLIENTS = 8
TOKEN_TAG = 1 << 20
#: a repetition is ~1 s of work; anything past this is the ROADMAP
#: item 0 class of stall and is reported, not waited for
REP_TIMEOUT = 30.0
_SYNC_TIMEOUT = 20.0


@dataclass
class Rep:
    """What one repetition measured (all times in seconds)."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    units: list = field(default_factory=list)
    msgs: int = 0
    nbytes: int = 0
    issue_cpu_s: float = 0.0
    issue_calls: int = 0
    attempted: int = 0
    ok: int = 0
    #: counter deltas over the measured phase, one dict per rank
    counters: list = field(default_factory=list)
    #: workload-specific raw numbers for the per-layer report
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


class NullTracer:
    """Untraced pass: the hooks the bodies call cost one method call."""

    def begin(self, name, rid=None):
        pass

    def end(self):
        pass

    def phase_begin(self):
        pass

    def phase_end(self):
        pass


class Checker:
    """Counts verified payloads; ``corrupt`` flips one received byte
    before the first comparison (the contract self-test's fault)."""

    def __init__(self, corrupt: bool = False) -> None:
        self._corrupt = corrupt
        self.ok = 0
        self._lock = threading.Lock()

    def check(self, got: np.ndarray, want: np.ndarray, count: int = 1) -> None:
        """``got``/``want`` hold ``count`` messages (rows or one)."""
        with self._lock:
            if self._corrupt:
                self._corrupt = False
                got.reshape(-1)[0] ^= 0xFF
        same = (got.reshape(count, -1) == want.reshape(count, -1)).all(1)
        with self._lock:
            self.ok += int(same.sum())


def make_inputs(name: str, seed: int, scale: float = 1.0) -> dict:
    """Seeded inputs of one workload; the same seed gives the same
    arrays, a different seed different ones."""
    rng = np.random.default_rng([seed, sorted(WORK).index(name)])
    n = max(2, int(WORK[name] * scale))
    inp: dict = {"name": name, "n": n, "seed": seed}

    def noise(*shape):
        return rng.integers(0, 256, size=shape, dtype=np.uint8)

    def touched(*shape):
        # Large receive buffers are allocated once per run and written
        # here: on a lazily backed VM the first touch of fresh pages
        # costs up to a second, which would be measured as set-up.
        return np.full(shape, 0, dtype=np.uint8)

    if name == "eager_stream":
        inp["payload"] = [noise(n + 1, WIN, EAGER_B) for _ in range(2)]
        inp["recv"] = [touched(n + 1, WIN, EAGER_B) for _ in range(2)]
    elif name == "rndv_stream":
        inp["payload"] = [noise(RNDV_B), noise(RNDV_B)]
        inp["recv"] = [touched(RNDV_B) for _ in range(RNDV_WIN)]
    elif name == "pingpong":
        inp["payload"] = rng.integers(0, 2**63, size=n + 1, dtype=np.int64)
    elif name == "halo_overlap":
        inp["payload"] = [[noise(HALO_B), noise(HALO_B)] for _ in range(2)]
        inp["recv"] = [touched(HALO_B) for _ in range(2)]
        inp["field"] = rng.random(HALO_N)
        inp["scratch"] = [np.full(HALO_N, 0.0) for _ in range(2)]
    elif name == "late_recv_mixed":
        sizes = [64, 4096] * (LATE_MSGS // 2)
        rng.shuffle(sizes)
        inp["sizes"] = [int(s) for s in sizes]
        inp["payload"] = [noise(s) for s in inp["sizes"]]
        inp["order"] = [int(i) for i in rng.permutation(LATE_MSGS)]
        inp["wild"] = {int(i) for i in rng.permutation(LATE_MSGS)[: LATE_MSGS // 4]}
    elif name == "serve_closed":
        # tenants from the repo's seeded schedule; sizes bimodal with
        # exactly one 4 KiB request in ten, so bytes do not vary by seed
        cfg = LoadgenConfig(seed=seed, mode="closed", requests=n + 32)
        sizes = [4096 if i % 10 == 0 else 64 for i in range(n)]
        rng.shuffle(sizes)
        sizes = [64] * 32 + sizes  # the warm-up requests come first
        inp["schedule"] = [(t, int(s)) for (t, _, _), s in zip(build_schedule(cfg), sizes)]
        inp["pool"] = noise(1 << 16)
        offs = random.Random(f"e2e:{seed}")
        inp["offsets"] = [offs.randrange((1 << 16) - 4096) for _ in range(n + 32)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return inp


def ops(inp: dict) -> int:
    """Operations one repetition attempts (payload messages; requests
    on ``serve_closed``): what a repetition that stalls has failed."""
    per_unit = {
        "eager_stream": 2 * WIN,
        "rndv_stream": RNDV_WIN,
        "pingpong": 2,
        "halo_overlap": 2,
        "late_recv_mixed": LATE_MSGS,
        "serve_closed": 1,
    }
    return inp["n"] * per_unit[inp["name"]]


# ------------------------------------------------------------------ plumbing


def _counters(c) -> dict:
    """Flat counter snapshot of one rank: offload engine stats (when
    offloaded) merged with the substrate progress engine's counters."""
    if isinstance(c, OffloadCommunicator):
        out = dict(c.engine.stats())
        shards = getattr(c.engine, "engines", None)
        if shards is not None:
            out["shard_commands"] = [e.commands_processed for e in shards]
        out.update(c.inner.engine.counters())
        return out
    return dict(c.engine.counters())


def _delta(after: dict, before: dict) -> dict:
    out = {}
    for k, v in after.items():
        if isinstance(v, list):
            out[k] = [a - b for a, b in zip(v, before[k])]
        elif k.endswith("_hwm") or k.startswith("max_"):
            out[k] = v
        else:
            out[k] = v - before.get(k, 0)
    return out


def _wait_all(reqs) -> None:
    for r in reqs:
        r.wait()


class _Run:
    """Shared state of one repetition: ranks are threads of this
    process, so they rendezvous on a plain barrier (kept out of the
    stack under test) and write into one :class:`Rep`."""

    def __init__(self, nranks: int, parties: int, mode: str, tr, pool_size: int = 1):
        self.rep = Rep()
        self.mode = mode
        self.tr = tr
        self.pool_size = pool_size
        self.nranks = nranks
        self.barrier = threading.Barrier(parties)
        self._mains = threading.Barrier(nranks)
        self.starts: list = []
        self.ends: list = []
        self._before: dict = {}
        self._t0 = perf()

    def enter(self, comm):
        if self.mode == "offload":
            # both pinned: REPRO_TELEMETRY and a raised DEFAULT_POOL_SIZE
            # must not change what is measured
            return offloaded(comm, telemetry=False, pool_size=self.pool_size)
        return contextlib.nullcontext(comm)

    def sync(self) -> None:
        self.barrier.wait(_SYNC_TIMEOUT)

    def phase_begin(self, c, rank: int) -> None:
        """All parties warmed up: set-up ends, the measured phase starts."""
        self._before[rank] = _counters(c)
        self.sync()
        if rank == 0:
            self.rep.setup_s = perf() - self._t0
            self.tr.phase_begin()
        self.sync()

    def phase_end(self, c, rank: int) -> None:
        self.sync()
        if rank == 0:
            self.tr.phase_end()
        # no rank may tear its engine down while rank 0 still reads the
        # engine threads' CPU clocks
        self._mains.wait(_SYNC_TIMEOUT)
        self.rep.counters.append(_delta(_counters(c), self._before[rank]))

    def go(self, program, thread_level=THREAD_FUNNELED) -> Rep:
        world = World(self.nranks, thread_level=thread_level)
        world.run(program, timeout=REP_TIMEOUT)
        if self.starts:
            self.rep.wall_s = max(self.ends) - min(self.starts)
        return self.rep


# ----------------------------------------------------------------- workloads


def eager_stream(inp, mode, tr, chk) -> Rep:
    n = inp["n"]
    # two application threads per rank enter a plain communicator
    # concurrently; the offloaded one only ever sees its engine thread
    level = THREAD_MULTIPLE if mode == "direct" else THREAD_FUNNELED
    run = _Run(2, 6, mode, tr)
    rep = run.rep
    rep.attempted = rep.msgs = ops(inp)
    rep.nbytes = rep.msgs * EAGER_B
    recv_store = inp["recv"]
    for store in recv_store:
        store.fill(0)  # last repetition's (identical) bytes must not pass
    lock = threading.Lock()
    errors: list = []

    def sender(c, t: int) -> None:
        rows = [list(win) for win in inp["payload"][t]]
        tok = np.zeros(1, dtype=np.uint8)
        units, issue = [], 0.0

        def window(w: int) -> float:
            c.recv(tok, 1, TOKEN_TAG)
            c0 = cpu()
            reqs = [c.isend(row, 1, i) for i, row in enumerate(rows[w])]
            spent = cpu() - c0
            _wait_all(reqs)
            return spent

        window(0)
        run.sync()
        run.sync()
        t0 = perf()
        for w in range(1, n + 1):
            u0 = perf()
            tr.begin("bench.unit")
            issue += window(w)
            tr.end()
            units.append(perf() - u0)
        with lock:
            run.starts.append(t0)
            rep.units.extend(units)
            rep.issue_cpu_s += issue
            rep.issue_calls += n * WIN
        run.sync()

    def receiver(c, t: int) -> None:
        rows = [list(win) for win in recv_store[t]]
        tok = np.zeros(1, dtype=np.uint8)

        def window(w: int) -> None:
            reqs = [c.irecv(row, 0, i) for i, row in enumerate(rows[w])]
            c.send(tok, 0, TOKEN_TAG)
            _wait_all(reqs)

        window(0)
        run.sync()
        run.sync()
        for w in range(1, n + 1):
            window(w)
        with lock:
            run.ends.append(perf())
        run.sync()

    def guarded(fn, c, t):
        try:
            fn(c, t)
        except BaseException as exc:  # noqa: BLE001 - reported by the rank
            errors.append(exc)
            run.barrier.abort()

    def program(comm):
        with run.enter(comm) as c:
            comms = [c.dup(), c.dup()]
            role = sender if comm.rank == 0 else receiver
            threads = [
                threading.Thread(target=guarded, args=(role, comms[t], t), daemon=True)
                for t in range(2)
            ]
            for th in threads:
                th.start()
            run.phase_begin(c, comm.rank)
            run.phase_end(c, comm.rank)
            for th in threads:
                th.join(_SYNC_TIMEOUT)
            if errors or any(th.is_alive() for th in threads):
                raise RuntimeError(f"eager_stream worker failed: {errors}")

    run.go(program, level)
    for t in range(2):
        chk.check(recv_store[t][1:], inp["payload"][t][1:], n * WIN)
    return rep


def rndv_stream(inp, mode, tr, chk) -> Rep:
    n = inp["n"]
    run = _Run(2, 2, mode, tr)
    rep = run.rep
    rep.attempted = rep.msgs = ops(inp)
    rep.nbytes = rep.msgs * RNDV_B
    base = inp["payload"]

    def program(comm):
        with run.enter(comm) as c:
            tok = np.zeros(1, dtype=np.uint8)
            if comm.rank == 0:

                def window(w: int) -> float:
                    c0 = cpu()
                    # message i carries the other buffer next window, so a
                    # copy that never happened leaves stale bytes behind
                    reqs = [c.isend(base[(i + w) % 2], 1, i) for i in range(RNDV_WIN)]
                    spent = cpu() - c0
                    _wait_all(reqs)
                    c.recv(tok, 1, TOKEN_TAG + 1)
                    return spent

                for w in range(n + 1):
                    if w == 1:
                        run.phase_begin(c, 0)
                    # the receiver's check of the last window ends here,
                    # outside the timed unit
                    c.recv(tok, 1, TOKEN_TAG)
                    u0 = perf()
                    tr.begin("bench.unit")
                    spent = window(w)
                    tr.end()
                    if w:
                        rep.units.append(perf() - u0)
                        rep.issue_cpu_s += spent
                rep.issue_calls = RNDV_WIN * n
                rep.wall_s = sum(rep.units)
            else:
                bufs = inp["recv"]
                for w in range(n + 1):
                    if w == 1:
                        run.phase_begin(c, 1)
                    reqs = [c.irecv(buf, 0, i) for i, buf in enumerate(bufs)]
                    c.send(tok, 0, TOKEN_TAG)
                    _wait_all(reqs)
                    c.send(tok, 0, TOKEN_TAG + 1)
                    if w:
                        for i, buf in enumerate(bufs):
                            chk.check(buf.view(np.int64), base[(i + w) % 2].view(np.int64))
            run.phase_end(c, comm.rank)

    return run.go(program)


def pingpong(inp, mode, tr, chk) -> Rep:
    n = inp["n"]
    vals = inp["payload"]
    run = _Run(2, 2, mode, tr)
    rep = run.rep
    rep.attempted = rep.msgs = ops(inp)
    rep.nbytes = rep.msgs * 8
    echoed = np.zeros(n + 1, dtype=np.int64)
    seen = np.zeros(n + 1, dtype=np.int64)

    def program(comm):
        with run.enter(comm) as c:
            if comm.rank == 0:
                out = [vals[i : i + 1] for i in range(n + 1)]
                back = [echoed[i : i + 1] for i in range(n + 1)]
                c.send(out[0], 1, 0)
                c.recv(back[0], 1, 0)
                run.phase_begin(c, 0)
                t0 = perf()
                for i in range(1, n + 1):
                    u0 = perf()
                    tr.begin("bench.unit")
                    c0 = cpu()
                    c.send(out[i], 1, 0)
                    rep.issue_cpu_s += cpu() - c0
                    c.recv(back[i], 1, 0)
                    tr.end()
                    rep.units.append((perf() - u0) / 2)
                rep.wall_s = perf() - t0
                rep.issue_calls = n
            else:
                got = [seen[i : i + 1] for i in range(n + 1)]
                for i in range(n + 1):
                    if i == 1:
                        run.phase_begin(c, 1)
                    c.recv(got[i], 0, 0)
                    c.send(got[i], 0, 0)
            run.phase_end(c, comm.rank)

    run.go(program)
    chk.check(seen[1:], vals[1:], n)
    chk.check(echoed[1:], vals[1:], n)
    return rep


def halo_compute(x: np.ndarray, y: np.ndarray) -> None:
    """The fixed work of one halo step: GIL-releasing vector ops."""
    for _ in range(6):
        np.multiply(x, 1.0000001, out=y)
        np.add(y, x, out=y)
        np.sqrt(y, out=y)


def halo_overlap(inp, mode, tr, chk) -> Rep:
    n = inp["n"]
    x = inp["field"]
    t0 = perf()
    for _ in range(20):
        halo_compute(x, inp["scratch"][0])
    alone = (perf() - t0) / 20
    run = _Run(2, 2, mode, tr)
    rep = run.rep
    rep.extra["compute_alone_s"] = alone
    rep.attempted = rep.msgs = ops(inp)
    rep.nbytes = rep.msgs * HALO_B
    overlapped = [0, 0]
    compute_s = [0.0, 0.0]

    def program(comm):
        rank, peer = comm.rank, 1 - comm.rank
        mine, theirs = inp["payload"][rank], inp["payload"][peer]
        rbuf = inp["recv"][rank]
        y = inp["scratch"][rank]
        with run.enter(comm) as c:

            def step(s: int):
                rreq = c.irecv(rbuf, peer, 0)
                c0 = cpu()
                sreq = c.isend(mine[s % 2], peer, 0)
                spent = cpu() - c0
                k0 = perf()
                tr.begin("bench.compute")
                halo_compute(x, y)
                tr.end()
                k1 = perf()
                early = rreq.done and sreq.done
                rreq.wait()
                sreq.wait()
                return spent, k1 - k0, early

            step(0)
            run.phase_begin(c, rank)
            for s in range(1, n + 1):
                run.sync()  # the peer's check of the last step is over
                u0 = perf()
                if rank == 0:
                    tr.begin("bench.unit")
                spent, comp, early = step(s)
                if rank == 0:
                    tr.end()
                    rep.units.append(perf() - u0)
                    rep.issue_cpu_s += spent
                overlapped[rank] += early
                compute_s[rank] += comp
                chk.check(rbuf.view(np.int64), theirs[s % 2].view(np.int64))
            run.phase_end(c, rank)

    run.go(program)
    rep.issue_calls = n
    rep.wall_s = sum(rep.units)
    rep.extra["async_progress_frac"] = sum(overlapped) / (2 * n)
    rep.extra["compute_s"] = sum(compute_s) / (2 * n)
    return rep


def late_recv_mixed(inp, mode, tr, chk) -> Rep:
    n = inp["n"]
    run = _Run(2, 2, mode, tr)
    rep = run.rep
    rep.attempted = rep.msgs = ops(inp)
    rep.nbytes = n * sum(inp["sizes"])
    payload, order, wild = inp["payload"], inp["order"], inp["wild"]

    def program(comm):
        with run.enter(comm) as c:
            tok = np.zeros(1, dtype=np.uint8)
            if comm.rank == 0:
                # stamping the round into each message makes a stale
                # receive buffer visible to the check
                mine = [p.copy() for p in payload]

                def stamp(r: int) -> None:
                    mark = np.frombuffer(np.uint32(r).tobytes(), np.uint8)
                    for m in mine:
                        m[:4] = mark

                def round_(r: int) -> float:
                    c0 = cpu()
                    reqs = [c.isend(m, 1, i) for i, m in enumerate(mine)]
                    spent = cpu() - c0
                    _wait_all(reqs)
                    c.send(tok, 1, TOKEN_TAG)
                    c.recv(tok, 1, TOKEN_TAG + 1)
                    return spent

                stamp(0)
                round_(0)
                run.phase_begin(c, 0)
                for r in range(1, n + 1):
                    stamp(r)
                    run.sync()  # the receiver's check of the last round is over
                    u0 = perf()
                    tr.begin("bench.unit")
                    rep.issue_cpu_s += round_(r)
                    tr.end()
                    rep.units.append(perf() - u0)
                rep.issue_calls = n * LATE_MSGS
                rep.wall_s = sum(rep.units)
            else:
                bufs = [np.zeros(s, dtype=np.uint8) for s in inp["sizes"]]
                want = [p.copy() for p in payload]
                for r in range(n + 1):
                    if r == 1:
                        run.phase_begin(c, 1)
                    if r:
                        run.sync()
                    # only after the sender's signal, so every payload
                    # message is already in the unexpected queue
                    c.recv(tok, 0, TOKEN_TAG)
                    reqs = [
                        c.irecv(bufs[i], ANY_SOURCE if i in wild else 0, i)
                        for i in order
                    ]
                    _wait_all(reqs)
                    c.send(tok, 0, TOKEN_TAG + 1)
                    if r:
                        mark = np.frombuffer(np.uint32(r).tobytes(), np.uint8)
                        for b, w in zip(bufs, want):
                            w[:4] = mark
                            chk.check(b, w)
            run.phase_end(c, comm.rank)

    return run.go(program)


def serve_closed(inp, mode, tr, chk) -> Rep:
    if mode != "offload":
        raise ValueError("serve_closed has no plain-communicator form")
    warm = 32
    n = inp["n"]
    schedule, pool, offsets = inp["schedule"], inp["pool"], inp["offsets"]
    run = _Run(1, 1, mode, tr, pool_size=2)
    rep = run.rep
    rep.attempted = rep.msgs = ops(inp)
    rep.nbytes = sum(size for _, size in schedule[warm:])
    received: dict = {}
    op_s = [0.0]

    def program(comm):
        with run.enter(comm) as c:
            aeng = AsyncOffloadEngine(c)

            def echo(rid: int, size: int):
                async def op():
                    o0 = perf()
                    rbuf = np.empty(size, dtype=np.uint8)
                    sbuf = pool[offsets[rid] : offsets[rid] + size]
                    rreq = c.irecv(rbuf, 0, rid)
                    c0 = cpu()
                    sreq = c.isend(sbuf, 0, rid)
                    rep.issue_cpu_s += cpu() - c0
                    await asyncio.gather(aeng.awaitable(rreq), aeng.awaitable(sreq))
                    op_s[0] += perf() - o0
                    return rbuf

                return op

            async def clients(front, todo: list, timed: bool) -> None:
                async def client() -> None:
                    while todo:
                        rid = todo.pop()
                        tenant, size = schedule[rid]
                        u0 = perf()
                        try:
                            received[rid] = await front.request(tenant, echo(rid, size))
                        except Exception:  # noqa: BLE001 - counted as failed
                            continue
                        if timed:
                            rep.units.append(perf() - u0)

                await asyncio.gather(*(client() for _ in range(SERVE_CLIENTS)))

            async def main() -> None:
                front = ServingFrontend(aeng, max_in_flight=64)
                await front.start()
                await clients(front, list(range(warm))[::-1], False)
                op_s[0] = rep.issue_cpu_s = 0.0
                run.phase_begin(c, 0)
                t0 = perf()
                tr.begin("bench.unit")
                await clients(front, list(range(warm, warm + n))[::-1], True)
                tr.end()
                rep.wall_s = perf() - t0
                run.phase_end(c, 0)
                await front.stop()
                rep.extra["rejected"] = front.rejected
                rep.extra["op_s"] = op_s[0] / max(1, len(rep.units))

            asyncio.run(main())

    run.go(program, THREAD_MULTIPLE)
    rep.issue_calls = n
    for rid in range(warm, warm + n):
        got = received.get(rid)
        if got is not None:
            size = schedule[rid][1]
            chk.check(got, pool[offsets[rid] : offsets[rid] + size])
    return rep


BODIES = {
    "eager_stream": eager_stream,
    "rndv_stream": rndv_stream,
    "pingpong": pingpong,
    "halo_overlap": halo_overlap,
    "late_recv_mixed": late_recv_mixed,
    "serve_closed": serve_closed,
}
