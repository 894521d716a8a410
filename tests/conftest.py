"""Shared fixtures and helpers for the test suite.

Concurrency-test infrastructure (see TESTING.md):

* ``test_seed`` — the canonical seed fixture for randomized tests.
  Parametrize it indirectly (``@pytest.mark.parametrize("test_seed",
  [0, 1], indirect=True)``); a failing test prints a one-line
  ``REPRO_TEST_SEED=<seed> ...`` replay command, and setting that
  environment variable re-runs every seeded test with exactly that
  seed.
* ``@pytest.mark.deadline(seconds)`` — per-test wall-clock watchdog
  for tests that drive real threads (pytest-timeout is not available
  in this environment).  On expiry it dumps every thread's stack to
  stderr and hard-exits, so a wedged interleaving produces a
  diagnosable CI failure instead of a silent hang.
* ``deadline(seconds, label)`` — the same watchdog as a *nestable*
  context manager: a marked stress test can bound individual phases
  with tighter inner deadlines; frames stack, the earliest expiry is
  always armed, and any pre-existing ``faulthandler`` state is
  restored when the last frame pops.
"""

from __future__ import annotations

import contextlib
import faulthandler
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.lockfree.atomics import Doorbell, DoneWord, park_any
from repro.mpisim import requests as rq
from repro.mpisim.constants import THREAD_FUNNELED, THREAD_MULTIPLE
from repro.mpisim.world import World
from repro.util.rng import seeded_rng

#: exit code for deadline kills (distinct from pytest's own 1/2/3/4)
DEADLINE_EXIT_CODE = 70


@pytest.fixture(autouse=True, scope="session")
def fine_gil_slices():
    """Dedicated progress threads need finer GIL slices than CPython's
    5 ms default to act like the extra hardware thread they model.

    This no longer carries hand-off latency: every wait in the offload
    pipeline parks and is woken by a doorbell (DESIGN.md §17), which
    hands the GIL over at once whatever the interval.  It still lets
    threads that *compute* in Python (busy-spin app phases, the
    comm-self and iprobe baselines) share the interpreter."""
    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    yield
    sys.setswitchinterval(prev)


@pytest.fixture
def rng() -> np.random.Generator:
    return seeded_rng("tests")


# ---------------------------------------------------------------------------
# seed replay: every randomized test takes `test_seed` and fails loudly
# with the command that reproduces it
# ---------------------------------------------------------------------------


@pytest.fixture
def test_seed(request) -> int:
    """Seed for randomized tests, replayable from the environment.

    ``REPRO_TEST_SEED`` overrides any parametrized value, so the
    replay line printed on failure reproduces the exact run even for
    tests parametrized over several seeds.
    """
    env = os.environ.get("REPRO_TEST_SEED")
    if env is not None:
        return int(env)
    return int(getattr(request, "param", 0))


#: (nodeid, seed) of every failed test that used a seed this session
_failed_seeds: list[tuple[str, int]] = []

#: fixture/parameter names recognized as "the seed of this test"
_SEED_ARGS = ("test_seed", "seed", "seed_round")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    funcargs = getattr(item, "funcargs", None) or {}
    for name in _SEED_ARGS:
        seed = funcargs.get(name)
        if isinstance(seed, int):
            _failed_seeds.append((item.nodeid, seed))
            report.sections.append(
                (
                    "seed replay",
                    f"replay this exact run with:\n"
                    f"  REPRO_TEST_SEED={seed} python -m pytest "
                    f"'{item.nodeid}'",
                )
            )
            break


def pytest_terminal_summary(terminalreporter):
    if not _failed_seeds:
        return
    terminalreporter.section("randomized-test seed replay")
    for nodeid, seed in _failed_seeds:
        terminalreporter.line(
            f"REPRO_TEST_SEED={seed} python -m pytest '{nodeid}'"
        )


# ---------------------------------------------------------------------------
# per-test deadlines: @pytest.mark.deadline(seconds) / nestable deadline()
# ---------------------------------------------------------------------------

#: active deadline frames: (absolute monotonic expiry, label, capman).
#: A stack rather than a single timer so deadlines *compose*: a stress
#: test marked ``@pytest.mark.deadline(120)`` can wrap an individual
#: phase in ``with deadline(10, "pool drain")`` and each bound stays
#: armed — popping the inner frame re-arms the outer one's remaining
#: time instead of cancelling the watchdog outright.
_deadline_frames: list[tuple[float, str, object]] = []
_deadline_timer: threading.Timer | None = None
#: ``faulthandler.is_enabled()`` before the first frame was pushed;
#: restored (not unconditionally cleared) when the last frame pops, so
#: a suite run under ``-X faulthandler`` keeps its crash dumps.
_deadline_prev_faulthandler: bool | None = None
_deadline_lock = threading.Lock()


def _deadline_expire(frame) -> None:  # pragma: no cover - fires on hang
    """Dump every thread's stack and hard-exit.

    A wedged thread interleaving cannot be unwound from Python (the
    stuck threads hold no cooperative cancellation point), so expiry
    terminates the process with :data:`DEADLINE_EXIT_CODE` — CI then
    shows exactly where every thread was stuck instead of timing the
    whole job out with no diagnostics.
    """
    expiry, label, capman = frame
    # fd-level capture would swallow the dump (and discard it at
    # os._exit), so stop capturing before writing anything
    if capman is not None:
        try:
            capman.stop_global_capturing()
        except Exception:
            pass
    sys.stderr.write(
        f"\n\nFATAL: {label} exceeded its deadline; "
        "thread stacks follow.\n"
    )
    faulthandler.dump_traceback(file=sys.stderr)
    sys.stderr.flush()
    os._exit(DEADLINE_EXIT_CODE)


def _deadline_rearm_locked() -> None:
    """(Re)arm the shared timer for the earliest remaining expiry."""
    global _deadline_timer, _deadline_prev_faulthandler
    if _deadline_timer is not None:
        _deadline_timer.cancel()
        _deadline_timer = None
    if not _deadline_frames:
        # last frame popped: restore the pre-existing faulthandler
        # state rather than unconditionally disabling dumps
        if _deadline_prev_faulthandler is not None:
            if _deadline_prev_faulthandler:
                faulthandler.enable()
            else:
                faulthandler.disable()
            _deadline_prev_faulthandler = None
        return
    if _deadline_prev_faulthandler is None:
        # first frame pushed: C-level crashes inside the bounded
        # window should dump too
        _deadline_prev_faulthandler = faulthandler.is_enabled()
        faulthandler.enable()
    frame = min(_deadline_frames, key=lambda f: f[0])
    delay = max(frame[0] - time.monotonic(), 0.0)
    _deadline_timer = threading.Timer(delay, _deadline_expire, args=(frame,))
    _deadline_timer.daemon = True
    _deadline_timer.start()


@contextlib.contextmanager
def deadline(seconds: float, label: str = "deadline block", capman=None):
    """Nestable hard wall-clock bound; dumps all stacks on expiry.

    Frames stack: the shared watchdog timer always tracks the earliest
    remaining expiry, and leaving an inner frame re-arms the enclosing
    one.  ``faulthandler`` is enabled while any frame is armed and its
    prior enabled-state is restored when the last frame pops.
    """
    frame = (time.monotonic() + seconds, label, capman)
    with _deadline_lock:
        _deadline_frames.append(frame)
        _deadline_rearm_locked()
    try:
        yield
    finally:
        with _deadline_lock:
            _deadline_frames.remove(frame)
            _deadline_rearm_locked()


@pytest.fixture(autouse=True)
def _deadline_watchdog(request):
    """Arm :func:`deadline` for tests marked ``@pytest.mark.deadline``."""
    marker = request.node.get_closest_marker("deadline")
    if marker is None:
        yield
        return
    seconds = float(marker.args[0]) if marker.args else 120.0
    capman = request.config.pluginmanager.getplugin("capturemanager")
    with deadline(
        seconds, label=f"{request.node.nodeid} ({seconds:g}s)",
        capman=capman,
    ):
        yield


def run_world(nranks, fn, *args, thread_level=THREAD_FUNNELED, **kwargs):
    """Run an SPMD function with a bounded timeout (deadlock safety)."""
    timeout = kwargs.pop("timeout", 60.0)
    world = World(nranks, thread_level=thread_level, **kwargs)
    return world.run(fn, *args, timeout=timeout)


def run_world_mt(nranks, fn, *args, **kwargs):
    return run_world(
        nranks, fn, *args, thread_level=THREAD_MULTIPLE, **kwargs
    )


def await_death(*engines, budget: float = 5.0) -> None:
    """Park until one of ``engines`` (pool shards) has published its
    death word: the shard failed everything it held, so its teardown is
    over, not only its death marked."""
    assert park_any([e.death for e in engines], budget), (
        f"no shard died within {budget}s"
    )


class ParkCounter:
    """Counts, per thread, every way a thread can block: a doorbell
    park, a done-word park, a sleep."""

    def __init__(self, monkeypatch) -> None:
        self.by_thread: dict[int, int] = {}
        monkeypatch.setattr(Doorbell, "wait", self._counting(Doorbell.wait))
        monkeypatch.setattr(
            DoneWord, "_block", staticmethod(self._counting(DoneWord._block))
        )
        monkeypatch.setattr(time, "sleep", self._counting(time.sleep))

    def _counting(self, fn):
        def park(*args, **kwargs):
            me = threading.get_ident()
            self.by_thread[me] = self.by_thread.get(me, 0) + 1
            return fn(*args, **kwargs)

        return park

    def of_current_thread(self) -> int:
        return self.by_thread.get(threading.get_ident(), 0)


@pytest.fixture
def parks(monkeypatch) -> ParkCounter:
    """Count parks with the driven waits' safety tick stretched to
    seconds: a wait that polled, or that missed a ring and slept the
    tick out, shows as many parks or as a timeout."""
    monkeypatch.setattr(rq, "TICK", 5.0)
    return ParkCounter(monkeypatch)
