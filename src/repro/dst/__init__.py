"""Deterministic simulation testing (DST) for the lockfree/offload stack.

Layers (bottom-up):

* :mod:`repro.dst.hooks` — the zero-overhead yield/crash points the
  production lockfree and engine code calls (a single ``is None``
  check when no scheduler is installed);
* :mod:`repro.dst.scheduler` — the seeded cooperative scheduler that
  owns a test's virtual threads and turns every interleaving decision
  into an explicit choice;
* :mod:`repro.dst.strategies` — random-walk, PCT, and exhaustive
  schedule enumeration;
* :mod:`repro.dst.linearize` — Wing–Gong linearizability checking of
  recorded histories against sequential model specs;
* :mod:`repro.dst.explorer` — the schedule explorer: budgeted
  exploration, single-token replay, obs counters;
* :mod:`repro.dst.targets` — the regression corpus: one table of
  fixed races, each with the harness-injected broken variant that
  must be rediscovered, and linearizability oracles.

Every name except ``hooks`` is loaded **lazily** (PEP 562): the
production lockfree layer sits at the very bottom of the import graph
and does ``from repro.dst import hooks``, which must not drag in the
explorer (whose :mod:`repro.obs` dependency imports the lockfree layer
right back — a cycle).  ``targets`` additionally depends on
:mod:`repro.core`, the same shape as :mod:`repro.faults` vs
:mod:`repro.faults.chaos`.
"""

from repro.dst import hooks
from repro.dst.hooks import ScheduledCrash, current, install, uninstall

#: lazy attribute -> (submodule, name) table (PEP 562)
_LAZY = {
    "DeadlockError": "repro.dst.scheduler",
    "DstError": "repro.dst.scheduler",
    "ScheduleBudgetExceeded": "repro.dst.scheduler",
    "Scheduler": "repro.dst.scheduler",
    "SchedulerStalled": "repro.dst.scheduler",
    "ExhaustiveStrategy": "repro.dst.strategies",
    "FixedPathStrategy": "repro.dst.strategies",
    "PCTStrategy": "repro.dst.strategies",
    "RandomWalkStrategy": "repro.dst.strategies",
    "Strategy": "repro.dst.strategies",
    "strategy_from_token": "repro.dst.strategies",
    "FreeListSpec": "repro.dst.linearize",
    "History": "repro.dst.linearize",
    "LinearizabilityError": "repro.dst.linearize",
    "LinResult": "repro.dst.linearize",
    "Op": "repro.dst.linearize",
    "QueueSpec": "repro.dst.linearize",
    "RequestPoolSpec": "repro.dst.linearize",
    "SequentialSpec": "repro.dst.linearize",
    "assert_linearizable": "repro.dst.linearize",
    "check_linearizable": "repro.dst.linearize",
    "ExplorationResult": "repro.dst.explorer",
    "Explorer": "repro.dst.explorer",
    "InvariantViolation": "repro.dst.explorer",
    "ScheduleFailure": "repro.dst.explorer",
    "derive_seed": "repro.dst.explorer",
    "targets": "repro.dst.targets",
}

__all__ = [
    "ScheduledCrash",
    "current",
    "hooks",
    "install",
    "uninstall",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    modname = _LAZY.get(name)
    if modname is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(modname)
    value = module if name == "targets" else getattr(module, name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__():
    return sorted(__all__)
