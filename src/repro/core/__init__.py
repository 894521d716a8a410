"""The paper's contribution: software-offloaded MPI communication.

Application threads never enter MPI.  Instead, every MPI call is
serialized into a command record and enqueued on a lock-free command
queue (:mod:`repro.lockfree`); a dedicated *offload thread* per rank
dequeues commands, issues the real MPI calls, and drives asynchronous
progress with a ``Testany`` loop whenever the queue is empty
(paper Section 3).

Highlights, mapped to the paper:

* :class:`~repro.core.engine.OffloadEngine` — the dedicated thread +
  command queue + in-flight tracker (§3.1, §3.2); always one shard of
  an :class:`~repro.core.engine_pool.EnginePool`, the rank's engine
  holder — a pool of one is the paper's one offload thread, N routed
  shards its §7 several.
* :class:`~repro.core.request_pool.OffloadRequestPool` — pre-allocated
  array-based free list of request slots so nonblocking calls return a
  handle before MPI has been invoked (§3.1).
* :class:`~repro.core.offload_comm.OffloadCommunicator` — the facade
  that turns an ordinary communicator's API into enqueued commands;
  blocking calls are converted to nonblocking + completion-flag wait
  (§3.3), so a blocking call from one application thread never stalls
  the engine.
* :func:`~repro.core.interpose.offloaded` — transparent interposition
  so *unmodified* applications gain offload (§3.4; the Python analogue
  of LD_PRELOAD).
* :class:`~repro.core.commself.CommSelfProgressThread` and
  :func:`~repro.core.iprobe_progress.progress_hook` — faithful
  implementations of the paper's two comparison approaches (§2.1, §2.2).
* :func:`~repro.core.thread_groups.make_thread_comms` — the
  thread-groups helper used for the ``MPI_THREAD_MULTIPLE`` study
  (§5.1, Figure 12).
"""

from repro.core.commands import Command, CommandKind
from repro.core.request_pool import (
    OffloadRequest,
    OffloadRequestPool,
    OffloadError,
    OffloadEngineDied,
)
from repro.core.engine import OffloadEngine
from repro.core.engine_pool import EnginePool, ShardRouter
from repro.core.recovery import (
    EngineWatchdog,
    OffloadStopTimeout,
    OffloadTimeout,
    RecoveryPolicy,
    RetryPolicy,
)
from repro.core.offload_comm import (
    OffloadCommunicator,
    offload_waitall,
    offload_waitany,
)
from repro.core.interpose import offloaded, interpose
from repro.core.commself import CommSelfProgressThread
from repro.core.iprobe_progress import progress_hook
from repro.core.rma_offload import OffloadWindow
from repro.core.thread_groups import make_thread_comms, ThreadGroupRunner

__all__ = [
    "Command",
    "CommandKind",
    "OffloadRequest",
    "OffloadRequestPool",
    "OffloadError",
    "OffloadEngineDied",
    "OffloadTimeout",
    "OffloadStopTimeout",
    "RetryPolicy",
    "RecoveryPolicy",
    "EngineWatchdog",
    "OffloadEngine",
    "EnginePool",
    "ShardRouter",
    "OffloadCommunicator",
    "offload_waitall",
    "offload_waitany",
    "offloaded",
    "interpose",
    "CommSelfProgressThread",
    "progress_hook",
    "make_thread_comms",
    "ThreadGroupRunner",
    "OffloadWindow",
]
