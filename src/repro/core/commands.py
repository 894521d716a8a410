"""Command records: the wire format between app threads and the
offload thread.

Paper §3.1: "our library serializes the call parameters into a
call-specific structure and inserts this information into the command
queue."  Ranks share an address space, so buffers travel by reference —
no extra copies (also §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.lockfree.atomics import AtomicFlag

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.communicator import Communicator
    from repro.mpisim.reduce_ops import ReduceOp


class CommandKind(Enum):
    """Every MPI operation the offload engine accepts."""

    ISEND = auto()
    IRECV = auto()
    # blocking p2p (converted to nonblocking by the engine, §3.3)
    SEND = auto()
    RECV = auto()
    IPROBE = auto()
    # collectives with nonblocking equivalents: engine issues the
    # I-variant and tracks it like any other in-flight request
    BARRIER = auto()
    BCAST = auto()
    ALLREDUCE = auto()
    GATHER = auto()
    ALLTOALL = auto()
    # collectives lacking a nonblocking equivalent in the substrate:
    # the engine runs these inline (the paper's acknowledged
    # MPI_WIN_FENCE-style shortcoming, §3.3).  Progress on other
    # in-flight operations still occurs because the blocking wait pumps
    # the same progress engine.
    REDUCE = auto()
    SCATTER = auto()
    ALLGATHER = auto()
    REDUCE_SCATTER = auto()
    SCAN = auto()
    # nonblocking collectives requested by the app
    IBARRIER = auto()
    IBCAST = auto()
    IALLREDUCE = auto()
    IGATHER = auto()
    IALLTOALL = auto()
    # generic inline call on the offload thread (dup/split/teardown);
    # the functional analogue of offloading any remaining MPI entry point
    CALL = auto()
    # engine control
    FLUSH = auto()
    SHUTDOWN = auto()


#: Command kinds that return an OffloadRequest handle to the caller.
NONBLOCKING_KINDS = frozenset(
    {
        CommandKind.ISEND,
        CommandKind.IRECV,
        CommandKind.IBARRIER,
        CommandKind.IBCAST,
        CommandKind.IALLREDUCE,
        CommandKind.IGATHER,
        CommandKind.IALLTOALL,
    }
)

#: Collectives the engine must execute inline (no I-variant available).
INLINE_KINDS = frozenset(
    {
        CommandKind.REDUCE,
        CommandKind.SCATTER,
        CommandKind.ALLGATHER,
        CommandKind.REDUCE_SCATTER,
        CommandKind.SCAN,
    }
)

#: Kinds safe to re-drive after a failed dispatch *attempt*.  A retry
#: only ever happens for transient errors raised before the substrate
#: was entered (see :class:`repro.core.recovery.RetryPolicy`), so
#: anything that merely posts an operation is idempotent.  CALL runs
#: arbitrary user code and the inline collectives execute in place, so
#: neither may be re-driven.
IDEMPOTENT_KINDS = frozenset(
    {
        CommandKind.ISEND,
        CommandKind.IRECV,
        CommandKind.SEND,
        CommandKind.RECV,
        CommandKind.IPROBE,
        CommandKind.BARRIER,
        CommandKind.BCAST,
        CommandKind.ALLREDUCE,
        CommandKind.GATHER,
        CommandKind.ALLTOALL,
        CommandKind.IBARRIER,
        CommandKind.IBCAST,
        CommandKind.IALLREDUCE,
        CommandKind.IGATHER,
        CommandKind.IALLTOALL,
    }
)


#: Kind predicates as member attributes, resolved once here: the hot
#: paths read ``cmd.kind.nonblocking`` instead of hashing an enum
#: member into a frozenset per command (DESIGN.md §19).
for _kind in CommandKind:
    _kind.nonblocking = _kind in NONBLOCKING_KINDS
    _kind.inline = _kind in INLINE_KINDS
    _kind.idempotent = _kind in IDEMPOTENT_KINDS
    #: point-to-point: posted in runs through ``ProgressEngine.post_batch``
    _kind.p2p = _kind.name in ("ISEND", "IRECV", "SEND", "RECV")
    _kind.is_send = _kind.name in ("ISEND", "SEND")
del _kind


@dataclass(slots=True, init=False)
class Command:
    """One serialized MPI call.

    ``done`` is the completion flag the issuing thread may spin on
    (blocking calls); ``slot`` is the request-pool index for
    nonblocking calls (so the engine can publish the inner request and
    completion there instead).
    """

    kind: CommandKind
    comm: "Communicator | None"
    buf: np.ndarray | None
    buf2: np.ndarray | None  # recv side of collectives
    peer: int  # dest/source/root
    tag: int
    op: "ReduceOp | None"
    slot: int  # request-pool slot for nonblocking commands
    done: AtomicFlag | None  # completion flag for blocking commands
    result: Any  # e.g. iprobe Status, CALL return value
    error: BaseException | None
    fn: Any  # CALL payload: zero-argument callable
    #: absolute perf_counter() time by which the command must reach a
    #: terminal state; the engine expires it with OffloadTimeout after
    deadline: float | None
    #: dispatch attempts so far (bumped by the engine's retry path)
    attempts: int

    def __init__(
        self,
        kind: CommandKind,
        comm: "Communicator | None" = None,
        buf: np.ndarray | None = None,
        buf2: np.ndarray | None = None,
        peer: int = -1,
        tag: int = 0,
        op: "ReduceOp | None" = None,
        slot: int = -1,
        done: AtomicFlag | None = None,
        fn: Any = None,
        deadline: float | None = None,
    ) -> None:
        # Written out (not dataclass-generated) so building the record
        # is one call: no ``__post_init__`` hop on the issue path.
        if kind.nonblocking:
            if slot < 0:
                raise ValueError(f"{kind.name} command needs a slot")
        elif done is None and kind is not CommandKind.SHUTDOWN:
            done = AtomicFlag()
        self.kind = kind
        self.comm = comm
        self.buf = buf
        self.buf2 = buf2
        self.peer = peer
        self.tag = tag
        self.op = op
        self.slot = slot
        self.done = done
        self.result = None
        self.error = None
        self.fn = fn
        self.deadline = deadline
        self.attempts = 0
