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
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.communicator import Communicator
    from repro.mpisim.reduce_ops import ReduceOp


class CommandKind(Enum):
    """Every command the offload engine accepts.

    Blocking calls have no kinds of their own: the facade submits the
    nonblocking equivalent and waits on its slot (§3.3).
    """

    ISEND = auto()
    IRECV = auto()
    IPROBE = auto()
    IBARRIER = auto()
    IBCAST = auto()
    IALLREDUCE = auto()
    IGATHER = auto()
    IALLTOALL = auto()
    # any other entry point, run to completion on the offload thread:
    # the collectives the substrate has no nonblocking form of (the
    # paper's acknowledged MPI_WIN_FENCE-style shortcoming, §3.3),
    # dup/split, window operations.  Their blocking wait pumps the same
    # progress engine, so other in-flight operations still advance.
    CALL = auto()
    # engine control
    FLUSH = auto()
    SHUTDOWN = auto()


K = CommandKind

#: How each issuable kind enters the substrate: one call on the
#: command's communicator, made by the engine — or, degraded, by the
#: calling thread.  IPROBE and CALL return their result; every other
#: kind returns a substrate request to track.
ISSUE = {
    K.ISEND: lambda c: c.comm.isend(c.buf, c.peer, c.tag),
    K.IRECV: lambda c: c.comm.irecv(c.buf, c.peer, c.tag),
    K.IPROBE: lambda c: c.comm.iprobe(c.peer, c.tag),
    K.IBARRIER: lambda c: c.comm.ibarrier(),
    K.IBCAST: lambda c: c.comm.ibcast(c.buf, c.peer),
    K.IALLREDUCE: lambda c: c.comm.iallreduce(c.buf, c.buf2, c.op),
    K.IGATHER: lambda c: c.comm.igather(c.buf, c.buf2, c.peer),
    K.IALLTOALL: lambda c: c.comm.ialltoall(c.buf, c.buf2),
    K.CALL: lambda c: c.fn(),
}

#: Kinds safe to re-drive after a failed dispatch *attempt*.  A retry
#: only ever happens for transient errors raised before the substrate
#: was entered (see :class:`repro.core.recovery.RetryPolicy`), so
#: anything that merely posts an operation is idempotent.  CALL runs
#: arbitrary code to completion, so it may not be re-driven.
IDEMPOTENT_KINDS = frozenset(ISSUE) - {K.CALL}


#: Kind predicates as member attributes, resolved once here: the hot
#: paths read ``cmd.kind.p2p`` instead of hashing an enum member into
#: a frozenset per command (DESIGN.md §19).
for _kind in CommandKind:
    _kind.idempotent = _kind in IDEMPOTENT_KINDS
    #: completes where it is issued: the call's return is the payload
    _kind.immediate = _kind is K.IPROBE or _kind is K.CALL
    #: point-to-point: posted in runs through ``ProgressEngine.post_batch``
    _kind.p2p = _kind is K.ISEND or _kind is K.IRECV
    _kind.is_send = _kind is K.ISEND
del _kind


@dataclass(slots=True, init=False)
class Command:
    """One serialized MPI call.

    ``slot`` is the request-pool index the engine completes: every
    command but SHUTDOWN has one, blocking calls included — the slot's
    done flag is the one completion channel (§3.1).
    """

    #: Always None: completion lives in the slot.  Kept readable
    #: because the frozen end-to-end tracer (``benchmarks/e2e``) reads
    #: ``cmd.done`` to tell flag waiters from slot waiters.
    done: ClassVar[None] = None

    kind: CommandKind
    comm: "Communicator | None"
    buf: np.ndarray | None
    buf2: np.ndarray | None  # recv side of collectives
    peer: int  # dest/source/root
    tag: int
    op: "ReduceOp | None"
    slot: int  # request-pool slot the engine completes
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
        fn: Any = None,
        deadline: float | None = None,
    ) -> None:
        # Written out (not dataclass-generated) so building the record
        # is one call: no ``__post_init__`` hop on the issue path.
        if slot < 0 and kind is not CommandKind.SHUTDOWN:
            raise ValueError(f"{kind.name} command needs a slot")
        self.kind = kind
        self.comm = comm
        self.buf = buf
        self.buf2 = buf2
        self.peer = peer
        self.tag = tag
        self.op = op
        self.slot = slot
        self.fn = fn
        self.deadline = deadline
        self.attempts = 0
