"""One-sided (RMA) operations through the offload engine.

Extends the offload infrastructure to the operations the paper lists
as future work (§7, "other MPI operations, including RMA").  Window
calls are routed to the communication thread as commands, so the
application thread never enters MPI:

* ``put``/``get``/``accumulate`` are issued by the offload thread and
  return origin-completion handles; the offload thread's progress
  sweeps process the target-side applications and acknowledgements —
  i.e. the offload thread is simultaneously playing the role Casper's
  ghost processes play for RMA async progress;
* ``fence`` runs *inline* on the offload thread: it is the blocking
  call with no nonblocking equivalent the paper names as this
  approach's acknowledged limitation (§3.3).  Other commands queue
  behind it, but in-flight operations still progress because the
  fence's internal waits pump the same progress engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.commands import Command, CommandKind
from repro.mpisim.rma import LOCK_SHARED, Window

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.offload_comm import OffloadCommunicator
    from repro.mpisim.requests import Request


class OffloadWindow:
    """An RMA window whose every call executes on the offload thread."""

    def __init__(self, ocomm: "OffloadCommunicator", win: Window) -> None:
        self.ocomm = ocomm
        self.win = win

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls, ocomm: "OffloadCommunicator", local: np.ndarray
    ) -> "OffloadWindow":
        """Collective window creation via the offload thread."""
        return cls(ocomm, ocomm._run(Window.create, ocomm.inner, local))

    def free(self) -> None:
        self._call(self.win.free)

    # -- plumbing -----------------------------------------------------------

    def _call(self, fn, *args, **kwargs) -> Any:
        ocomm = self.ocomm
        return ocomm._call(
            Command(
                CommandKind.CALL,
                slot=ocomm.engine.pool.alloc(),
                fn=lambda: fn(*args, **kwargs),
            )
        )

    @property
    def local(self) -> np.ndarray:
        return self.win.local

    # -- operations -----------------------------------------------------------

    def put(
        self, origin: np.ndarray, target_rank: int, target_offset: int = 0
    ) -> "Request":
        """Offloaded one-sided write; returns the completion request.

        The handle's ``wait`` merely observes the flag the offload
        thread sets when the ack arrives.
        """
        return self._call(self.win.put, origin, target_rank, target_offset)

    def get(
        self, dest: np.ndarray, target_rank: int, target_offset: int = 0
    ) -> "Request":
        return self._call(self.win.get, dest, target_rank, target_offset)

    def accumulate(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_offset: int = 0,
        op: Any = None,
    ) -> "Request":
        return self._call(
            self.win.accumulate, origin, target_rank, target_offset, op
        )

    # -- synchronization ----------------------------------------------------------

    def flush(self, target_rank: int | None = None) -> None:
        self._call(self.win.flush, target_rank)

    def fence(self) -> None:
        """The §3.3 caveat call: runs blocking on the offload thread."""
        self._call(self.win.fence)

    def lock(self, target_rank: int, kind: str = LOCK_SHARED) -> None:
        self._call(self.win.lock, target_rank, kind)

    def unlock(self, target_rank: int) -> None:
        self._call(self.win.unlock, target_rank)
