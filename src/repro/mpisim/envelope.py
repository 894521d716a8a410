"""Wire envelopes exchanged between rank progress engines.

Three envelope kinds implement the two transfer protocols:

* ``EAGER`` — payload travels with the envelope (the sender copied it
  at post time, so the send completed locally).
* ``RTS`` (ready-to-send) — rendezvous control message; carries only
  the size and a reference to the sender's pending request.  The
  *receiver's* progress engine answers with ``CTS`` once a matching
  receive exists.
* ``CTS`` (clear-to-send) — carries the matched receive request; the
  *sender's* progress engine performs the actual copy when it sees
  this, then completes both requests.  When the sender has a backlog
  of rendezvous sends, the receiver copies the tail half itself after
  delivering the CTS and the sender copies only the head half
  (``parties`` counts the halves still out, DESIGN.md §23).  Either
  way the send completes only after the sender pumps: this is where
  the "no progress ⇒ no transfer" hazard of the paper's Section 2
  lives.

Payloads are either an owned ``np.ndarray`` (the sender copied at post
time — the classic eager data path) or a :class:`BufferRef`, the
zero-copy data plane's unit of currency: a flat byte view plus a
dtype/shape header and an explicit ``owned``/``borrowed`` lifetime bit.
A *borrowed* ref aliases the sender's user buffer; the matching layer
copies it exactly once, directly into the receiver's posted buffer, and
only then completes the sender's request (DESIGN.md §14).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from repro.mpisim.constants import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpisim.requests import RecvRequest, SendRequest


@dataclass(slots=True)
class BufferRef:
    """A payload by reference: byte view + header + lifetime bit.

    ``view`` is a flat ``uint8`` array.  ``owned=False`` means the view
    aliases memory the *application* owns (the sender's user buffer):
    it may only be read while the originating send request is pending,
    and whoever needs the bytes past that point must
    :meth:`materialize` first.  ``owned=True`` means the ref owns its
    bytes outright (a materialized copy, or a buffer built for the
    message) and may be held indefinitely.

    The ``dtype``/``shape`` header describes the logical array the
    bytes encode (the RMA path round-trips typed window data through
    it via :meth:`as_array`); for the two-sided byte path it is simply
    ``uint8``/``(nbytes,)``.
    """

    view: np.ndarray
    owned: bool
    dtype: str = "uint8"
    shape: tuple = ()

    @classmethod
    def borrow(cls, arr: np.ndarray) -> "BufferRef":
        """Wrap ``arr`` without copying (borrowed lifetime)."""
        flat = arr.reshape(-1).view(np.uint8)
        return cls(
            view=flat, owned=False, dtype=str(arr.dtype), shape=arr.shape
        )

    @classmethod
    def own(cls, arr: np.ndarray) -> "BufferRef":
        """Take an owned copy of ``arr`` (one materialization)."""
        flat = np.array(
            arr.reshape(-1).view(np.uint8), dtype=np.uint8, copy=True
        )
        return cls(
            view=flat, owned=True, dtype=str(arr.dtype), shape=arr.shape
        )

    @property
    def nbytes(self) -> int:
        return self.view.nbytes

    def materialize(self) -> "BufferRef":
        """An owned ref with the same bytes (no-op when already owned)."""
        if self.owned:
            return self
        return BufferRef(
            view=self.view.copy(),
            owned=True,
            dtype=self.dtype,
            shape=self.shape,
        )

    def as_array(self) -> np.ndarray:
        """The header-typed view of the bytes (no copy)."""
        return self.view.view(np.dtype(self.dtype)).reshape(self.shape)


class EnvelopeKind(Enum):
    EAGER = "eager"
    RTS = "rts"
    CTS = "cts"
    #: one-sided operation record (see :mod:`repro.mpisim.rma`)
    RMA = "rma"
    #: ULFM revoke notice: ``context_id >> 1`` names the revoked cid
    REVOKE = "revoke"


@dataclass(slots=True)
class Envelope:
    kind: EnvelopeKind
    src: int  # global sender rank
    dst: int  # global receiver rank
    context_id: int
    tag: int
    nbytes: int
    payload: "np.ndarray | BufferRef | None" = None  # EAGER only
    send_req: "SendRequest | None" = None  # RTS / CTS / zero-copy EAGER
    recv_req: "RecvRequest | None" = None  # CTS only
    rma: object | None = None  # RMA only: an RMAMessage record
    #: split CTS only: halves of the payload not yet copied (2 → 0)
    parties: int = 0
    #: piggybacked revoke notice: cids the *sender* knows revoked,
    #: stamped by ``World._deliver`` so receivers learn of a revoke
    #: from any traffic, without a side channel (DESIGN.md §15)
    revoked: "tuple[int, ...] | None" = None

    def matches(self, source: int, tag: int, context_id: int) -> bool:
        """Does this (EAGER/RTS) envelope satisfy a receive's pattern?"""
        if self.context_id != context_id:
            return False
        if source != ANY_SOURCE and self.src != source:
            return False
        if tag != ANY_TAG and self.tag != tag:
            return False
        return True
