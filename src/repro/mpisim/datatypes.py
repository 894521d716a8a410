"""Buffer handling for message payloads.

Following mpi4py's split personality, the communicator offers a fast
buffer path (NumPy arrays, zero intermediate pickling) and a
convenience object path (arbitrary picklable objects).  Everything
below normalizes user arguments into flat byte views so the matching
and protocol layers deal in one representation.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

from repro.mpisim.envelope import BufferRef
from repro.mpisim.exceptions import DatatypeMismatch, TruncationError

#: a singleton: ``ndim == 1 and dtype is _U8`` is a flat byte view
_U8 = np.dtype(np.uint8)


def as_send_buffer(buf: Any) -> np.ndarray:
    """View ``buf`` as a contiguous 1-D uint8 array without copying.

    Accepts NumPy arrays, ``bytes``/``bytearray``/``memoryview`` and
    anything exposing the buffer protocol.  Non-contiguous arrays are
    copied (as a real MPI derived-datatype pack would).
    """
    if isinstance(buf, np.ndarray):
        arr = buf
    else:
        arr = np.frombuffer(memoryview(buf).cast("B"), dtype=np.uint8)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    if arr.ndim == 1 and arr.dtype is _U8:
        return arr
    return arr.reshape(-1).view(np.uint8)


def as_recv_buffer(buf: Any) -> np.ndarray:
    """View ``buf`` as a writable contiguous 1-D uint8 array.

    The caller retains ownership; incoming payload bytes are copied into
    this view on match.
    """
    if isinstance(buf, np.ndarray):
        arr = buf
    else:
        mv = memoryview(buf)
        if mv.readonly:
            raise TypeError("receive buffer must be writable")
        arr = np.frombuffer(mv.cast("B"), dtype=np.uint8)
        # np.frombuffer marks the result read-only even for writable
        # memoryviews of bytearrays; re-enable writes explicitly.
        arr.flags.writeable = True
    if not arr.flags.writeable:
        raise TypeError("receive buffer must be writable")
    if not arr.flags.c_contiguous:
        raise TypeError("receive buffer must be contiguous")
    if arr.ndim == 1 and arr.dtype is _U8:
        return arr
    return arr.reshape(-1).view(np.uint8)


def copy_into(dst: np.ndarray, payload: "np.ndarray | BufferRef") -> int:
    """Copy ``payload`` bytes into ``dst``; returns bytes copied.

    This is the zero-copy data plane's *single* copy: the payload may
    be a :class:`~repro.mpisim.envelope.BufferRef` borrowing the
    sender's live user buffer, in which case the bytes move directly
    from that buffer into the receiver's posted view with no
    intermediate materialization.

    ``dst`` may be any writable NumPy view:

    * contiguous views (any dtype) take the flat byte path;
    * strided / non-contiguous views are filled element-wise through
      ``dst.flat`` — the payload byte count must then be a whole
      number of destination elements, else :class:`DatatypeMismatch`
      is raised (the old path silently dropped the partial element).

    Raises :class:`TruncationError` when the payload does not fit,
    mirroring ``MPI_ERR_TRUNCATE``.  Short messages are fine (the
    status carries the true count).
    """
    src = payload.view if isinstance(payload, BufferRef) else payload
    n = src.nbytes
    if n > dst.nbytes:
        raise TruncationError(
            f"message of {n} bytes truncated: receive buffer holds "
            f"{dst.nbytes}"
        )
    if not n:
        return 0
    if src.ndim == dst.ndim == 1 and src.dtype is dst.dtype is _U8:
        # two flat byte views (what posting normalised both sides to)
        dst[:n] = src
        return n
    src_bytes = src.reshape(-1).view(np.uint8)
    if dst.flags.c_contiguous:
        dst_bytes = dst.reshape(-1).view(np.uint8)
        dst_bytes[:n] = src_bytes
        return n
    # Strided destination: bytes cannot be viewed in place, so lay the
    # payload down element-by-element through the strided iterator.
    itemsize = dst.dtype.itemsize
    if n % itemsize:
        raise DatatypeMismatch(
            f"payload of {n} bytes does not divide into whole "
            f"{dst.dtype} elements ({itemsize} bytes each) for a "
            f"non-contiguous destination view"
        )
    k = n // itemsize
    dst.flat[:k] = src_bytes.view(dst.dtype)
    return n


def pack_object(obj: Any) -> np.ndarray:
    """Pickle an arbitrary object into a uint8 payload array."""
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return np.frombuffer(raw, dtype=np.uint8).copy()


def unpack_object(payload: np.ndarray) -> Any:
    """Inverse of :func:`pack_object`."""
    return pickle.loads(payload.tobytes())
