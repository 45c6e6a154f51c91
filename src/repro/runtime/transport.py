"""Socket framing for every live backend: data plane and control plane.

Each point-to-point channel is a stream socket (an ``AF_UNIX``
``socketpair`` inherited over ``fork``, or a TCP connection).  Messages
are length-prefixed frames::

    <tag: uint64 LE> <length: uint64 LE> <payload: length bytes>

The data plane is zero-copy in both directions:

* **sends are vectored** — :func:`send_frame` accepts either one buffer or
  a gather list of buffer parts and hands ``[header, *parts]`` to
  ``sock.sendmsg`` in one call, so the header/payload concatenation and
  any caller-side part join never happen;
* **receives land in one arena** — :func:`recv_frame` reads the length,
  allocates a single ``bytearray``, and fills it with ``recv_into`` on
  memoryview slices; no parts list, no join.

The control plane (job dispatch, heartbeats, result return between a
driver and its workers) rides the same frames through one codec,
:func:`send_msg` / :func:`recv_msg`.  A message is pickled with protocol 5
and a ``buffer_callback``, so every contiguous array in it (a result
``RecordBatch``, an ``InlineSource`` dispatch payload) leaves the sender
as a view, not a copy.  One frame carries::

    <head length: uint64 LE> <buffer count n: uint32 LE>
    <n buffer lengths: uint64 LE each> <pickle head>
    (<zero pad to 16 bytes> <buffer>) * n

and the receiver unpickles over slices of the frame's arena: the arrays
it returns alias that arena and stay writable.  A malformed frame raises
:class:`TransportError`, never a ``struct`` or unpickling error.  Pickle
is only for the trusted driver/worker plane; client-facing ports use
their own codec.

Large paced payloads are still written in chunks so a sender-side
:class:`~repro.runtime.ratelimit.TokenBucket` can pace them, reproducing
the paper's 100 Mbps ``tc`` throttling in userspace.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import selectors
import socket
import struct
from collections import ChainMap
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.api import BufferParts, as_views, chunk_views
from repro.runtime.ratelimit import TokenBucket
from repro.utils import copytrack

FRAME_HEADER = struct.Struct("<QQ")
#: Write granularity; also the pacing quantum for rate-limited sends.
CHUNK_BYTES = 64 * 1024
#: Max iovec entries per ``sendmsg`` call (conservative vs POSIX IOV_MAX).
_IOV_MAX = 512

#: Frame tag of control-plane messages (see :func:`send_msg`).
CTRL_TAG = 2
#: Control-message prefix: pickle-head length and out-of-band buffer
#: count; one uint64 length per buffer follows.
CTRL_HEADER = struct.Struct("<QI")
#: Arena alignment of every out-of-band buffer, so arrays decoded over
#: the arena are aligned for any NumPy dtype.
_ALIGN = 16
_PAD = bytes(_ALIGN)


class TransportError(ConnectionError):
    """Raised when a peer closes mid-frame or a read times out."""


def send_frame(
    sock: socket.socket,
    tag: int,
    payload: BufferParts,
    pacer: Optional[TokenBucket] = None,
) -> None:
    """Write one frame; ``payload`` may be a buffer or a gather list.

    Unpaced, the header and every payload part go out through a single
    vectored ``sendmsg`` (no concatenation, no per-part ``sendall``).  A
    frame is one atomic unit on the stream either way: partial vectored
    writes are continued until the full frame is out.

    Paced, the header is charged together with the first chunk; pacing
    charges payload + header bytes so measured goodput matches the
    configured rate.
    """
    views = as_views(payload)
    total = sum(len(v) for v in views)
    header = FRAME_HEADER.pack(tag, total)
    if pacer is None:
        # An empty frame is complete once its header is out; sending it as
        # one sendmsg (not header-then-payload) also matters for
        # correctness: the receiver may legitimately consume the frame and
        # exit between two calls, and a trailing no-op send would then
        # raise EPIPE.
        _sendmsg_all(sock, [memoryview(header), *views])
        return
    pacer.consume(len(header))
    sock.sendall(header)
    for chunk in chunk_views(views, CHUNK_BYTES):
        pacer.consume(sum(len(v) for v in chunk))
        _sendmsg_all(sock, chunk)


def _sendmsg_all(sock: socket.socket, views: List[memoryview]) -> None:
    """Vectored ``sendall``: push every view out, resuming partial writes."""
    pending = [v for v in views if len(v)]
    while pending:
        try:
            n = sock.sendmsg(pending[:_IOV_MAX])
        except socket.timeout as exc:  # pragma: no cover - timing dependent
            raise TransportError("socket write timed out") from exc
        while pending and n >= len(pending[0]):
            n -= len(pending[0])
            pending.pop(0)
        if n:
            pending[0] = pending[0][n:]


def recv_frame(sock: socket.socket) -> Tuple[int, bytearray]:
    """Read one complete frame; raises :class:`TransportError` on EOF.

    The payload lands in a single freshly-allocated ``bytearray`` arena
    via ``recv_into`` — downstream consumers slice memoryviews off it
    instead of copying.
    """
    header = recv_exact(sock, FRAME_HEADER.size)
    tag, length = FRAME_HEADER.unpack(header)
    payload = bytearray(length)
    if length:
        recv_exact_into(sock, memoryview(payload))
    return tag, payload


def recv_exact_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` completely from ``sock`` or raise :class:`TransportError`."""
    total = len(view)
    got = 0
    while got < total:
        try:
            n = sock.recv_into(view[got:])
        except socket.timeout as exc:  # pragma: no cover - timing dependent
            raise TransportError(
                f"socket read timed out ({total} byte frame)"
            ) from exc
        if n == 0:
            raise TransportError(
                f"peer closed connection with {total - got}/{total} bytes pending"
            )
        got += n


def recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes into one preallocated arena."""
    buf = bytearray(n)
    if n:
        recv_exact_into(sock, memoryview(buf))
    return buf


# ---------------------------------------------------------------------------
# Control-plane codec.
# ---------------------------------------------------------------------------


def _reduce_ndarray(arr: np.ndarray):
    """Protocol-5 reduction that counts arrays pickle must copy in band."""
    if arr.dtype.hasobject or not (
        arr.flags.c_contiguous or arr.flags.f_contiguous
    ):
        copytrack.count_copy(arr.nbytes, "ctrl.inband")
    return arr.__reduce_ex__(5)


class _CtrlPickler(pickle.Pickler):
    """Protocol-5 pickler that counts in-band array copies."""

    dispatch_table = ChainMap(
        {np.ndarray: _reduce_ndarray}, copyreg.dispatch_table
    )


def _aligned(pos: int) -> int:
    return -(-pos // _ALIGN) * _ALIGN


def send_msg(sock: socket.socket, obj: Any, tag: int = CTRL_TAG) -> None:
    """Send one control message: pickle head plus out-of-band buffers.

    The pickle head and every out-of-band buffer go out as one
    :func:`send_frame` gather, so an array's bytes are never copied on
    the sending side.
    """
    head = io.BytesIO()
    buffers: List[pickle.PickleBuffer] = []
    _CtrlPickler(head, 5, buffer_callback=buffers.append).dump(obj)
    views = [b.raw() for b in buffers]
    prefix = struct.pack(
        f"{CTRL_HEADER.format}{len(views)}Q",
        head.tell(),
        len(views),
        *(len(v) for v in views),
    )
    parts: List[Any] = [prefix, head.getbuffer()]
    pos = len(prefix) + head.tell()
    for v in views:
        pad = _aligned(pos) - pos
        parts += [_PAD[:pad], v]
        pos += pad + len(v)
    send_frame(sock, tag, parts)


def recv_msg(sock: socket.socket, tag: int = CTRL_TAG) -> Any:
    """Receive one :func:`send_msg` message; arrays alias the frame arena.

    Raises:
        TransportError: EOF or timeout mid-frame, a frame of another tag,
            or a frame that does not decode (truncated header, a length
            table that overruns the frame, a corrupt pickle head).
    """
    got, payload = recv_frame(sock)
    if got != tag:
        raise TransportError(f"expected control frame tag {tag}, got {got}")
    size = len(payload)
    if size < CTRL_HEADER.size:
        raise TransportError(
            f"truncated control header ({size} of {CTRL_HEADER.size} bytes)"
        )
    head_len, nbufs = CTRL_HEADER.unpack_from(payload)
    pos = CTRL_HEADER.size + 8 * nbufs
    if pos > size:
        raise TransportError(
            f"control frame's {nbufs}-buffer length table overruns "
            f"its {size} bytes"
        )
    lengths = struct.unpack_from(f"<{nbufs}Q", payload, CTRL_HEADER.size)
    view = memoryview(payload)
    head = view[pos : pos + head_len]
    pos += head_len
    buffers = []
    for n in lengths:
        pos = _aligned(pos)
        buffers.append(view[pos : pos + n])
        pos += n
    if pos != size:
        raise TransportError(
            f"control frame lengths cover {pos} bytes, frame has {size}"
        )
    try:
        return pickle.loads(head, buffers=buffers)
    except Exception as exc:
        raise TransportError(f"undecodable control frame: {exc!r}") from exc


def set_send_timeout(sock: socket.socket, seconds: float) -> None:
    """Bound blocking sends at the kernel (``SO_SNDTIMEO``).

    A wedged peer (connection up, nothing draining) then raises in the
    blocked sender instead of hanging it; unlike ``settimeout`` this
    leaves blocking receives on the same socket unbounded.
    """
    sock.setsockopt(
        socket.SOL_SOCKET,
        socket.SO_SNDTIMEO,
        struct.pack("ll", int(seconds), int((seconds % 1) * 1e6)),
    )


def wait_readable(
    socks: Sequence[socket.socket], timeout: float
) -> List[socket.socket]:
    """The subset of ``socks`` readable within ``timeout`` (no fd limit)."""
    sel = selectors.DefaultSelector()
    try:
        for sock in socks:
            sel.register(sock, selectors.EVENT_READ)
        return [key.fileobj for key, _ in sel.select(timeout)]  # type: ignore[misc]
    finally:
        sel.close()
