"""Tagged mailbox shared by the threaded and multiprocessing backends.

A :class:`Mailbox` is one node's inbound message store: frames are keyed by
``(src, tag)`` and delivered FIFO per key.  It supports the three access
patterns the runtime needs:

* ``get`` — blocking selective receive (the classic MPI-style matching);
* ``poll`` — non-blocking probe-and-pop, backing ``Request.test()`` of the
  non-blocking API;
* per-source closure — when a peer's channel dies, only receives matching
  that source fail; traffic from healthy peers keeps flowing (the
  multiprocessing backend's per-peer reader threads close their source on
  EOF while the rest of the mesh stays up).

``close()`` (global) additionally fails *all* pending receives — used by the
threaded backend when any node thread dies so the rest unblock promptly.

Every change of state (a frame put, a source closed or reopened, an
explicit :meth:`Mailbox.kick`) bumps a version counter under the
mailbox's condition, so :meth:`Mailbox.wait_changed` lets an event loop
sleep until *something* happened — the primitive behind
:meth:`~repro.runtime.api.Comm.wait_any`, with no sleep-polling.

Frames are opaque buffers (``bytes`` / ``bytearray`` / ``memoryview``) and
are handed to the consumer *by reference* — the zero-copy ``copy=False``
receive path slices views straight off whatever the producer enqueued (a
receive arena in the multiprocessing backend, possibly the sender's own
memory in the threaded backend).  Consumers must treat popped frames as
read-only.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple, Union

_MailKey = Tuple[int, int]  # (src, tag)
_Frame = Union[bytes, bytearray, memoryview]


class MailboxClosed(Exception):
    """Raised by ``get`` when the mailbox (or the awaited source) is closed."""


class Mailbox:
    """Per-node tagged mailbox with blocking and non-blocking receive."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._queues: Dict[_MailKey, Deque[_Frame]] = {}
        self._closed = False
        self._closed_sources: Dict[int, str] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Change counter: bumped by every put, closure and kick."""
        return self._version

    def _changed(self) -> None:
        # Caller holds the condition.
        self._version += 1
        self._cond.notify_all()

    def kick(self) -> None:
        """Wake every :meth:`wait_changed` caller without delivering a frame.

        Completion sources that are not frames (an async send finishing,
        a driver directive arriving) call this so a waiting event loop
        re-tests its requests.
        """
        with self._cond:
            self._changed()

    def wait_changed(self, version: int, timeout: Optional[float]) -> bool:
        """Block until :attr:`version` differs from ``version``.

        Returns False if ``timeout`` seconds pass first (``None`` waits
        without bound).  Reading ``version`` *before* testing whatever the
        caller waits for closes the lost-wakeup race: a change in between
        makes this return at once.
        """
        with self._cond:
            return self._cond.wait_for(
                lambda: self._version != version, timeout
            )

    def put(self, src: int, tag: int, payload: _Frame) -> None:
        with self._cond:
            if self._closed:
                raise MailboxClosed("mailbox closed (peer died?)")
            self._queues.setdefault((src, tag), deque()).append(payload)
            self._changed()

    def get(self, src: int, tag: int, timeout: Optional[float]) -> _Frame:
        """Pop the next frame for ``(src, tag)``, blocking until one arrives.

        Raises:
            MailboxClosed: the mailbox or the awaited source was closed and
                no matching frame remains buffered.
            TimeoutError: no frame arrived within ``timeout`` seconds.
        """
        key = (src, tag)
        # One absolute deadline for the whole call: wakeups for *other*
        # keys (notify_all fires on every put) must not restart the clock,
        # or a stuck receive would never time out while unrelated traffic
        # keeps flowing.
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                q = self._queues.get(key)
                if q:
                    return q.popleft()
                if self._closed:
                    raise MailboxClosed(
                        f"mailbox closed while waiting for (src={src}, tag={tag})"
                    )
                if src in self._closed_sources:
                    raise MailboxClosed(
                        f"source {src} closed while waiting for tag {tag}: "
                        f"{self._closed_sources[src]}"
                    )
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"recv timeout waiting for (src={src}, tag={tag})"
                    )
                self._cond.wait(timeout=remaining)

    def poll(self, src: int, tag: int) -> Optional[_Frame]:
        """Pop the next frame for ``(src, tag)`` if one is buffered, else None.

        Buffered frames drain first; once the mailbox (or the polled
        source) is closed and nothing matching remains, the poll raises so
        a ``test()``-polling caller observes peer death instead of
        spinning forever.

        Raises:
            MailboxClosed: the source can never deliver a matching frame.
        """
        with self._cond:
            q = self._queues.get((src, tag))
            if q:
                return q.popleft()
            if self._closed:
                raise MailboxClosed(
                    f"mailbox closed while polling (src={src}, tag={tag})"
                )
            if src in self._closed_sources:
                raise MailboxClosed(
                    f"source {src} closed while polling tag {tag}: "
                    f"{self._closed_sources[src]}"
                )
            return None

    def purge(self, match: "Callable[[int, int], bool]") -> int:
        """Drop every buffered frame whose ``(src, tag)`` key matches.

        Long-lived endpoints that run many overlapping jobs (the sort
        service's subset workers) reclaim a finished or aborted job's
        undelivered frames with this — unlike the one-job-at-a-time
        pools, they never tear the whole mailbox down between jobs.

        Returns:
            The number of frames dropped.
        """
        with self._cond:
            dropped = 0
            for key in [k for k in self._queues if match(*k)]:
                dropped += len(self._queues[key])
                del self._queues[key]
            return dropped

    def close_source(self, src: int, reason: str) -> None:
        """Fail future receives from ``src`` (already-buffered frames drain)."""
        with self._cond:
            self._closed_sources.setdefault(src, reason)
            self._changed()

    def reopen_source(self, src: int) -> None:
        """Clear a per-source closure: a replacement peer took over ``src``.

        Elastic pools recycle a dead worker's rank — when the rejoined
        worker's fresh connection is integrated, receives from that
        source must block for new frames again instead of failing on the
        old incarnation's EOF.  A no-op if the source was never closed.
        """
        with self._cond:
            self._closed_sources.pop(src, None)
            self._changed()

    def close(self) -> None:
        """Fail all pending and future receives."""
        with self._cond:
            self._closed = True
            self._changed()
