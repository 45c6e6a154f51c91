"""Multiprocessing cluster backend: real parallel execution.

Architecture (the paper's Fig. 8, coordinator + K workers):

* the parent process is the coordinator: it creates a full mesh of
  ``socketpair`` channels, forks K worker processes, and collects results,
  stage timings, and traffic logs over one control ``socketpair`` per
  worker (the :func:`~repro.runtime.transport.send_msg` codec, so result
  arrays come home out of band, without a copy);
* each worker runs the same :class:`~repro.runtime.program.NodeProgram` the
  threaded backend runs, over a :class:`Comm` whose point-to-point primitive
  is framed socket I/O;
* an optional sender-side token bucket throttles every worker's NIC,
  reproducing the paper's 100 Mbps ``tc`` configuration;
* barriers are dissemination barriers over the same mesh (O(K log K) empty
  frames), so no central coordinator round-trip sits on the timed path.

The data plane is zero-copy on both sides of every socket: sends hand the
framing header plus the caller's buffer parts to vectored ``sendmsg``
(no concatenation), and each inbound frame lands in one freshly-allocated
``bytearray`` arena via ``recv_into`` — receives with ``copy=False``
return memoryview slices of that arena all the way up to the program.

Each worker runs one *reader thread per peer socket* that demultiplexes
inbound frames into a tagged mailbox.  That is what makes the non-blocking
API deadlock-free: sockets are always drained regardless of which receives
the program has posted or waited, so a peer's send can never stall forever
on a full kernel buffer.  Blocking receives, lazy ``irecv`` requests, and
barrier frames all pop from the same mailbox.  ``isend`` / root-side
``ibcast`` closures run on a single per-worker sender thread (preserving
per-channel FIFO order); a per-destination lock keeps frames from
interleaving when the program thread (barriers, blocking broadcasts) sends
concurrently with the sender thread.

Workers inherit the program factory through ``fork``, so factories may close
over arbitrary in-memory state (e.g. pre-generated input files) without
pickling.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import socket
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.api import (
    BACKEND_TIMEOUT,
    BufferParts,
    Comm,
    CommError,
    DEFAULT_CHUNK_BYTES,
    JOB_TAG_STRIDE,
    MulticastMode,
    Request,
    _BARRIER_NS,
    _BCAST_NS,
    _FutureRequest,
    _JOB_BARRIER_EPOCH_STRIDE,
    _JOB_TAG_WINDOWS,
    barrier_tag,
)
from repro.runtime.errors import (
    RuntimeTimeoutError,
    WorkerFailure,
    job_failure as _job_failure,
)
from repro.runtime.mailbox import Mailbox, MailboxClosed
from repro.runtime.monitor import JobMonitor
from repro.runtime.program import (
    ClusterResult,
    JobControl,
    PreparedJob,
    ProgramFactory,
    assemble_cluster_result,
)
from repro.runtime.ratelimit import TokenBucket
from repro.runtime.traffic import TrafficLog
from repro.runtime.transport import (
    TransportError,
    recv_frame,
    recv_msg,
    send_frame,
    send_msg,
    set_send_timeout,
    wait_readable,
)


class _SocketComm(Comm):
    """Comm endpoint over a mesh of per-peer stream sockets."""

    def __init__(
        self,
        rank: int,
        size: int,
        conns: Dict[int, socket.socket],
        multicast_mode: MulticastMode,
        pacer: Optional[TokenBucket],
        recv_timeout: Optional[float],
        chunk_bytes: int,
        record_relays: bool,
    ) -> None:
        super().__init__(
            rank,
            size,
            traffic=TrafficLog(),
            multicast_mode=multicast_mode,
            chunk_bytes=chunk_bytes,
            record_relays=record_relays,
        )
        self._conns = conns
        self._pacer = pacer
        self._recv_timeout = recv_timeout
        self._mailbox = Mailbox()
        self._send_locks: Dict[int, threading.Lock] = {
            peer: threading.Lock() for peer in conns
        }
        #: Membership epoch at which each peer link was established; 0
        #: for the initial mesh.  Elastic pools stamp later incarnations
        #: (see :meth:`add_peer`), and :class:`SubsetComm` compares these
        #: against a job's planning epoch so a job dispatched before a
        #: rank was recycled can never talk to the replacement worker.
        self.peer_epochs: Dict[int, int] = {peer: 0 for peer in conns}
        self._readers: List[threading.Thread] = []
        self._send_queue: Optional["queue.Queue"] = None
        self._sender_thread: Optional[threading.Thread] = None
        self._sender_lock = threading.Lock()
        self._barrier_epoch = 0

    # -- inbound demultiplexing -------------------------------------------------

    def _start_readers(self) -> None:
        """Spawn one reader thread per peer socket (call in the worker)."""
        for peer, sock in self._conns.items():
            t = threading.Thread(
                target=self._reader_loop,
                args=(peer, sock),
                daemon=True,
                name=f"reader-{self.rank}<-{peer}",
            )
            t.start()
            self._readers.append(t)

    def _reader_loop(self, peer: int, sock: socket.socket) -> None:
        while True:
            try:
                tag, payload = recv_frame(sock)
            except (OSError, TransportError) as exc:
                # Close the source only while this socket is still the
                # peer's current link: a replacement incarnation may have
                # been integrated (add_peer) before the old link's EOF
                # drained, and its fresh source must stay open.
                if self._conns.get(peer) is sock:
                    self._mailbox.close_source(peer, str(exc))
                return
            try:
                self._mailbox.put(peer, tag, payload)
            except MailboxClosed:
                return

    # -- elastic membership -----------------------------------------------------

    def add_peer(
        self, peer: int, sock: socket.socket, epoch: int = 0
    ) -> None:
        """Integrate a (re)joined worker's mesh link into this endpoint.

        Called by the resilient worker's mesh-growth acceptor when a
        replacement agent dials in mid-service: the new socket replaces
        any dead link at ``peer``'s rank, the rank's mailbox source is
        reopened (the old incarnation's EOF closed it), a fresh reader
        thread starts, and the link is stamped with the membership
        ``epoch`` it was born in.  Safe while disjoint subset jobs run:
        an in-flight :class:`SubsetComm` snapshots its members' sockets
        at construction and never includes a dead rank.
        """
        if self._recv_timeout is not None:
            set_send_timeout(sock, self._recv_timeout)
        old = self._conns.get(peer)
        self._conns[peer] = sock
        self._send_locks.setdefault(peer, threading.Lock())
        self.peer_epochs[peer] = epoch
        if peer >= self.size:
            self.size = peer + 1
        self._mailbox.reopen_source(peer)
        t = threading.Thread(
            target=self._reader_loop,
            args=(peer, sock),
            daemon=True,
            name=f"reader-{self.rank}<-{peer}",
        )
        t.start()
        self._readers.append(t)
        if old is not None and old is not sock:
            try:
                old.close()
            except OSError:  # pragma: no cover - already dead
                pass

    def wait_for_peers(
        self, peers: Sequence[int], timeout: float = 5.0
    ) -> None:
        """Block until every listed rank has a mesh link (or raise).

        A subset job can be dispatched the instant a rejoined member
        reported ready to the coordinator, a hair before *this* worker's
        acceptor finished integrating that member's peer link — absorb
        the race instead of failing the job on it.
        """
        deadline = time.monotonic() + timeout
        missing = [
            g for g in peers if g != self.rank and g not in self._conns
        ]
        while missing:
            if time.monotonic() >= deadline:
                raise CommError(
                    f"subset members {missing} are not mesh peers of rank "
                    f"{self.rank} after {timeout:.1f}s (mesh size {self.size})"
                )
            time.sleep(0.01)
            missing = [
                g for g in missing if g not in self._conns
            ]

    # -- raw primitives ---------------------------------------------------------

    def _send_raw(self, dst: int, tag: int, payload: BufferParts) -> None:
        """Vectored frame write: header + parts go out in one ``sendmsg``."""
        try:
            with self._send_locks[dst]:
                send_frame(self._conns[dst], tag, payload, pacer=self._pacer)
        except socket.timeout as exc:
            # SO_SNDTIMEO expiry: the peer stopped draining (wedged or
            # dead) — typed so drivers can tell timeout from protocol bug.
            raise RuntimeTimeoutError(
                f"send to worker {dst} timed out in stage "
                f"{self._stage!r}: {exc}",
                peer=dst,
                stage=self._stage,
            ) from exc
        except (OSError, TransportError) as exc:
            raise WorkerFailure(
                dst, self._stage, f"send failed: {exc}"
            ) from exc

    def _recv_raw(self, src: int, tag: int, timeout=BACKEND_TIMEOUT) -> bytearray:
        if timeout is BACKEND_TIMEOUT:
            timeout = self._recv_timeout
        try:
            return self._mailbox.get(src, tag, timeout)
        except TimeoutError as exc:
            raise RuntimeTimeoutError(
                f"recv from worker {src} timed out after {timeout}s in "
                f"stage {self._stage!r}",
                peer=src,
                stage=self._stage,
                seconds=timeout,
            ) from exc
        except MailboxClosed as exc:
            raise WorkerFailure(
                src, self._stage, f"peer connection lost: {exc}"
            ) from exc

    def _poll_raw(self, src: int, tag: int) -> Optional[bytes]:
        try:
            return self._mailbox.poll(src, tag)
        except MailboxClosed as exc:
            raise WorkerFailure(
                src, self._stage, f"peer connection lost: {exc}"
            ) from exc

    def _inbox(self) -> Mailbox:
        return self._mailbox

    def _begin_job_raw(self, job_seq: int) -> None:
        # Per-job barrier-epoch base: a stale barrier frame of an earlier
        # (e.g. aborted) job can never match a later job's rounds.
        self._barrier_epoch = (
            job_seq % _JOB_TAG_WINDOWS
        ) * _JOB_BARRIER_EPOCH_STRIDE

    def _barrier_raw(self) -> None:
        """Dissemination barrier: log2(K) rounds of shifted token passing."""
        k = self.size
        if k == 1:
            return
        epoch = self._barrier_epoch
        self._barrier_epoch += 1
        round_idx = 0
        dist = 1
        while dist < k:
            dst = (self.rank + dist) % k
            src = (self.rank - dist) % k
            tag = barrier_tag(epoch * 64 + round_idx)
            self._send_raw(dst, tag, b"")
            self._recv_raw(src, tag)
            dist <<= 1
            round_idx += 1

    # -- async dispatch ----------------------------------------------------------

    def _dispatch_send(self, fn: Callable[[], Optional[bytes]]) -> Request:
        """Run a send closure on the per-worker sender thread, in order."""
        with self._sender_lock:
            if self._send_queue is None:
                self._send_queue = queue.Queue()
                self._sender_thread = threading.Thread(
                    target=self._sender_loop,
                    daemon=True,
                    name=f"sender-{self.rank}",
                )
                self._sender_thread.start()
        # A send future's plain wait() is bounded like a receive, so a
        # wedged peer (full buffer, nothing draining) surfaces as an error.
        req = _FutureRequest(
            default_timeout=self._recv_timeout, on_done=self.wake
        )
        self._send_queue.put((fn, req))
        return req

    def _sender_loop(self) -> None:
        assert self._send_queue is not None
        while True:
            item = self._send_queue.get()
            if item is None:
                return
            fn, req = item
            try:
                req._set(fn())
            except BaseException as exc:  # noqa: BLE001 - delivered via wait
                req._fail(exc)

    def _close_async(self) -> None:
        if self._send_queue is not None:
            self._send_queue.put(None)
            assert self._sender_thread is not None
            self._sender_thread.join(timeout=10.0)


class SubsetComm(_SocketComm):
    """A logical-rank view of one worker's mesh endpoint for a subset job.

    The sort service schedules a K'-worker job onto K' of a standing
    mesh's K workers, overlapping it with other jobs on the disjoint
    remainder.  Each member builds a ``SubsetComm`` over its base
    endpoint: logical rank ``i`` maps onto global rank ``members[i]``,
    the base's sockets, per-destination send locks, pacer, and mailbox
    are shared (no new connections, no new reader threads — the base
    readers keep feeding the one mailbox, keyed by *global* source), and
    every inherited primitive — barriers, broadcast trees, the async
    sender — operates purely in logical coordinates.  A program written
    for a K'-node cluster therefore runs unmodified, and byte-identically
    to a dedicated K'-worker mesh.

    Isolation between overlapping jobs rests on three mechanisms:

    * per-job tag windows (:meth:`Comm.begin_job` with coordinator-unique
      sequence numbers) keep concurrent jobs' frames from ever aliasing;
    * per-source mailbox closure means a worker death fails only the
      jobs whose subset contains the dead rank — neighbours never see it;
    * receives poll the job's abort flag (a coordinator
      ``("ctl", seq, ("abort", reason))`` frame, see
      :meth:`~repro.runtime.program.JobControl.abort_reason`) in short
      slices, so members of a job the coordinator already failed
      elsewhere unblock promptly instead of waiting out the timeout.

    Workers run one job at a time, so the base endpoint is never used
    concurrently with a subset built over it.
    """

    _ABORT_POLL = 0.1

    def __init__(
        self,
        base: _SocketComm,
        members: Sequence[int],
        epoch: Optional[int] = None,
    ) -> None:
        members = list(members)
        if len(set(members)) != len(members):
            raise CommError(f"duplicate ranks in subset {members}")
        if base.rank not in members:
            raise CommError(
                f"rank {base.rank} is not a member of subset {members}"
            )
        for g in members:
            if g != base.rank and g not in base._conns:
                raise CommError(
                    f"subset member {g} is not a mesh peer of rank "
                    f"{base.rank} (mesh size {base.size})"
                )
            # Membership-epoch guard: a job planned at epoch E must never
            # talk to a peer whose link was (re)established after E — the
            # rank was recycled by a replacement worker the job's plan
            # knows nothing about.  Reported as a comm error, so the
            # coordinator retries on the current membership.
            if (
                epoch is not None
                and g != base.rank
                and base.peer_epochs.get(g, 0) > epoch
            ):
                raise CommError(
                    f"subset member {g} rejoined at membership epoch "
                    f"{base.peer_epochs[g]}, newer than the job's planning "
                    f"epoch {epoch} (recycled rank)"
                )
        super().__init__(
            members.index(base.rank),
            len(members),
            {
                i: base._conns[g]
                for i, g in enumerate(members)
                if g != base.rank
            },
            base.multicast_mode,
            base._pacer,
            base._recv_timeout,
            base.chunk_bytes,
            base.record_relays,
        )
        self.members = members
        self.epoch = epoch
        self._base = base
        # Share the base's lock objects (a previous subset job's sender
        # thread may still be draining a send to the same peer socket)
        # and its mailbox; raw receives translate logical -> global.
        self._send_locks = {
            i: base._send_locks[g]
            for i, g in enumerate(members)
            if g != base.rank
        }
        self._mailbox = base._mailbox

    def _abort_failure(self, reason: str) -> WorkerFailure:
        return WorkerFailure(
            -1, self._stage, f"job aborted by coordinator: {reason}"
        )

    def _recv_raw(self, src: int, tag: int, timeout=BACKEND_TIMEOUT):
        if timeout is BACKEND_TIMEOUT:
            timeout = self._recv_timeout
        gsrc = self.members[src]
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            control = self.job_control
            if control is not None:
                reason = control.abort_reason()
                if reason is not None:
                    raise self._abort_failure(reason)
            if deadline is None:
                slice_t = self._ABORT_POLL
            else:
                slice_t = min(
                    self._ABORT_POLL,
                    max(0.0, deadline - time.monotonic()),
                )
            try:
                return self._mailbox.get(gsrc, tag, slice_t)
            except TimeoutError:
                if deadline is not None and time.monotonic() >= deadline:
                    raise RuntimeTimeoutError(
                        f"recv from worker {src} timed out after {timeout}s "
                        f"in stage {self._stage!r}",
                        peer=src,
                        stage=self._stage,
                        seconds=timeout,
                    ) from None
            except MailboxClosed as exc:
                raise WorkerFailure(
                    src, self._stage, f"peer connection lost: {exc}"
                ) from exc

    def _poll_raw(self, src: int, tag: int) -> Optional[bytes]:
        control = self.job_control
        if control is not None:
            reason = control.abort_reason()
            if reason is not None:
                raise self._abort_failure(reason)
        try:
            return self._mailbox.poll(self.members[src], tag)
        except MailboxClosed as exc:
            raise WorkerFailure(
                src, self._stage, f"peer connection lost: {exc}"
            ) from exc


def _purge_job_frames(mailbox: Mailbox, job_seq: int) -> int:
    """Drop buffered frames belonging to ``job_seq``'s tag windows.

    A subset job that failed (or was aborted) can leave undelivered
    frames in the shared base mailbox.  The full-mesh pools simply tear
    the worker down after a failure, but a resilient service worker
    lives on to serve the next job — so the dead job's frames must be
    reclaimed.  Covers all three namespaces a job receives in: shifted
    user tags, broadcast inner tags, and barrier rounds.
    """
    window = job_seq % _JOB_TAG_WINDOWS

    def match(src: int, tag: int) -> bool:
        if tag >= _BARRIER_NS:
            epoch = (tag - _BARRIER_NS) // 64
            return epoch // _JOB_BARRIER_EPOCH_STRIDE == window
        if tag >= _BCAST_NS:
            return (tag - _BCAST_NS) // JOB_TAG_STRIDE == window
        return tag // JOB_TAG_STRIDE == window

    return mailbox.purge(match)


def _build_mesh(
    k: int,
) -> Dict[Tuple[int, int], Tuple[socket.socket, socket.socket]]:
    """Full mesh: one socketpair per unordered node pair."""
    return {
        (i, j): socket.socketpair()
        for i in range(k)
        for j in range(i + 1, k)
    }


def _mesh_endpoints(
    pairs: Dict[Tuple[int, int], Tuple[socket.socket, socket.socket]],
    rank: int,
) -> Tuple[Dict[int, socket.socket], List]:
    """Rank's own peer sockets plus every inherited fd it must close."""
    conns: Dict[int, socket.socket] = {}
    extra_close: List = []
    for (i, j), (si, sj) in pairs.items():
        if rank == i:
            conns[j] = si
            extra_close.append(sj)
        elif rank == j:
            conns[i] = sj
            extra_close.append(si)
        else:
            extra_close.extend((si, sj))
    return conns, extra_close


def make_socket_comm(
    rank: int,
    size: int,
    conns: Dict[int, socket.socket],
    multicast_mode: MulticastMode,
    rate_bytes_per_s: Optional[float],
    socket_timeout: float,
    chunk_bytes: int,
    record_relays: bool,
) -> _SocketComm:
    """Build a ready :class:`_SocketComm` over an established peer mesh.

    Shared by the forked AF_UNIX workers here and the TCP worker agents in
    :mod:`repro.runtime.tcp` — the mesh transport differs, the endpoint
    machinery (send bounds, pacing, reader threads) is identical.
    """
    # Bound sends at the kernel (SO_SNDTIMEO) so a wedged peer — full
    # buffer, nothing draining — raises in the blocked worker with a
    # traceback naming the stuck send.  SO_SNDTIMEO (unlike settimeout)
    # leaves the reader threads' blocking recv untouched: an idle receive
    # direction is normal; a send that cannot drain for this long is not.
    for s in conns.values():
        set_send_timeout(s, socket_timeout)
    pacer = (
        TokenBucket(rate_bytes_per_s) if rate_bytes_per_s is not None else None
    )
    comm = _SocketComm(
        rank,
        size,
        conns,
        multicast_mode,
        pacer,
        socket_timeout,
        chunk_bytes,
        record_relays,
    )
    comm._start_readers()
    return comm


class _CtrlReader:
    """Owns the coordinator channel's receive side on a daemon thread.

    Frames are demultiplexed by type: ``("job", ...)`` / ``("stop",)`` /
    channel-EOF land on the inbox queue the control loop pops, while
    mid-job ``("ctl", seq, payload)`` frames are delivered straight into
    the running job's :class:`JobControl` — so the program never has to
    stop working to receive a speculation directive.  Elastic-pool
    ``("roster", info)`` membership updates likewise bypass the inbox
    into the ``on_roster`` callback: they may arrive at any time, idle
    or mid-job, and must never end the control loop.
    """

    _EOF = ("__eof__",)

    def __init__(
        self,
        recv_msg: Callable[[], Tuple],
        on_roster: Optional[Callable[[Dict], None]] = None,
    ) -> None:
        self._recv_msg = recv_msg
        self.inbox: "queue.Queue[Tuple]" = queue.Queue()
        self.job_control: Optional[JobControl] = None
        self.on_roster = on_roster
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="pool-ctrl-reader"
        )
        self._thread.start()

    def _loop(self) -> None:
        while True:
            try:
                msg = self._recv_msg()
            except (OSError, TransportError):
                self.inbox.put(self._EOF)
                return
            if msg[0] == "ctl":
                control = self.job_control
                if control is not None and msg[1] == control.job_seq:
                    control.deliver(msg[2])
                continue
            if msg[0] == "roster":
                callback = self.on_roster
                if callback is not None:
                    try:
                        callback(msg[1])
                    except Exception:  # pragma: no cover - advisory frame
                        pass
                continue
            self.inbox.put(msg)
            if msg[0] != "job":
                return  # "stop" (or anything unknown) ends the loop


class _Heartbeater:
    """Emits ``("hb", rank, job_seq, stage)`` frames while a job runs."""

    def __init__(
        self,
        rank: int,
        job_seq: int,
        comm: Comm,
        send_msg: Callable[[Tuple], None],
        send_lock: threading.Lock,
        interval: float,
    ) -> None:
        self._rank = rank
        self._job_seq = job_seq
        self._comm = comm
        self._send_msg = send_msg
        self._send_lock = send_lock
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name=f"heartbeat-{rank}"
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            beat = ("hb", self._rank, self._job_seq, self._comm.stage)
            try:
                with self._send_lock:
                    self._send_msg(beat)
            except (OSError, TransportError):
                return  # coordinator gone; the control loop will notice

    def stop(self) -> None:
        """Stop and join — no heartbeat may trail the final job report."""
        self._stop.set()
        self._thread.join(timeout=10.0)


class WorkerDrain:
    """Signal-safe graceful-shutdown flag for a pool worker.

    ``repro worker`` arms one of these on SIGTERM: :meth:`trigger` (safe
    to call from a signal handler — only an ``Event.set`` and a
    ``Queue.put``) both sets the flag the control loop checks between
    jobs and drops a sentinel on the control inbox so an *idle* worker
    wakes from its blocking ``inbox.get`` immediately.  A busy worker
    finishes its in-flight job, reports the result, and only then exits
    — a mid-shuffle kill would instead cascade ``WorkerFailure`` across
    the whole subset.
    """

    _SENTINEL = ("__drain__",)

    def __init__(self) -> None:
        self._event = threading.Event()
        self._inbox: Optional["queue.Queue[Tuple]"] = None

    @property
    def requested(self) -> bool:
        return self._event.is_set()

    def trigger(self) -> None:
        self._event.set()
        inbox = self._inbox
        if inbox is not None:
            inbox.put(self._SENTINEL)


def serve_pool_jobs(
    comm: _SocketComm,
    rank: int,
    recv_msg: Callable[[], Tuple],
    send_msg: Callable[[Tuple], None],
    heartbeat_interval: Optional[float] = None,
    resilient: bool = False,
    drain: Optional[WorkerDrain] = None,
) -> None:
    """The pool worker control loop, over any coordinator transport.

    Each ``("job", seq, builder, payload[, members[, epoch]])`` message rebinds
    the comm to the job's tag window and traffic log
    (:meth:`Comm.begin_job`), builds the node program from the shipped
    ``(builder, payload)``, runs it, and reports the per-job result /
    stage times / traffic back through ``send_msg``.  When the optional
    fifth element ``members`` is present (the sort service's per-job
    worker subsets), the job runs on a :class:`SubsetComm` view over
    ``comm`` instead — logical ranks ``0..len(members)-1`` over the
    listed global ranks — leaving the other workers of the mesh free to
    run a different job concurrently.

    Failure policy is selected by ``resilient``:

    * ``resilient=False`` (the one-job-at-a-time pools): on any job
      failure the worker reports and *returns* (the caller exits).  Its
      closing sockets EOF every peer's reader thread, so blocked peers
      fail fast, and the coordinator re-forms a clean mesh for the next
      job (a mid-shuffle mesh holds arbitrary half-delivered frames — a
      fresh mesh beats resynchronizing).
    * ``resilient=True`` (service workers): the worker reports the
      failure, reclaims the dead job's buffered frames
      (:func:`_purge_job_frames` — per-job tag windows make this exact),
      and stays up for the next job.  The coordinator retries the failed
      job on a fresh sequence number, so nothing ever aliases.

    While a job runs, a heartbeat thread reports the worker's current
    stage every ``heartbeat_interval`` seconds (``None`` disables) — the
    driver's liveness detector and the speculation policy both feed on
    these.  A reader thread owns ``recv_msg`` for the whole loop, routing
    mid-job ``("ctl", seq, payload)`` frames into the job comm's
    :class:`JobControl`.  The heartbeater is stopped *and joined* before
    the final ok/error report, so the report is always the channel's
    last frame for the job.

    Failures are reported typed: a :class:`CommError` (peer death, comm
    timeout — including the cascade EOFs every survivor sees when one
    worker crashes) reports as ``("comm_error", rank, seq, tb)``, any
    other exception — a genuine program bug — as ``("error", ...)``.

    ``recv_msg`` must raise ``OSError`` / :class:`TransportError` once
    the coordinator is gone; any non-``job`` message (``("stop",)``)
    also ends the loop, as does a :class:`WorkerDrain` trigger once the
    in-flight job (if any) has reported.  Shared by the forked AF_UNIX pool workers here and the
    TCP worker agents in :mod:`repro.runtime.tcp`; both speak the
    :func:`~repro.runtime.transport.send_msg` codec, over a control
    ``socketpair`` and the rendezvous connection respectively.
    """
    send_lock = threading.Lock()

    def on_roster(info: Dict) -> None:
        # Membership grew: track the new mesh size so later subsets can
        # name the joined rank.  The peer link itself arrives via the
        # worker's mesh-growth acceptor (add_peer), not this frame.
        new_size = info.get("size")
        if isinstance(new_size, int) and new_size > comm.size:
            comm.size = new_size

    reader = _CtrlReader(recv_msg, on_roster=on_roster)
    if drain is not None:
        drain._inbox = reader.inbox

    def report(msg: Tuple) -> None:
        with send_lock:
            send_msg(msg)

    while True:
        msg = reader.inbox.get()
        if msg[0] != "job":
            return  # "stop", drain sentinel, or coordinator EOF
        job_seq, builder, payload = msg[1], msg[2], msg[3]
        members: Optional[List[int]] = msg[4] if len(msg) > 4 else None
        epoch: Optional[int] = msg[5] if len(msg) > 5 else None
        traffic = TrafficLog()
        heartbeater: Optional[_Heartbeater] = None
        job_comm: Comm = comm
        failed = False
        try:
            if members is not None:
                # A malformed subset raises CommError straight into the
                # typed handlers below — reported, never fatal here.  A
                # member that rejoined an instant ago may still be mid-
                # integration on this endpoint; wait briefly for its link.
                comm.wait_for_peers(members)
                job_comm = SubsetComm(comm, members, epoch=epoch)
            job_comm.begin_job(job_seq, traffic)
            job_comm.job_control = JobControl(job_seq, wake=job_comm.wake)
            reader.job_control = job_comm.job_control
            if heartbeat_interval is not None and heartbeat_interval > 0:
                heartbeater = _Heartbeater(
                    rank, job_seq, job_comm, send_msg, send_lock,
                    heartbeat_interval,
                )
            program = builder(job_comm, payload)
            result = program.run()
            report_msg = (
                "ok",
                rank,
                job_seq,
                result,
                program.stopwatch.times(),
                traffic.records,
                list(program.STAGES),
            )
            if heartbeater is not None:
                heartbeater.stop()
                heartbeater = None
            report(report_msg)
        except CommError:
            # Infrastructure: a peer died or a comm wait expired.  The
            # survivors of one crash all land here via the EOF cascade.
            failed = True
            if heartbeater is not None:
                heartbeater.stop()
                heartbeater = None
            try:
                report(("comm_error", rank, job_seq, traceback.format_exc()))
            except (OSError, TransportError):
                return
        except BaseException as exc:  # noqa: BLE001 - reported to coordinator
            failed = True
            if heartbeater is not None:
                heartbeater.stop()
                heartbeater = None
            try:
                report(("error", rank, job_seq, traceback.format_exc()))
            except (OSError, TransportError):
                return
            if isinstance(exc, SystemExit):
                # Drain escalation (second SIGTERM) or an explicit
                # in-program exit: the coordinator has its error report;
                # now really exit, with the honest nonzero status.
                raise
        finally:
            reader.job_control = None
            job_comm.job_control = None
            if heartbeater is not None:
                heartbeater.stop()
            if job_comm is not comm:
                # The subset view shares the base sockets; only its
                # private sender thread needs tearing down.  A failed
                # (or aborted) job may leave frames for its tag windows
                # in the shared mailbox — reclaim them.
                job_comm._close_async()
                _purge_job_frames(comm._mailbox, job_seq)
        if failed and not resilient:
            return
        if drain is not None and drain.requested:
            return


def _worker_main(
    rank: int,
    conns: Dict[int, socket.socket],
    extra_close: List,
    ctrl: socket.socket,
    cluster: "ProcessCluster",
    factory: Optional[ProgramFactory],
) -> None:
    """Forked worker entry point.

    A pool worker (``factory`` is ``None``) runs :func:`serve_pool_jobs`
    over its control socketpair until stopped.  A one-shot worker
    (:meth:`ProcessCluster.run`) runs ``factory``'s program once and
    reports it the way a pool reports job 0.
    """
    from repro.kvpairs.spill import SpillDir, install_spill_cleanup_handler

    # Spill hygiene: a terminated worker must still remove its per-job
    # spill dirs (SIGTERM -> SystemExit -> atexit hooks), and a fresh pool
    # (e.g. re-forked after an injected SIGKILL) reaps any spill dirs a
    # crashed predecessor left behind.
    install_spill_cleanup_handler()
    if factory is None:
        SpillDir.sweep_stale()
    # Drop inherited duplicates of other endpoints' fds.  Without this a
    # dead peer's channel never reaches EOF (our own inherited copy of its
    # socket end keeps it open), so failures would only surface via the
    # receive timeout instead of an immediate reader-thread EOF.
    for obj in extra_close:
        obj.close()
    set_send_timeout(ctrl, cluster.timeout)
    comm: Optional[_SocketComm] = None
    try:
        comm = make_socket_comm(
            rank,
            cluster.size,
            conns,
            cluster.multicast_mode,
            cluster.rate_bytes_per_s,
            cluster.timeout,
            cluster.chunk_bytes,
            cluster.record_relays,
        )
        if factory is None:
            serve_pool_jobs(
                comm,
                rank,
                lambda: recv_msg(ctrl),
                lambda msg: send_msg(ctrl, msg),
                heartbeat_interval=cluster.heartbeat_interval,
            )
            return
        try:
            program = factory(comm)
            report: Tuple = (
                "ok",
                rank,
                0,
                program.run(),
                program.stopwatch.times(),
                comm.traffic.records,
                list(program.STAGES),
            )
        except BaseException:  # noqa: BLE001 - reported to the parent
            report = ("error", rank, 0, traceback.format_exc())
        try:
            send_msg(ctrl, report)
        except (OSError, TransportError):
            pass  # the parent gave up on this run and reports why
    finally:
        if comm is not None:
            comm._close_async()
        ctrl.close()
        for s in conns.values():
            try:
                s.close()
            except OSError:
                pass


def _fork_workers(
    cluster: "ProcessCluster", factory: Optional[ProgramFactory] = None
) -> Tuple[List, List[socket.socket]]:
    """Fork ``cluster.size`` :func:`_worker_main` workers over a fresh
    socket mesh, one control socketpair each.

    Returns the processes and the parent's ends of the control channels.
    Pool workers (no ``factory``) are daemons; one-shot workers are not.
    """
    ctx = multiprocessing.get_context("fork")
    pairs = _build_mesh(cluster.size)
    procs: List = []
    ctrl: List[socket.socket] = []
    try:
        for rank in range(cluster.size):
            conns, extra_close = _mesh_endpoints(pairs, rank)
            # Earlier workers' parent-side control ends are inherited
            # too; the child drops those copies.
            extra_close.extend(ctrl)
            parent, child = socket.socketpair()
            extra_close.append(parent)
            proc = ctx.Process(
                target=_worker_main,
                args=(rank, conns, extra_close, child, cluster, factory),
                name=f"{'pool-' if factory is None else ''}worker-{rank}",
                daemon=factory is None,
            )
            try:
                proc.start()
            finally:
                child.close()
            ctrl.append(parent)
            procs.append(proc)
    except BaseException:
        _reap(procs, grace=0.0)
        for conn in ctrl:
            conn.close()
        raise
    finally:
        # The parent no longer needs the mesh fds (workers hold theirs).
        for si, sj in pairs.values():
            si.close()
            sj.close()
    return procs, ctrl


def _reap(procs: Sequence, grace: float) -> None:
    """Join workers, escalating to SIGTERM after ``grace`` s, then SIGKILL."""
    for proc in procs:
        proc.join(timeout=grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if proc.is_alive():
            # SIGTERM stays pending on a stopped (SIGSTOP) worker; only
            # SIGKILL reaps it, and teardown must never hang.
            proc.kill()
            proc.join()


def gather_job(
    backend: str,
    ctrl: Sequence[socket.socket],
    seq: int,
    monitor: JobMonitor,
    timeout: float,
    heartbeat_interval: Optional[float],
    broadcast_ctl: Callable[[int, Any], None],
) -> ClusterResult:
    """Collect job ``seq``'s per-rank reports from the control sockets.

    The one collection loop of the process and TCP pools (and the
    one-shot :meth:`ProcessCluster.run`).  Each worker sends heartbeats
    and then one ``ok`` / ``comm_error`` / ``error`` report, as
    :func:`serve_pool_jobs` does.  Heartbeats feed ``monitor``: a worker
    silent past its ``failure_timeout`` is declared dead (when
    ``heartbeat_interval`` is set), and speculation directives go out
    through ``broadcast_ctl``.  The whole collection is bounded by one
    ``timeout`` deadline, and each frame's receive by the time left, so a
    worker stopped mid-frame cannot hang the driver.

    Raises:
        WorkerFailure: a worker died, went silent, or the job timed out
            (the message names the pending ranks); see
            :func:`~repro.runtime.errors.job_failure`.
        RuntimeError: a worker's program raised; the worker's traceback
            text is included.
    """
    k = len(ctrl)
    results: List[Any] = [None] * k
    times: List[Dict[str, float]] = [dict() for _ in range(k)]
    traffic = TrafficLog()
    stages: List[str] = []
    program_errors: List[str] = []
    infra_failures: List[Tuple[int, str, str]] = []  # (rank, stage, cause)
    pending: Dict[socket.socket, int] = {
        conn: rank for rank, conn in enumerate(ctrl)
    }
    deadline = time.monotonic() + timeout
    # After the first failure, keep draining reports for a short grace
    # window: the survivors' cascade (comm_error / EOF) and — crucially —
    # any root-cause program error must be classified before raising.
    grace_deadline: Optional[float] = None
    while pending:
        now = time.monotonic()
        if now >= deadline:
            if not (program_errors or infra_failures):
                infra_failures.append((
                    -1,
                    "unknown",
                    f"job timed out after {timeout}s "
                    f"(ranks {sorted(pending.values())} pending)",
                ))
            break
        if grace_deadline is not None and now >= grace_deadline:
            break
        if heartbeat_interval:
            try:
                monitor.check_liveness(pending.values())
            except WorkerFailure as failure:
                infra_failures.append(
                    (failure.rank, failure.stage, failure.cause)
                )
                for conn, rank in list(pending.items()):
                    if rank == failure.rank:
                        del pending[conn]
        for straggler, backup in monitor.speculation_directives():
            broadcast_ctl(seq, ("speculate", straggler, backup))
        if (program_errors or infra_failures) and grace_deadline is None:
            grace_deadline = time.monotonic() + min(1.0, timeout)
        wait_for = monitor.poll_timeout(
            min(deadline, grace_deadline or deadline) - time.monotonic()
        )
        for conn in wait_readable(list(pending), wait_for):
            rank = pending[conn]
            conn.settimeout(max(1.0, deadline - time.monotonic()))
            try:
                msg = recv_msg(conn)
            except (OSError, TransportError) as exc:
                del pending[conn]
                infra_failures.append((
                    rank,
                    monitor.stage_of(rank),
                    f"worker died mid-job: {exc}",
                ))
                continue
            finally:
                conn.settimeout(None)
            if msg[0] == "hb":
                if msg[2] == seq:
                    monitor.heartbeat(msg[1], msg[3])
                continue
            del pending[conn]
            monitor.result(rank)
            if msg[0] == "comm_error":
                infra_failures.append((
                    msg[1],
                    monitor.stage_of(msg[1]),
                    f"comm failure:\n{msg[3]}",
                ))
                continue
            if msg[0] != "ok":
                program_errors.append(f"worker {msg[1]}:\n{msg[3]}")
                continue
            _, _, wseq, payload, sw_times, records, prog_stages = msg
            assert wseq == seq, f"job sequence mismatch: {wseq} != {seq}"
            results[rank] = payload
            times[rank] = sw_times
            traffic.extend(records)
            if prog_stages and not stages:
                stages = prog_stages
    if program_errors or infra_failures:
        raise _job_failure(backend, program_errors, infra_failures)
    return assemble_cluster_result(results, times, traffic, stages)


class ProcessCluster:
    """K worker processes over an AF_UNIX socket mesh.

    Args:
        size: number of workers (the paper's ``K``).
        multicast_mode: linear or binomial-tree application multicast.
        rate_bytes_per_s: per-worker egress throttle; ``12.5e6`` reproduces
            the paper's 100 Mbps setting. ``None`` disables pacing.
        timeout: overall run timeout in seconds (workers are killed past it);
            also bounds how long any single receive may wait.
        chunk_bytes: maximum raw-frame size for one user payload chunk.
        record_relays: additionally log every physical broadcast hop (kind
            ``"relay"``) to the traffic log.
        heartbeat_interval: how often pool workers report their current
            stage to the driver (seconds); feeds failure detection and
            map speculation.  ``None`` disables heartbeats.
        failure_timeout: a pool worker silent for this long mid-job is
            declared dead with a typed
            :class:`~repro.runtime.errors.WorkerFailure` — no waiting
            for the job timeout or the EOF cascade.
    """

    def __init__(
        self,
        size: int,
        multicast_mode: MulticastMode = MulticastMode.TREE,
        rate_bytes_per_s: Optional[float] = None,
        timeout: float = 300.0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        record_relays: bool = False,
        heartbeat_interval: Optional[float] = 0.5,
        failure_timeout: float = 30.0,
    ) -> None:
        if size < 1:
            raise ValueError(f"cluster size must be >= 1, got {size}")
        if os.name != "posix":  # pragma: no cover - linux-only environment
            raise RuntimeError("ProcessCluster requires a POSIX fork platform")
        self.size = size
        self.multicast_mode = multicast_mode
        self.rate_bytes_per_s = rate_bytes_per_s
        self.timeout = timeout
        self.chunk_bytes = chunk_bytes
        self.record_relays = record_relays
        self.heartbeat_interval = heartbeat_interval
        self.failure_timeout = failure_timeout

    def run(self, factory: ProgramFactory) -> ClusterResult:
        """Fork workers, run the program, gather results and traffic.

        Raises:
            RuntimeError: if any worker fails or the run outlives
                ``timeout`` (one deadline for the whole run; the message
                names the pending ranks); the worker's traceback text is
                included.
        """
        procs, ctrl = _fork_workers(self, factory)
        grace = 0.0  # a failed run stops its workers at once
        try:
            result = gather_job(
                "ProcessCluster",
                ctrl,
                0,
                JobMonitor(self.size, self.failure_timeout),
                self.timeout,
                None,
                lambda seq, payload: None,
            )
            grace = 10.0
            return result
        finally:
            for conn in ctrl:
                conn.close()
            _reap(procs, grace)

    def create_pool(self) -> "_ProcessPool":
        """A persistent worker pool over this cluster configuration.

        The pool forks the K-worker socket mesh once and runs many jobs on
        it (see :class:`_ProcessPool`); :class:`repro.session.Session` is
        the driver-facing API over it.
        """
        return _ProcessPool(self)


class _ControlPool:
    """Driver side shared by the process and TCP pools.

    Subclasses own the worker lifecycle — ``_start`` fills ``_ctrl`` with
    one control socket per rank, ``close`` tears the workers down,
    ``running`` says whether they are usable — and this class runs jobs
    over those sockets: dispatch through the
    :func:`~repro.runtime.transport.send_msg` codec, collection through
    :func:`gather_job`.  Jobs run strictly one at a time (the mesh runs
    one job at a time).
    """

    #: Backend name in job-failure messages.
    _BACKEND = "pool"

    def __init__(self, cluster: Any) -> None:
        self._cluster = cluster
        self.size = cluster.size
        self._ctrl: List[socket.socket] = []
        self._job_seq = 0

    def _broadcast_ctl(self, seq: int, payload: Any) -> None:
        """Best-effort mid-job control frame to every worker."""
        for conn in self._ctrl:
            try:
                send_msg(conn, ("ctl", seq, payload))
            except (OSError, TransportError):  # pragma: no cover - dying pool
                pass

    def run_job(self, prepared: PreparedJob) -> ClusterResult:
        """Dispatch one prepared job to every worker and gather the result.

        While collecting, worker heartbeats feed a :class:`JobMonitor`:
        a worker silent past the cluster's ``failure_timeout`` is
        declared dead immediately, and (for jobs prepared with a
        speculation config) straggling map shards get a backup launched
        on an already-finished worker via a ``("ctl", ...)`` broadcast.

        Raises:
            WorkerFailure: a worker died or went silent mid-job
                (infrastructure — the session layer may retry); the pool
                is torn down and the next job restarts it.
            RuntimeError: a worker's program raised (a genuine job bug,
                never retried) or the job timed out; the worker's
                traceback text is included.
        """
        k = self.size
        prepared.check_size(k)
        if not self.running:
            self.close()
            self._start()
        seq = self._job_seq
        self._job_seq += 1
        try:
            for rank, conn in enumerate(self._ctrl):
                send_msg(
                    conn, ("job", seq, prepared.builder, prepared.payloads[rank])
                )
        except (OSError, TransportError) as exc:
            self.close()
            raise WorkerFailure(
                -1, "dispatch", f"worker pool died while dispatching job: {exc}"
            ) from exc
        cluster = self._cluster
        try:
            return gather_job(
                self._BACKEND,
                self._ctrl,
                seq,
                JobMonitor(k, cluster.failure_timeout, prepared.speculation),
                cluster.timeout,
                cluster.heartbeat_interval,
                self._broadcast_ctl,
            )
        except RuntimeError:
            self.close()
            raise

    def __enter__(self) -> "_ControlPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _ProcessPool(_ControlPool):
    """K persistent worker processes over one long-lived socket mesh.

    Workers are forked lazily on the first job and then run
    :func:`serve_pool_jobs`' control loop: the per-job cost drops to
    one (builder, payload) message per worker plus the job itself — the
    fork + socketpair-mesh + reader-thread setup is paid once per pool,
    not once per job.

    Each worker's control channel is a plain ``socketpair`` carrying the
    :func:`~repro.runtime.transport.send_msg` codec, the same control
    plane the TCP pool speaks: result arrays come home as out-of-band
    buffers in one gathered frame and land, uncopied, in the driver's
    receive arena.

    Failure policy: any worker error, worker death, or job timeout fails
    that job with :class:`RuntimeError` and tears the workers down; the
    next job transparently re-forks a clean mesh.  A half-failed mesh may
    hold arbitrary in-flight frames, so a fresh fork is both simpler and
    strictly more robust than in-place resynchronization — and keeps the
    "session survives a failed job" contract cheap.
    """

    _BACKEND = "ProcessCluster"

    def __init__(self, cluster: ProcessCluster) -> None:
        super().__init__(cluster)
        self._procs: List = []

    @property
    def running(self) -> bool:
        return bool(self._procs) and all(p.is_alive() for p in self._procs)

    def _start(self) -> None:
        self._procs, self._ctrl = _fork_workers(self._cluster)
        for conn in self._ctrl:
            set_send_timeout(conn, self._cluster.timeout)

    def close(self) -> None:
        """Stop the workers (idempotent); a later job restarts the pool."""
        for conn in self._ctrl:
            try:
                send_msg(conn, ("stop",))
            except (OSError, TransportError):
                pass
        _reap(self._procs, grace=5.0)
        for conn in self._ctrl:
            conn.close()
        self._procs = []
        self._ctrl = []
