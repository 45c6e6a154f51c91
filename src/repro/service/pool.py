"""Driver-side worker pool that runs jobs on per-worker *subsets*.

The third pool flavor.  ``_ProcessPool`` and ``_TcpPool`` run one job at
a time across all K workers and tear the mesh down on any failure; a
:class:`ServicePool` keeps one standing TCP mesh and runs **many jobs
concurrently on disjoint subsets** of it — a K'=4 job on workers
{0,1,2,3} while another runs on {4,...}.  The pieces that make that
safe live in the runtime layer (this module only orchestrates them):

* workers build a :class:`~repro.runtime.process.SubsetComm` per job, so
  programs run in logical ranks and outputs are byte-identical with a
  dedicated K'-mesh;
* per-job tag windows keep concurrent jobs' frames collision-free;
* workers are *resilient* (``resilient=True`` in the welcome config):
  a failed job is reported and its frames reclaimed, the worker lives
  on — so one job's failure never tears its neighbors down.

Failure handling is subset-scoped.  A worker death or silence fails only
the job whose subset contains it: the pool records a typed infra
failure, broadcasts ``("ctl", seq, ("abort", ...))`` to the job's
surviving members (their abort-polling receives bail out promptly), and
finishes the job with :func:`~repro.runtime.errors.job_failure` — a
retryable :class:`~repro.runtime.errors.WorkerFailure` unless a program
error dominates.  Dead workers shrink capacity (``workers_live``); the
daemon keeps scheduling on the survivors.

**Elastic rejoin.**  The pool keeps the cluster's rendezvous listener in
its select loop after the mesh forms: a replacement ``repro worker
--join`` completes the same versioned handshake (serialized on a join
lock so concurrent joiners see consistent rosters), is assigned a free
rank — a dead rank is recycled, or the mesh grows — and receives the
live peers' standing mesh-listener addresses to dial
(:func:`~repro.runtime.tcp._join_mesh`).  Every membership change
(death *or* join) bumps the pool's **membership epoch**; job frames
carry the epoch they were planned under, so a job dispatched before a
join can never alias a recycled rank: the worker-side
:class:`~repro.runtime.process.SubsetComm` refuses members whose link
epoch is newer than the job's, and the driver-side
:class:`~repro.runtime.monitor.JobMonitor` drops feeds from newer
incarnations.  Live workers learn about the new size via a
``("roster", info)`` control frame.

Threading: one reactor thread owns every control-connection *receive*;
all sends (dispatch, aborts, speculation directives) happen under the
pool lock from whichever thread triggers them.  Completion callbacks
fire on the reactor thread with **no pool lock held**, so a daemon
callback may re-enter ``submit`` (retry) without deadlock.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.runtime.errors import WorkerFailure, job_failure
from repro.runtime.monitor import JobMonitor
from repro.runtime.program import (
    ClusterResult,
    PreparedJob,
    assemble_cluster_result,
)
from repro.runtime.tcp import (
    _HELLO,
    _MAGIC,
    PROTOCOL_VERSION,
    _TAG_HELLO,
    TcpCluster,
    _recv_msg,
    _send_msg,
)
from repro.runtime.traffic import TrafficLog
from repro.runtime.transport import (
    TransportError,
    recv_frame,
    set_send_timeout,
    wait_readable,
)

__all__ = ["ServicePool", "SubsetJob"]


class SubsetJob:
    """One in-flight job on a subset of the mesh (pool-internal record).

    ``members`` is the sorted list of *global* worker ranks; the job's
    program sees logical ranks ``0..len(members)-1`` in the same order.
    ``done`` is set exactly once, after which either ``cluster_result``
    or ``error`` is populated.
    """

    def __init__(
        self,
        seq: int,
        members: List[int],
        prepared: PreparedJob,
        failure_timeout: float,
        timeout: float,
        epoch: int = 0,
    ) -> None:
        k = len(members)
        self.seq = seq
        self.members = members
        self.prepared = prepared
        #: Membership epoch the job was planned under; shipped in the
        #: job frame and enforced both worker-side (SubsetComm) and
        #: driver-side (JobMonitor.accepts) so the job never aliases a
        #: rank recycled by a later rejoin.
        self.epoch = epoch
        self.monitor = JobMonitor(
            k, failure_timeout, prepared.speculation, epoch=epoch
        )
        self.deadline = time.monotonic() + timeout
        self.grace_deadline: Optional[float] = None
        self.results: List[Any] = [None] * k
        self.times: List[Dict[str, float]] = [dict() for _ in range(k)]
        self.traffic = TrafficLog()
        self.stages: List[str] = []
        self.program_errors: List[str] = []
        self.infra_failures: List[Tuple[int, str, str]] = []
        self.pending: Set[int] = set(members)  # global ranks yet to report
        self.error: Optional[BaseException] = None
        self.cluster_result: Optional[ClusterResult] = None
        self.done = threading.Event()

    def logical(self, global_rank: int) -> int:
        return self.members.index(global_rank)

    @property
    def failed(self) -> bool:
        return bool(self.program_errors or self.infra_failures)


class ServicePool:
    """Standing TCP mesh running concurrent jobs on disjoint subsets.

    Args:
        cluster: the mesh spec; ``resilient_workers`` is forced on (the
            whole point is that workers outlive failed jobs).
        on_done: called as ``on_done(job)`` on the reactor thread, with
            no pool lock held, once per finished :class:`SubsetJob`.
        on_idle: called (same thread, no lock) whenever workers may have
            become free — the daemon's scheduler kicks on it.
        on_join: called as ``on_join(rank, epoch)`` from the join
            thread, with no pool lock held, after a replacement worker
            is fully integrated into the mesh.
    """

    #: After a job's first failure, wait this long (bounded by the
    #: cluster timeout) for the remaining members' reports before
    #: finishing it — a root-cause program error arriving late must
    #: still dominate the classification.
    _GRACE = 2.0

    def __init__(
        self,
        cluster: TcpCluster,
        on_done: Optional[Callable[[SubsetJob], None]] = None,
        on_idle: Optional[Callable[[], None]] = None,
        on_join: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        cluster.resilient_workers = True
        self._cluster = cluster
        self._pool = cluster.create_pool()
        self._on_done = on_done
        self._on_idle = on_idle
        self._on_join = on_join
        self._lock = threading.RLock()
        self._conns: Dict[int, socket.socket] = {}
        self._busy: Dict[int, int] = {}  # global rank -> job seq
        self._dead: Set[int] = set()
        self._jobs: Dict[int, SubsetJob] = {}
        self._callback_queue: List[SubsetJob] = []
        self._seq = 0
        self._closed = False
        # -- elastic membership bookkeeping --
        #: Bumped on every membership change, death *and* join.
        self._epoch = 0
        #: Epoch at which each rank's *current* incarnation joined
        #: (0 for the initial mesh).
        self._rank_epoch: Dict[int, int] = {}
        #: Advertised mesh-listener address per live rank, handed to
        #: joiners so they can dial the standing mesh.
        self._addrs: Dict[int, Tuple[str, int]] = {}
        #: Serializes join admissions: one joiner completes its whole
        #: handshake (through READY + integration) before the next
        #: starts, so every joiner's roster includes its predecessors.
        self._join_lock = threading.Lock()
        #: Total replacement workers integrated over the pool lifetime.
        self.workers_joined = 0
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._reactor: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Rendezvous K workers (blocking, bounded by ``connect_timeout``)
        and start the reactor."""
        self._pool._start()
        with self._lock:
            self._conns = dict(enumerate(self._pool._ctrl))
            # The reactor owns these sockets now; keep the inner pool
            # from double-closing them later.
            self._pool._ctrl = []
            self._rank_epoch = {g: 0 for g in self._conns}
            self._addrs = dict(enumerate(self._pool._roster))
        # The rendezvous listener joins the reactor's select loop so
        # replacement workers can rejoin mid-flight.
        self._cluster._listener.settimeout(None)
        self._reactor = threading.Thread(
            target=self._run, daemon=True, name="service-reactor"
        )
        self._reactor.start()

    def close(self) -> None:
        """Stop workers and the reactor (idempotent).  In-flight jobs
        fail with a typed shutdown error via their done events."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            jobs = list(self._jobs.values())
            self._jobs = {}
            for job in jobs:
                job.error = WorkerFailure(
                    -1, "shutdown", "service pool closed with the job running"
                )
                job.done.set()
            for conn in self._conns.values():
                try:
                    _send_msg(conn, ("stop",))
                except (OSError, TransportError):
                    pass
                try:
                    conn.close()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
            self._conns = {}
            self._busy = {}
        self._wake()
        reactor = self._reactor
        if reactor is not None and reactor is not threading.current_thread():
            reactor.join(timeout=10.0)
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    # -- introspection ------------------------------------------------------

    @property
    def size(self) -> int:
        return self._cluster.size

    def idle_workers(self) -> List[int]:
        """Global ranks currently live and not running a job (sorted)."""
        with self._lock:
            return sorted(set(self._conns) - set(self._busy))

    def live_workers(self) -> int:
        with self._lock:
            return len(self._conns)

    @property
    def membership_epoch(self) -> int:
        """Bumps on every membership change (worker death or rejoin)."""
        with self._lock:
            return self._epoch

    # -- dispatch -----------------------------------------------------------

    def submit(
        self, members: Sequence[int], prepared: PreparedJob
    ) -> SubsetJob:
        """Dispatch ``prepared`` onto the given idle global ranks.

        Returns the job record immediately; completion is observed via
        ``job.done`` / the ``on_done`` callback.  Raises
        :class:`ValueError` if a member is busy, dead, or unknown.
        """
        members = sorted(members)
        prepared.check_size(len(members))
        dead_at_dispatch: List[int] = []
        with self._lock:
            if self._closed:
                raise RuntimeError("service pool is closed")
            for g in members:
                if g not in self._conns:
                    raise ValueError(f"worker {g} is not live")
                if g in self._busy:
                    raise ValueError(
                        f"worker {g} is busy with job {self._busy[g]}"
                    )
            seq = self._seq
            self._seq += 1
            job = SubsetJob(
                seq,
                members,
                prepared,
                self._cluster.failure_timeout,
                self._cluster.timeout,
                epoch=self._epoch,
            )
            self._jobs[seq] = job
            for logical, g in enumerate(members):
                # Busy before the send: a dispatch failure then routes
                # through _worker_died_locked with the job attributed.
                self._busy[g] = seq
                try:
                    _send_msg(
                        self._conns[g],
                        (
                            "job",
                            seq,
                            prepared.builder,
                            prepared.payloads[logical],
                            members,
                            job.epoch,
                        ),
                    )
                except (OSError, TransportError):
                    dead_at_dispatch.append(g)
            for g in dead_at_dispatch:
                self._worker_died_locked(g, "worker died at job dispatch")
        self._wake()
        return job

    # -- reactor ------------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except OSError:  # pragma: no cover - closing down
            pass

    def _run(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                socks = {conn: g for g, conn in self._conns.items()}
                jobs = list(self._jobs.values())
            timeout = 0.25
            now = time.monotonic()
            for job in jobs:
                remaining = job.deadline - now
                if job.grace_deadline is not None:
                    remaining = min(remaining, job.grace_deadline - now)
                timeout = min(timeout, job.monitor.poll_timeout(remaining))
            listener = self._cluster._listener
            wait_on = list(socks) + [self._wake_r]
            if listener.fileno() >= 0:
                wait_on.append(listener)
            readable = wait_readable(wait_on, max(0.0, timeout))
            for sock in readable:
                if sock is self._wake_r:
                    try:
                        sock.recv(4096)
                    except (BlockingIOError, OSError):
                        pass
                    continue
                if sock is listener:
                    # A replacement worker is dialing the standing
                    # rendezvous: hand the handshake to a join thread
                    # (it blocks on the joiner, the reactor must not).
                    try:
                        conn, _ = listener.accept()
                    except OSError:
                        continue  # listener closed under us
                    threading.Thread(
                        target=self._admit_join,
                        args=(conn,),
                        daemon=True,
                        name="service-join",
                    ).start()
                    continue
                g = socks[sock]
                try:
                    # settimeout is inside the guard: the conn may have
                    # been closed (death handling, shutdown) between the
                    # select snapshot and here.
                    sock.settimeout(min(30.0, self._cluster.timeout))
                    msg = _recv_msg(sock)
                except (OSError, TransportError) as exc:
                    with self._lock:
                        self._worker_died_locked(
                            g, f"worker died mid-service: {exc}"
                        )
                    continue
                finally:
                    try:
                        sock.settimeout(None)
                    except OSError:
                        pass
                self._handle(g, msg)
            self._tick()
            self._drain_callbacks()

    def _drain_callbacks(self) -> None:
        with self._lock:
            batch = self._callback_queue
            self._callback_queue = []
        for job in batch:
            if self._on_done is not None:
                self._on_done(job)
        if self._on_idle is not None:
            self._on_idle()

    def _handle(self, g: int, msg: Tuple) -> None:
        with self._lock:
            kind = msg[0]
            if kind == "hb":
                _, hb_rank, seq, stage = msg
                job = self._jobs.get(seq)
                if job is not None and hb_rank in job.pending:
                    job.monitor.heartbeat(
                        job.logical(hb_rank),
                        stage,
                        member_epoch=self._rank_epoch.get(g, 0),
                    )
                return
            if kind not in ("ok", "comm_error", "error"):
                return  # unknown frame; ignore (forward compatibility)
            seq = msg[2]
            # The report frees the worker even when its job is already
            # finished (deadline/grace force-finish leaves late members
            # busy until they actually report).
            if self._busy.get(g) == seq:
                del self._busy[g]
            job = self._jobs.get(seq)
            if job is None or g not in job.pending:
                return
            if not job.monitor.accepts(self._rank_epoch.get(g, 0)):
                return  # stale seq from a recycled rank's new incarnation
            lidx = job.logical(g)
            job.pending.discard(g)
            job.monitor.result(lidx)
            if kind == "ok":
                _, _, _, payload, sw_times, records, prog_stages = msg
                job.results[lidx] = payload
                job.times[lidx] = sw_times
                job.traffic.extend(records)
                if prog_stages and not job.stages:
                    job.stages = prog_stages
            elif kind == "comm_error":
                self._record_failure(
                    job,
                    lidx,
                    f"comm failure:\n{msg[3]}",
                    program_error=False,
                )
            else:
                self._record_failure(
                    job,
                    lidx,
                    f"worker {lidx} (global {g}):\n{msg[3]}",
                    program_error=True,
                )
            self._maybe_finish(job)

    def _record_failure(
        self, job: SubsetJob, lidx: int, detail: str, program_error: bool
    ) -> None:
        """Record one member failure; on the first, start the grace
        window and tell the job's survivors to abort."""
        first = not job.failed
        if program_error:
            job.program_errors.append(detail)
        else:
            job.infra_failures.append(
                (lidx, job.monitor.stage_of(lidx), detail)
            )
        if first:
            job.grace_deadline = time.monotonic() + min(
                self._GRACE, self._cluster.timeout
            )
            self._abort_job(job, f"member {lidx} failed")

    def _abort_job(self, job: SubsetJob, reason: str) -> None:
        """Best-effort abort directive to the job's surviving members —
        their :class:`~repro.runtime.process.SubsetComm` receives poll
        the flag and bail, so the subset unwinds in ~100ms instead of
        waiting out the receive timeout."""
        for g in list(job.pending):
            conn = self._conns.get(g)
            if conn is None:
                continue
            try:
                _send_msg(conn, ("ctl", job.seq, ("abort", reason)))
            except (OSError, TransportError):  # pragma: no cover
                pass

    def _worker_died_locked(self, g: int, cause: str) -> None:
        """Handle a worker's control-connection death (caller holds the
        lock).  Only the job whose subset contains ``g`` fails — its
        neighbors never hear about it (their mesh sockets to ``g`` would
        EOF too, but their jobs do not include ``g``, so nothing blocks
        on that source)."""
        if g in self._dead:
            return
        self._dead.add(g)
        self._epoch += 1  # membership changed: jobs planned before this
        # death must not alias a later reuse of rank g
        conn = self._conns.pop(g, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        seq = self._busy.pop(g, None)
        job = self._jobs.get(seq) if seq is not None else None
        if job is not None and g in job.pending:
            lidx = job.logical(g)
            job.pending.discard(g)
            job.monitor.result(lidx)
            self._record_failure(job, lidx, cause, program_error=False)
            self._maybe_finish(job)

    # -- elastic rejoin -----------------------------------------------------

    def _admit_join(self, conn: socket.socket) -> None:
        """Run one replacement worker's whole join handshake (thread).

        Serialized on the join lock: a joiner's roster must include
        every earlier joiner's mesh listener, so only one admission is
        in flight at a time.  Any handshake failure just drops the
        dialer; the standing mesh is never disturbed.
        """
        try:
            with self._join_lock:
                self._do_admit_join(conn)
        except (OSError, TransportError, struct.error, RuntimeError):
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _do_admit_join(self, conn: socket.socket) -> None:
        cluster = self._cluster
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(cluster.handshake_timeout)
        tag, payload = recv_frame(conn)

        def reject(reason: str) -> None:
            try:
                _send_msg(conn, ("reject", reason))
            except (OSError, TransportError):  # pragma: no cover
                pass
            conn.close()

        try:
            magic, version, want = _HELLO.unpack(bytes(payload))
        except struct.error:
            reject("malformed hello frame")
            return
        if tag != _TAG_HELLO or magic != _MAGIC:
            reject("not a codedterasort worker hello")
            return
        if version != PROTOCOL_VERSION:
            reject(
                f"protocol version mismatch: worker speaks {version}, "
                f"coordinator speaks {PROTOCOL_VERSION}"
            )
            return
        with self._lock:
            if self._closed:
                reject("service pool is closed")
                return
            if want >= 0 and want in self._conns:
                reject(
                    f"duplicate rank: {want} is live at membership epoch "
                    f"{self._rank_epoch.get(want, 0)}"
                )
                return
            if want >= 0 and want not in self._dead and want > self.size:
                reject(
                    f"rank {want} out of range for a size-{self.size} mesh"
                )
                return
            if want >= 0:
                rank = want
            elif self._dead:
                rank = min(self._dead)  # recycle the lowest dead rank
            else:
                rank = self.size  # grow the mesh by one
            self._epoch += 1
            epoch = self._epoch
            if rank >= self.size:
                self._cluster.size = rank + 1
                self._pool.size = rank + 1
            peers = {g: self._addrs[g] for g in self._conns}
            cfg = self._pool.welcome_config(rank, epoch=epoch)
        _send_msg(conn, ("welcome", cfg))
        msg = _recv_msg(conn)
        if msg[0] != "listening":
            raise RuntimeError(f"joiner sent {msg[0]!r}, expected listening")
        addr = tuple(msg[1])
        # The joiner now dials every live peer's standing mesh listener;
        # worker-side join-acceptor threads splice the links in.
        _send_msg(
            conn,
            ("roster", {"peers": peers, "epoch": epoch, "size": cfg["size"]}),
        )
        msg = _recv_msg(conn)
        if msg[0] != "ready":
            raise RuntimeError(f"joiner sent {msg[0]!r}, expected ready")
        conn.settimeout(None)
        set_send_timeout(conn, cluster.timeout)
        with self._lock:
            if self._closed:
                conn.close()
                return
            self._conns[rank] = conn
            self._dead.discard(rank)
            self._addrs[rank] = addr
            self._rank_epoch[rank] = epoch
            self.workers_joined += 1
            roster_update = {"size": self.size, "epoch": epoch, "joined": rank}
            others = [
                c for g, c in self._conns.items() if g != rank
            ]
        # Announce to live workers (they grow comm.size if needed) with
        # no lock held — a wedged worker must not stall membership.
        for other in others:
            try:
                _send_msg(other, ("roster", roster_update))
            except (OSError, TransportError):  # pragma: no cover
                pass
        if self._on_join is not None:
            self._on_join(rank, epoch)
        self._wake()  # reactor re-snapshots conns; on_idle kicks scheduler

    def _tick(self) -> None:
        now = time.monotonic()
        with self._lock:
            for job in list(self._jobs.values()):
                # Silent-worker detection (heartbeats are per-job).
                if self._cluster.heartbeat_interval:
                    pending_logical = [job.logical(g) for g in job.pending]
                    try:
                        job.monitor.check_liveness(pending_logical)
                    except WorkerFailure as failure:
                        self._worker_died_locked(
                            job.members[failure.rank],
                            f"no heartbeat: {failure.cause}",
                        )
                        if job.seq not in self._jobs:
                            continue
                for straggler, backup in (
                    job.monitor.speculation_directives()
                ):
                    for g in job.pending:
                        conn = self._conns.get(g)
                        if conn is None:
                            continue
                        try:
                            _send_msg(
                                conn,
                                (
                                    "ctl",
                                    job.seq,
                                    ("speculate", straggler, backup),
                                ),
                            )
                        except (OSError, TransportError):  # pragma: no cover
                            pass
                if job.pending and now >= job.deadline:
                    if not job.failed:
                        job.infra_failures.append((
                            -1,
                            "unknown",
                            f"job timed out after {self._cluster.timeout}s "
                            f"(members {sorted(job.pending)} pending)",
                        ))
                        self._abort_job(job, "job deadline expired")
                    self._maybe_finish(job, force=True)
                elif (
                    job.grace_deadline is not None
                    and now >= job.grace_deadline
                ):
                    self._maybe_finish(job, force=True)

    def _maybe_finish(self, job: SubsetJob, force: bool = False) -> None:
        if job.seq not in self._jobs:
            return
        if job.pending and not force:
            return
        del self._jobs[job.seq]
        # Members that never reported (force-finish) stay busy until
        # their abort/timeout report arrives and frees them in _handle.
        if job.failed:
            job.error = job_failure(
                "SortService", job.program_errors, job.infra_failures
            )
        else:
            job.cluster_result = assemble_cluster_result(
                job.results, job.times, job.traffic, job.stages
            )
        job.done.set()
        self._callback_queue.append(job)
