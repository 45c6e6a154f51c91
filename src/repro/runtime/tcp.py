"""Multi-host TCP cluster backend: real workers on real machines.

The paper's numbers were measured on a standing EC2 cluster, not forked
processes on one box.  This module is the third ``Cluster`` backend,
closing that gap: ``K`` independent *worker agents* (``repro worker
--join HOST:PORT``, typically one per machine) dial a rendezvous
coordinator over TCP, complete a versioned rank-assignment handshake, and
form the full K×K peer mesh over plain TCP sockets.  From there
everything is shared with the multiprocessing backend:
:func:`~repro.runtime.transport.send_frame` framing, the zero-copy
``sendmsg`` / ``recv_into`` data plane of
:class:`~repro.runtime.process._SocketComm`, and the
:func:`~repro.runtime.process.serve_pool_jobs` control loop — so
``Session.submit()`` works unchanged and outputs are byte-identical with
:class:`~repro.runtime.process.ProcessCluster`.

Rendezvous protocol (all control messages are length-prefixed frames on
the worker's coordinator connection; fixed-layout structs for the two
messages that must parse across versions, then the
:func:`~repro.runtime.transport.send_msg` codec)::

    worker -> coord   HELLO   magic, protocol version, requested rank (-1 = any)
    coord  -> worker  WELCOME rank, size, mesh nonce, cluster config
                      (or REJECT reason: bad magic/version, duplicate rank)
    worker -> coord   LISTENING advertised host:port of its peer listener
    coord  -> worker  ROSTER  all K advertised addresses
    (workers dial every lower rank, accept every higher; each peer link
     starts with a PEER_HELLO frame carrying the mesh nonce + dialer rank)
    worker -> coord   READY
    coord  -> worker  ("job", seq, builder, payload) ...  |  ("stop",)

Elastic rejoin (resilient pools, i.e. the sort service): the rendezvous
listener keeps accepting after the mesh forms.  A replacement worker runs
the same handshake; its ROSTER is a *dict* ``{"peers": {rank: (host,
port)}, ...}`` of the live peers' standing mesh listeners (resilient
workers keep theirs open and splice fresh links in via a join-acceptor
thread), its WELCOME carries the membership ``epoch`` it joined at, and
live workers learn the new size via a ``("roster", info)`` control frame.

Every step is bounded: the coordinator's accept/handshake reads and the
worker's connect/handshake reads all time out with errors naming the
stuck step, a version or rank conflict is rejected with a reason instead
of a hang, and a worker that dies mid-handshake surfaces as a clean
``RuntimeError`` on the driver.  After the mesh is up, peer death
detection matches the process backend exactly: a dead worker's closing
sockets EOF every peer's reader thread, the survivors' jobs fail fast,
report, and exit, and the job's :class:`~repro.session.JobHandle` carries
the error while the session object survives.

Failure policy parity with ``_ProcessPool``: any worker error or death
tears the whole pool down (a mid-shuffle mesh holds arbitrary
half-delivered frames).  The coordinator cannot re-fork remote workers,
so the *next* job re-opens the rendezvous and waits ``connect_timeout``
for K fresh (or supervisor-restarted) workers to join; run workers under
a restart loop to get the process backend's transparent-restart behavior.

Trust model: job dispatch pickles ``(builder, payload)`` to workers and
results back through the :func:`~repro.runtime.transport.send_msg`
codec (protocol 5, arrays out of band) — run this only between mutually
trusted hosts on a private network, exactly like the paper's EC2
security group (pickle grants the coordinator arbitrary code execution
on workers, which is also what lets ``Session`` ship any prepared job
unchanged).  Pickle stays on this trusted driver/worker plane: the sort
service's client port (:mod:`repro.service.protocol`) keeps its own
codec and is unaffected.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.api import DEFAULT_CHUNK_BYTES, MulticastMode
from repro.runtime.process import (
    WorkerDrain,
    _ControlPool,
    _SocketComm,
    make_socket_comm,
    serve_pool_jobs,
)
from repro.runtime.transport import (
    CTRL_TAG,
    TransportError,
    recv_frame,
    recv_msg,
    send_frame,
    send_msg,
    set_send_timeout,
    wait_readable,
)

__all__ = [
    "PROTOCOL_VERSION",
    "TcpCluster",
    "TcpClusterError",
    "TcpHandshakeError",
    "parse_address",
    "run_worker",
]

#: Bumped whenever the rendezvous protocol or the job wire format changes
#: incompatibly; coordinator and workers must match exactly.  v2: job
#: frames may carry a fifth ``members`` element (per-job worker subsets,
#: see :class:`~repro.runtime.process.SubsetComm`) — a v1 worker would
#: fail to unpack them, so the sort service requires v2 agents.  v3:
#: PEER_HELLO grew a membership-epoch field and the rendezvous accepts
#: mid-flight rejoins (elastic service pools) — a v2 worker would
#: mis-unpack the peer handshake, so the mesh requires v3 agents.  v4:
#: control messages are protocol-5 pickles with out-of-band buffers (the
#: :func:`~repro.runtime.transport.send_msg` codec) — a v3 worker would
#: unpickle the codec's header as a pickle.
PROTOCOL_VERSION = 4

_MAGIC = b"CODEDTS1"
#: HELLO: magic, protocol version, requested rank (-1 = assign any).
_HELLO = struct.Struct("<8sIi")
#: PEER_HELLO: magic, mesh nonce, dialer rank, membership epoch the
#: dialer joined at (0 for the initial rendezvous mesh).
_PEER_HELLO = struct.Struct("<8sQIQ")

#: Frame tags on control / peer-handshake links (one kind per link state,
#: so a frame of the wrong tag is a protocol error, not a misroute).
_TAG_HELLO = 1
_TAG_CTRL = CTRL_TAG
_TAG_PEER = 3


class TcpClusterError(RuntimeError):
    """Raised when the rendezvous or a worker's mesh setup fails."""


class TcpHandshakeError(TcpClusterError):
    """The coordinator rejected this worker (version/rank conflict)."""


def parse_address(address: str) -> Tuple[str, int]:
    """``"tcp://host:port"`` or ``"host:port"`` -> ``(host, port)``.

    IPv6 literals use the usual bracket form (``tcp://[::1]:4000``); the
    brackets are stripped from the returned host.
    """
    spec = address
    if spec.startswith("tcp://"):
        spec = spec[len("tcp://"):]
    host, sep, port_s = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"cluster address must be tcp://HOST:PORT, got {address!r}"
        )
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(
            f"cluster address must be tcp://HOST:PORT, got {address!r}"
        ) from None
    return host, port


# ---------------------------------------------------------------------------
# Control-plane framing: fixed structs for HELLO/PEER_HELLO, the
# send_msg / recv_msg codec after.
# ---------------------------------------------------------------------------

_send_msg = send_msg
_recv_msg = recv_msg


def _recv_ctrl(sock: socket.socket, step: str) -> Any:
    """Receive one control message, naming ``step`` in timeout/EOF errors."""
    try:
        return _recv_msg(sock)
    except (OSError, TransportError) as exc:
        raise TcpClusterError(f"{step}: {exc}") from exc


# ---------------------------------------------------------------------------
# Worker agent.
# ---------------------------------------------------------------------------


def _dial(
    host: str, port: int, connect_timeout: float
) -> socket.socket:
    """Connect with retry until ``connect_timeout`` (coordinator may start
    after the workers; ``repro worker`` should not care about ordering)."""
    deadline = time.monotonic() + connect_timeout
    last: Optional[Exception] = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TcpClusterError(
                f"could not connect to {host}:{port} within "
                f"{connect_timeout:.1f}s: {last}"
            )
        try:
            sock = socket.create_connection(
                (host, port), timeout=min(remaining, 5.0)
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            time.sleep(min(0.2, max(0.0, deadline - time.monotonic())))


def _form_mesh(
    rank: int,
    size: int,
    roster: List[Tuple[str, int]],
    listener: socket.socket,
    nonce: int,
    handshake_timeout: float,
) -> Dict[int, socket.socket]:
    """Build this rank's K-1 peer links: dial lower ranks, accept higher.

    Dial-then-accept needs no threads: every peer listener is already in
    ``listen()`` before the coordinator publishes the roster, so dials
    land in the backlog even while the target is itself still dialing.
    The nonce (minted per pool generation) keeps a stale worker of an
    earlier, torn-down mesh from splicing into this one.
    """
    peers: Dict[int, socket.socket] = {}
    for peer in range(rank):
        host, port = roster[peer]
        sock = _dial(host, port, handshake_timeout)
        sock.settimeout(handshake_timeout)
        send_frame(
            sock, _TAG_PEER, _PEER_HELLO.pack(_MAGIC, nonce, rank, 0)
        )
        peers[peer] = sock
    listener.settimeout(handshake_timeout)
    while len(peers) < size - 1:
        try:
            sock, _ = listener.accept()
        except socket.timeout:
            missing = sorted(set(range(size)) - set(peers) - {rank})
            raise TcpClusterError(
                f"rank {rank}: peers {missing} did not dial in within "
                f"{handshake_timeout:.1f}s"
            ) from None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(handshake_timeout)
        try:
            tag, payload = recv_frame(sock)
            magic, got_nonce, peer, _epoch = _PEER_HELLO.unpack(bytes(payload))
            if tag != _TAG_PEER or magic != _MAGIC or got_nonce != nonce:
                raise TransportError("peer hello mismatch")
        except (OSError, TransportError, struct.error):
            sock.close()  # stray/stale connection; keep waiting for peers
            continue
        if peer in peers or not rank < peer < size:
            sock.close()
            continue
        peers[peer] = sock
    for sock in peers.values():
        sock.settimeout(None)
    return peers


def _join_mesh(
    rank: int,
    peer_addrs: Dict[int, Tuple[str, int]],
    nonce: int,
    epoch: int,
    handshake_timeout: float,
) -> Dict[int, socket.socket]:
    """Mid-flight join: dial every live peer's standing mesh listener.

    Unlike :func:`_form_mesh`, a joiner dials *everyone* — resilient
    workers keep their peer listeners open after the initial mesh forms
    (see :func:`_serve_mesh_joins`), so no accept side is needed here.
    The PEER_HELLO carries the membership epoch the coordinator assigned
    this incarnation, letting peers stamp the link for the recycled-rank
    guard in :class:`~repro.runtime.process.SubsetComm`.
    """
    peers: Dict[int, socket.socket] = {}
    try:
        for peer, (host, port) in sorted(peer_addrs.items()):
            if peer == rank:
                continue
            sock = _dial(host, port, handshake_timeout)
            sock.settimeout(handshake_timeout)
            send_frame(
                sock, _TAG_PEER, _PEER_HELLO.pack(_MAGIC, nonce, rank, epoch)
            )
            sock.settimeout(None)
            peers[peer] = sock
    except BaseException:
        for sock in peers.values():
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        raise
    return peers


def _serve_mesh_joins(
    listener: socket.socket,
    comm: _SocketComm,
    nonce: int,
    handshake_timeout: float,
    say,
) -> None:
    """Accept replacement peers on the standing mesh listener (thread).

    Resilient workers run this after mesh-up: a rejoining worker dials
    every live peer (see :func:`_join_mesh`), and this loop validates its
    nonce-guarded PEER_HELLO and splices the fresh link into the live
    comm via :meth:`~repro.runtime.process._SocketComm.add_peer` — the
    epoch in the hello stamps the link so jobs planned before the join
    refuse the recycled rank.  Exits when the listener closes.
    """
    while True:
        try:
            sock, _ = listener.accept()
        except OSError:
            return  # listener closed: worker shutting down
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(handshake_timeout)
            tag, payload = recv_frame(sock)
            magic, got_nonce, peer, epoch = _PEER_HELLO.unpack(bytes(payload))
            if tag != _TAG_PEER or magic != _MAGIC or got_nonce != nonce:
                raise TransportError("peer hello mismatch")
        except (OSError, TransportError, struct.error):
            try:
                sock.close()  # stray/stale dialer; keep accepting
            except OSError:  # pragma: no cover
                pass
            continue
        if peer == comm.rank:
            sock.close()
            continue
        sock.settimeout(None)
        comm.add_peer(peer, sock, epoch=epoch)
        say(f"peer {peer} rejoined the mesh (epoch {epoch})")


def run_worker(
    join: str,
    rank: Optional[int] = None,
    advertise: Optional[str] = None,
    connect_timeout: float = 30.0,
    handshake_timeout: float = 30.0,
    quiet: bool = False,
) -> int:
    """One worker agent: rendezvous, mesh up, serve jobs until stopped.

    Args:
        join: coordinator address, ``tcp://HOST:PORT`` or ``HOST:PORT``.
        rank: request this specific rank (the coordinator rejects
            duplicates); ``None`` takes the lowest free one.
        advertise: hostname/IP peers should dial for this worker's mesh
            listener; defaults to the local address of the coordinator
            connection (right whenever peers share the coordinator's
            network path).
        connect_timeout: how long to keep retrying the coordinator dial.
        handshake_timeout: per-step bound for rendezvous and mesh setup.

    Returns:
        0 after a clean ``stop`` / coordinator shutdown.

    Raises:
        TcpHandshakeError: the coordinator rejected this worker.
        TcpClusterError: a rendezvous/mesh step failed or timed out.
    """
    host, port = parse_address(join)

    def say(msg: str) -> None:
        if not quiet:
            print(f"[worker] {msg}", flush=True)

    # Spill hygiene: remove any spill dirs a SIGKILLed predecessor on
    # this host leaked, and arrange for our own to be removed even if the
    # supervisor stops us with SIGTERM mid-job.
    from repro.kvpairs.spill import SpillDir, install_spill_cleanup_handler

    install_spill_cleanup_handler()
    for stale in SpillDir.sweep_stale():
        say(f"reaped stale spill dir {stale}")

    # Graceful drain: the first SIGTERM lets an in-flight job finish and
    # report before the agent exits (a mid-shuffle death would cascade
    # WorkerFailure across the whole subset); a second SIGTERM means the
    # supervisor is serious — exit now (SystemExit still runs the spill
    # cleanup atexit hooks installed above).
    drain = WorkerDrain()
    prev_sigterm = None

    def _on_sigterm(signum, frame):
        if drain.requested:
            raise SystemExit(128 + signum)
        say("SIGTERM: draining (finishing in-flight job, then exiting)")
        drain.trigger()

    try:
        prev_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        drain = None

    ctrl = _dial(host, port, connect_timeout)
    listener: Optional[socket.socket] = None
    comm: Optional[_SocketComm] = None
    peers: Dict[int, socket.socket] = {}
    try:
        ctrl.settimeout(handshake_timeout)
        send_frame(
            ctrl,
            _TAG_HELLO,
            _HELLO.pack(_MAGIC, PROTOCOL_VERSION, -1 if rank is None else rank),
        )
        msg = _recv_ctrl(ctrl, "waiting for rank assignment")
        if msg[0] == "reject":
            raise TcpHandshakeError(f"coordinator rejected worker: {msg[1]}")
        if msg[0] != "welcome":
            raise TcpClusterError(f"unexpected rendezvous message {msg[0]!r}")
        cfg = msg[1]
        my_rank, size, nonce = cfg["rank"], cfg["size"], cfg["nonce"]
        say(f"joined {host}:{port} as rank {my_rank}/{size}")

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("", 0))
        listener.listen(size + 4)
        adv_host = advertise or ctrl.getsockname()[0]
        _send_msg(
            ctrl, ("listening", (adv_host, listener.getsockname()[1]))
        )
        msg = _recv_ctrl(ctrl, "waiting for the peer roster")
        if msg[0] != "roster":
            raise TcpClusterError(f"unexpected rendezvous message {msg[0]!r}")
        roster = msg[1]
        my_epoch = int(cfg.get("epoch", 0))
        resilient = bool(cfg.get("resilient", False))
        if isinstance(roster, dict):
            # Mid-flight join: the coordinator sent the live peers'
            # standing listener addresses instead of the dense initial
            # roster — dial them all (no accept side; see _join_mesh).
            peers = _join_mesh(
                my_rank,
                {int(g): tuple(a) for g, a in roster["peers"].items()},
                nonce,
                my_epoch,
                handshake_timeout,
            )
        else:
            peers = _form_mesh(
                my_rank, size, roster, listener, nonce, handshake_timeout
            )
        if not resilient:
            listener.close()
            listener = None

        comm = make_socket_comm(
            my_rank,
            size,
            peers,
            MulticastMode(cfg["multicast_mode"]),
            cfg["rate_bytes_per_s"],
            cfg["timeout"],
            cfg["chunk_bytes"],
            cfg["record_relays"],
        )
        if resilient:
            # Elastic pools: keep the mesh listener open so replacement
            # workers can splice in later; a daemon thread validates and
            # integrates their nonce-guarded peer hellos.
            listener.settimeout(None)
            threading.Thread(
                target=_serve_mesh_joins,
                args=(listener, comm, nonce, handshake_timeout, say),
                name=f"mesh-joins-{my_rank}",
                daemon=True,
            ).start()
        _send_msg(ctrl, ("ready",))
        ctrl.settimeout(None)
        set_send_timeout(ctrl, cfg["timeout"])
        say("mesh up, serving jobs")
        serve_pool_jobs(
            comm,
            my_rank,
            lambda: _recv_msg(ctrl),
            lambda msg: _send_msg(ctrl, msg),
            heartbeat_interval=cfg.get("heartbeat_interval", 0.5),
            resilient=bool(cfg.get("resilient", False)),
            drain=drain,
        )
        say("drained" if drain is not None and drain.requested else "stopped")
        return 0
    finally:
        if prev_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, prev_sigterm)
            except ValueError:  # pragma: no cover
                pass
        if comm is not None:
            comm._close_async()
        for sock in ([ctrl] + list(peers.values())) + (
            [listener] if listener is not None else []
        ):
            try:
                sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


# ---------------------------------------------------------------------------
# Coordinator side: the cluster spec and its pool.
# ---------------------------------------------------------------------------


class TcpCluster:
    """K worker agents on real hosts over a TCP mesh (rendezvous owner).

    Constructing the cluster binds the rendezvous listener immediately
    (so ``address`` is known even with port 0) and keeps it open across
    pool generations — workers may dial in before or after the driver
    starts, and replacement workers can rejoin after a failure.

    Drop-in third backend: anything that takes a
    :class:`~repro.runtime.process.ProcessCluster` /
    :class:`~repro.runtime.inproc.ThreadCluster` — ``Session``, the
    ``run_*`` one-shot shims, the CLI — accepts a ``TcpCluster``
    unchanged, and outputs are byte-identical across the three.

    Args:
        size: number of workers (the paper's ``K``).
        address: ``tcp://HOST:PORT`` (or ``HOST:PORT``) to listen on;
            port 0 picks an ephemeral port (see :attr:`address`).
        multicast_mode: linear or binomial-tree application multicast.
        rate_bytes_per_s: per-worker egress throttle, shipped to workers
            at rendezvous; ``12.5e6`` reproduces the paper's 100 Mbps.
        timeout: per-job bound — receives on workers and result
            collection on the coordinator both give up past it.
        chunk_bytes: maximum raw-frame size for one user payload chunk.
        record_relays: additionally log physical broadcast hops.
        connect_timeout: how long a pool start waits for K workers.
        handshake_timeout: per-step bound for rendezvous reads.
        heartbeat_interval: how often workers report their current stage
            on the control connection (shipped in the welcome config);
            feeds failure detection and map speculation.  ``None``
            disables heartbeats.
        failure_timeout: a worker silent for this long mid-job is
            declared dead with a typed
            :class:`~repro.runtime.errors.WorkerFailure`.
        resilient_workers: shipped in the welcome config — workers
            survive a failed job (report, reclaim its frames, serve the
            next) instead of exiting to force a clean re-rendezvous.
            The sort service turns this on; the one-job-at-a-time pool
            path keeps the teardown-and-rejoin policy.
    """

    def __init__(
        self,
        size: int,
        address: str = "tcp://127.0.0.1:0",
        multicast_mode: MulticastMode = MulticastMode.TREE,
        rate_bytes_per_s: Optional[float] = None,
        timeout: float = 300.0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        record_relays: bool = False,
        connect_timeout: float = 30.0,
        handshake_timeout: float = 30.0,
        heartbeat_interval: Optional[float] = 0.5,
        failure_timeout: float = 30.0,
        resilient_workers: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError(f"cluster size must be >= 1, got {size}")
        self.size = size
        self.multicast_mode = multicast_mode
        self.rate_bytes_per_s = rate_bytes_per_s
        self.timeout = timeout
        self.chunk_bytes = chunk_bytes
        self.record_relays = record_relays
        self.connect_timeout = connect_timeout
        self.handshake_timeout = handshake_timeout
        self.heartbeat_interval = heartbeat_interval
        self.failure_timeout = failure_timeout
        self.resilient_workers = resilient_workers
        host, port = parse_address(address)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
        except OSError as exc:
            self._listener.close()
            raise TcpClusterError(
                f"cannot listen on {host}:{port}: {exc}"
            ) from exc
        self._listener.listen(size + 8)
        self.host = host
        self.port = self._listener.getsockname()[1]

    @property
    def address(self) -> str:
        """The bound rendezvous address workers should ``--join``."""
        return f"tcp://{self.host}:{self.port}"

    def create_pool(self) -> "_TcpPool":
        """A persistent worker pool over this rendezvous (see
        :class:`_TcpPool`); :class:`repro.session.Session` is the
        driver-facing API over it."""
        return _TcpPool(self)

    def close(self) -> None:
        """Close the rendezvous listener (idempotent).  Pools already
        running keep their established connections; no new pool can
        start."""
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass

    def __enter__(self) -> "TcpCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TcpCluster(size={self.size}, address={self.address!r})"


class _TcpPool(_ControlPool):
    """K rendezvoused TCP workers serving jobs over control connections.

    The driver-side twin of
    :class:`~repro.runtime.process._ProcessPool`, with the fork replaced
    by the rendezvous: ``_start`` admits K workers (handshake, roster,
    mesh, ready), then the shared ``run_job`` ships one ``(builder,
    payload)`` message per worker and gathers per-rank
    results/times/traffic with the process pool's loop.  Failure policy
    matches the process pool — any worker error/death fails the job and
    tears the pool down — except that the next job *waits for workers to
    rejoin* the standing rendezvous instead of re-forking them.
    """

    _BACKEND = "TcpCluster"

    def __init__(self, cluster: TcpCluster) -> None:
        super().__init__(cluster)
        self._nonce = 0
        #: Advertised mesh-listener addresses, by rank, of the current
        #: generation — kept so an elastic ServicePool can hand a
        #: rejoining worker the live peers' addresses (see
        #: :meth:`repro.service.pool.ServicePool._admit_join`).
        self._roster: List[Tuple[str, int]] = []

    @property
    def running(self) -> bool:
        """True while K workers hold quiet control connections.

        Between jobs a healthy control socket has nothing to say, so any
        readable one means EOF (worker died idle) or protocol garbage —
        either way the mesh is unusable and the next job re-rendezvouses.
        """
        if len(self._ctrl) != self.size:
            return False
        return not wait_readable(self._ctrl, 0.0)

    # -- rendezvous ---------------------------------------------------------

    def _start(self) -> None:
        """Admit K workers: handshake each, publish the roster, await
        readiness.  Raises :class:`TcpClusterError` naming the stuck or
        dead rank on any timeout/EOF."""
        k = self.size
        cluster = self._cluster
        self._nonce = int.from_bytes(os.urandom(8), "little")
        deadline = time.monotonic() + cluster.connect_timeout
        ranks: Dict[int, socket.socket] = {}
        try:
            while len(ranks) < k:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TcpClusterError(
                        f"timed out waiting for workers: {len(ranks)}/{k} "
                        f"joined within {cluster.connect_timeout:.1f}s "
                        f"(start the rest with `repro worker --join "
                        f"{cluster.address}`)"
                    )
                cluster._listener.settimeout(remaining)
                try:
                    conn, _ = cluster._listener.accept()
                except socket.timeout:
                    continue
                except OSError as exc:
                    raise TcpClusterError(
                        f"rendezvous listener failed: {exc}"
                    ) from exc
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(cluster.handshake_timeout)
                rank = self._admit(conn, ranks)
                if rank is not None:
                    ranks[rank] = conn
            ctrl = [ranks[rank] for rank in range(k)]
            roster: List[Tuple[str, int]] = []
            for rank, conn in enumerate(ctrl):
                msg = _recv_ctrl(
                    conn, f"worker {rank} died before announcing its "
                    f"peer listener"
                )
                if msg[0] != "listening":
                    raise TcpClusterError(
                        f"worker {rank}: unexpected message {msg[0]!r}"
                    )
                roster.append(tuple(msg[1]))
            self._roster = roster
            for conn in ctrl:
                _send_msg(conn, ("roster", roster))
            for rank, conn in enumerate(ctrl):
                msg = _recv_ctrl(
                    conn, f"worker {rank} died during mesh formation"
                )
                if msg[0] != "ready":
                    raise TcpClusterError(
                        f"worker {rank}: unexpected message {msg[0]!r}"
                    )
                conn.settimeout(None)
                set_send_timeout(conn, cluster.timeout)
        except BaseException:
            for conn in ranks.values():
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
            raise
        self._ctrl = ctrl

    def _admit(
        self, conn: socket.socket, ranks: Dict[int, socket.socket]
    ) -> Optional[int]:
        """Handshake one dialer; assign its rank or reject-and-drop.

        Rejections (bad magic/version, duplicate or out-of-range rank)
        answer with the reason so the worker can exit with a clean error;
        the rendezvous itself keeps waiting for valid workers.  A dialer
        that dies mid-hello is dropped silently (stale backlog entry).
        """
        cluster = self._cluster
        try:
            tag, payload = recv_frame(conn)
        except (OSError, TransportError):
            conn.close()
            return None

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
            return None
        if tag != _TAG_HELLO or magic != _MAGIC:
            reject("not a codedterasort worker hello")
            return None
        if version != PROTOCOL_VERSION:
            reject(
                f"protocol version mismatch: worker speaks {version}, "
                f"coordinator speaks {PROTOCOL_VERSION}"
            )
            return None
        if want < 0:
            rank = min(set(range(self.size)) - set(ranks))
        elif want >= self.size:
            reject(f"rank {want} out of range for a size-{self.size} cluster")
            return None
        elif want in ranks:
            reject(f"duplicate rank: {want} is already taken")
            return None
        else:
            rank = want
        try:
            _send_msg(conn, ("welcome", self.welcome_config(rank)))
        except (OSError, TransportError):
            conn.close()
            return None
        return rank

    def welcome_config(self, rank: int, **extra: Any) -> Dict[str, Any]:
        """The WELCOME config dict for ``rank`` (plus ``extra`` keys).

        New keys ride the config dict, so older workers (which ``.get``
        with defaults) stay compatible — no PROTOCOL_VERSION bump is
        needed for additions.  The elastic join path adds ``epoch``.
        """
        cluster = self._cluster
        cfg: Dict[str, Any] = {
            "rank": rank,
            "size": self.size,
            "nonce": self._nonce,
            "multicast_mode": cluster.multicast_mode.value,
            "rate_bytes_per_s": cluster.rate_bytes_per_s,
            "timeout": cluster.timeout,
            "chunk_bytes": cluster.chunk_bytes,
            "record_relays": cluster.record_relays,
            "heartbeat_interval": cluster.heartbeat_interval,
            "resilient": cluster.resilient_workers,
        }
        cfg.update(extra)
        return cfg

    def close(self) -> None:
        """Stop the workers (idempotent); a later job re-rendezvouses.

        Closing the control connections also EOFs workers blocked on
        their job loop; their exits cascade through the mesh, so no
        remote process lingers past its receive timeout.
        """
        for conn in self._ctrl:
            try:
                _send_msg(conn, ("stop",))
            except (OSError, TransportError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        self._ctrl = []
