"""Node programs, the cluster-result container, and the pipelined shuffle.

A :class:`NodeProgram` is the unit both sort algorithms are written as: a
class instantiated once per node with a :class:`~repro.runtime.api.Comm`
endpoint, whose :meth:`run` method walks the algorithm's stages.  The same
program runs unmodified on the threaded backend (functional tests, byte
accounting) and the multiprocessing backend (real parallel execution) —
mirroring how the paper's single MPI program runs on any cluster size.

:func:`pipelined_multicast_shuffle` is the shared non-blocking shuffle
engine (the §VI "asynchronous execution" future work made concrete): it
posts every receive up front via ``ibcast``, walks a round schedule posting
sends (encoding each packet lazily, right before its first send), and
decodes every multicast group as soon as its packets arrive — overlapping
the Encode / Shuffle / Decode stages instead of barrier-separating them.
The rounds *order* transmissions (node-disjoint groups are posted
adjacently, which keeps concurrent transfers largely conflict-free) but
are deliberately not synchronized at runtime: there is no inter-round
barrier, so a fast node may run ahead — that asynchrony is the point.
The strictly round-synchronized execution model (a barrier after every
round) lives in the simulator (``schedule="rounds"``) and in
:meth:`~repro.sim.costmodel.EC2CostModel.parallel_multicast_shuffle_time`,
which serve as its idealized upper- and lower-envelope predictions.

Stage attribution under overlap: encode and decode work performed inside
the shuffle loop is still charged to the ``encode`` / ``decode`` stages
(compute attribution), and the ``shuffle`` stage is charged the *remaining*
span — communication plus waiting.  The per-stage numbers therefore stay
exclusive (they sum to wall-clock time, like the serial tables), while the
engine additionally reports the full overlapped shuffle span so the
pipelining gain stays visible (``span`` = exclusive shuffle time plus the
encode/decode work performed inside the loop).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.api import BufferParts, Comm, Request, wait_all
from repro.runtime.traffic import TrafficLog
from repro.testing import faults
from repro.utils.timer import StageTimes, Stopwatch


class NodeProgram(ABC):
    """Base class for per-node distributed programs.

    Subclasses implement :meth:`run`, using ``self.comm`` for communication
    and ``self.stopwatch`` (via ``self.stage(name)``) for per-stage timing.
    """

    #: Ordered stage names, used to merge breakdowns; subclasses override.
    STAGES: List[str] = []

    def __init__(self, comm: Comm) -> None:
        self.comm = comm
        self.rank = comm.rank
        self.size = comm.size
        self.stopwatch = Stopwatch()
        # Injected-slowdown pacers for the currently open stage scopes
        # (see repro.testing.faults); empty unless a fault plan matched.
        self._fault_pacers: List[faults.Pacer] = []

    def stage(self, name: str) -> "_StageScope":
        """Enter stage ``name``: times it and attributes traffic to it.

        Scopes nest: on exit the previous traffic-attribution stage is
        restored, so a pipelined engine can charge a slice of work inside
        one stage's span to another stage (overlapped execution).
        """
        return _StageScope(self, name)

    def fault_checkpoint(
        self, poll: Optional[Callable[[], bool]] = None
    ) -> bool:
        """Apply any injected stage slowdown at a work-window boundary.

        Programs with windowed inner loops (e.g. the speculative map) call
        this per window so an injected ``stage.slow`` fault stretches the
        stage *incrementally* — letting a straggler be observed (and
        preempted) mid-stage rather than sleeping the whole delay at once.
        No-op unless a fault plan installed a pacer for an open stage.

        ``poll``: optional abandon-check; the injected sleep runs in
        short slices and the method returns ``True`` (dropping whatever
        delay remains) as soon as the check fires — so a preemptible
        program can be preempted mid-slowdown too.
        """
        for pacer in self._fault_pacers:
            if pacer.checkpoint(poll):
                return True
        return False

    @abstractmethod
    def run(self) -> Any:
        """Execute the node's share of the computation; return its result."""


class _StageScope:
    """Times a stage (via the stopwatch) and restores the previous traffic
    stage on exit."""

    __slots__ = ("_program", "_name", "_prev", "_timer", "_pacer")

    def __init__(self, program: NodeProgram, name: str) -> None:
        self._program = program
        self._name = name
        self._prev = ""
        self._timer = None
        self._pacer = None

    def __enter__(self) -> "_StageScope":
        comm = self._program.comm
        self._prev = comm.stage
        comm.set_stage(self._name)
        self._timer = self._program.stopwatch.stage(self._name).__enter__()
        # Stage-entry fault point: crash/delay fire here (inside the timer,
        # so injected latency is attributed to this stage); a slowdown
        # installs a pacer driven by fault_checkpoint() and stage exit.
        self._pacer = faults.stage_enter(
            comm.rank, self._name, getattr(comm, "_job_seq", 0)
        )
        if self._pacer is not None:
            self._program._fault_pacers.append(self._pacer)
        return self

    def __exit__(self, *exc) -> None:
        if self._pacer is not None:
            self._program._fault_pacers.remove(self._pacer)
            if exc[0] is None:
                self._pacer.checkpoint()
        self._timer.__exit__(*exc)
        self._program.comm.set_stage(self._prev)

    @property
    def elapsed(self) -> float:
        """Full span of the scope (valid after exit)."""
        return self._timer.elapsed

    @property
    def exclusive(self) -> float:
        """Span minus nested scopes — what the stage was charged."""
        return self._timer.exclusive


#: A factory building the program for one node given its Comm endpoint.
ProgramFactory = Callable[[Comm], NodeProgram]


class JobControl:
    """Worker-side mailbox for mid-job driver control messages.

    The pool control loop installs one per job as ``comm.job_control``;
    the worker's control-channel reader thread delivers driver payloads
    into it while the program runs.  Two messages exist today: the
    speculation directive ``("speculate", straggler, backup)`` (run a
    backup copy of ``straggler``'s map shard on rank ``backup``) and the
    abort directive ``("abort", reason)`` — the service coordinator's
    way of unblocking the surviving members of a subset job it has
    already failed (their receives poll :meth:`abort_reason` and bail
    out instead of waiting the full receive timeout).

    Programs poll the accessors between work windows — all methods are
    lock-protected and non-blocking.  ``wake`` (the endpoint's
    :meth:`~repro.runtime.api.Comm.wake`) runs after every delivery, so a
    program blocked in ``wait_any`` re-tests at once.  One-shot runs and
    the thread backend have no control channel (``comm.job_control is
    None``) and programs must degrade to plain execution.
    """

    def __init__(
        self, job_seq: int, wake: Optional[Callable[[], None]] = None
    ) -> None:
        self.job_seq = job_seq
        self._lock = threading.Lock()
        self._speculations: List[Tuple[int, int]] = []
        self._abort_reason: Optional[str] = None
        self._wake = wake

    def deliver(self, payload: Any) -> None:
        """Called from the control reader thread with one driver message."""
        if (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == "speculate"
        ):
            with self._lock:
                self._speculations.append((int(payload[1]), int(payload[2])))
        elif (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "abort"
        ):
            with self._lock:
                if self._abort_reason is None:
                    self._abort_reason = str(payload[1])
        else:
            return
        if self._wake is not None:
            self._wake()

    def abort_reason(self) -> Optional[str]:
        """Why the coordinator aborted this job, or ``None`` while live."""
        with self._lock:
            return self._abort_reason

    def backup_for(self, rank: int) -> Optional[int]:
        """The rank running a backup of ``rank``'s map shard, if any."""
        with self._lock:
            for straggler, backup in self._speculations:
                if straggler == rank:
                    return backup
        return None

    def backup_duty(self, rank: int) -> Optional[int]:
        """The straggler shard ``rank`` was asked to back up, if any."""
        with self._lock:
            for straggler, backup in self._speculations:
                if backup == rank:
                    return straggler
        return None


@dataclass
class PreparedJob:
    """One job compiled for a session worker pool.

    The coordinator-side half of a :class:`~repro.session.JobSpec`: the
    driver does all global preparation (partitioner, placement) once, then
    the pool ships ``builder`` + ``payloads[rank]`` to each worker.

    Attributes:
        builder: ``(comm, payload) -> NodeProgram`` constructing rank's
            program.  Must be a *module-level* callable — the process pool
            pickles it by reference to workers forked before the job
            existed (closures would not survive the pipe).
        payloads: one picklable per-rank payload, ``len(payloads) == K``.
        finalize: coordinator-side mapping from the pool's
            :class:`ClusterResult` to the driver-facing result object
            (e.g. a ``SortRun``); may be a closure.
        speculation: when set, the pool's driver loop watches per-stage
            heartbeats and may launch a backup copy of a straggling
            shard; a dict like ``{"stage": "map", "wait_factor": 1.5,
            "min_wait": 0.2}``.  ``None`` disables speculation.
    """

    builder: Callable[[Comm, Any], NodeProgram]
    payloads: List[Any]
    finalize: Callable[["ClusterResult"], Any]
    speculation: Optional[Dict[str, Any]] = None

    def check_size(self, size: int) -> None:
        """Raise :class:`ValueError` unless compiled for ``size`` ranks."""
        if len(self.payloads) != size:
            raise ValueError(
                f"prepared job has {len(self.payloads)} payloads "
                f"for a size-{size} pool"
            )


def execute_multicast_shuffle(
    program: NodeProgram,
    groups: Sequence[Sequence[int]],
    my_groups: Sequence[int],
    schedule: str,
    turns: Sequence[Tuple[int, int]],
    rounds: Optional[Sequence[Sequence[Tuple[int, int]]]],
    tag_base: int,
    encode: Callable[[int], BufferParts],
    recover: Callable[[int, Dict[int, bytes]], Any],
) -> Tuple[Dict[int, Any], Dict[str, float]]:
    """Run the Encode / Shuffle / Decode block under either schedule.

    The one place both coded programs (CodedTeraSort, Coded MapReduce)
    share their schedule plumbing: ``"serial"`` encodes every packet up
    front, walks :func:`serial_multicast_shuffle`, then decodes; while
    ``"parallel"`` hands the same ``encode`` / ``recover`` callbacks to
    :func:`pipelined_multicast_shuffle` (which overlaps the three stages)
    and records the overlapped span as the ``shuffle_span`` pseudo-stage.

    Args:
        schedule: ``"serial"`` or ``"parallel"`` (validated by callers).
        turns: the serial Fig. 9(b) turn list (``CodingPlan.schedule``).
        rounds: the parallel round schedule; required iff ``schedule ==
            "parallel"``.
        encode / recover: packet producer / group consumer, charged to the
            ``encode`` / ``decode`` stages by both paths.  ``encode`` may
            return one buffer or a gather list of buffer parts (sent
            zero-copy); ``recover`` receives raw packets as zero-copy
            arena views and must not retain them past the call.

    Returns:
        ``(decoded, telemetry)``: ``group_idx -> recover(...)`` result for
        every group of this rank, plus the pipelined engine's span
        telemetry (empty dict for the serial path).
    """
    decoded: Dict[int, Any] = {}
    if schedule == "serial":
        with program.stage("encode"):
            packets_out = {gidx: encode(gidx) for gidx in my_groups}
        with program.stage("shuffle"):
            received = serial_multicast_shuffle(
                program, groups, my_groups, turns, tag_base, packets_out
            )
        with program.stage("decode"):
            for gidx in my_groups:
                decoded[gidx] = recover(gidx, received[gidx])
        return decoded, {}
    assert rounds is not None

    def consume(gidx: int, payloads: Dict[int, bytes]) -> None:
        decoded[gidx] = recover(gidx, payloads)

    telemetry = pipelined_multicast_shuffle(
        program, groups, my_groups, rounds, tag_base, encode, consume
    )
    # Pseudo-stage (not in STAGES): carries the overlapped span to the
    # driver without touching the merged stage table.
    program.stopwatch.add("shuffle_span", telemetry["span"])
    return decoded, telemetry


def serial_multicast_shuffle(
    program: NodeProgram,
    groups: Sequence[Sequence[int]],
    my_groups: Sequence[int],
    schedule: Sequence[Tuple[int, int]],
    tag_base: int,
    packets_out: Dict[int, bytes],
) -> Dict[int, Dict[int, bytes]]:
    """Run the paper's serial multicast shuffle (Fig. 9(b)).

    One ``(group, sender)`` turn at a time: the cluster barrier after each
    turn hands the fabric from turn to turn, so no two multicasts ever
    overlap — the serialized regime whose wall-clock the paper's tables
    report.  Callers wrap this in their ``shuffle`` stage.

    Returns:
        ``group_idx -> {sender: raw packet}`` for every inbound packet.
    """
    rank = program.rank
    received: Dict[int, Dict[int, bytes]] = {g: {} for g in my_groups}
    for gidx, sender in schedule:
        group = groups[gidx]
        if rank in group:
            tag = tag_base + gidx
            if sender == rank:
                program.comm.bcast(group, rank, tag, packets_out[gidx])
            else:
                # copy=False: the raw packet stays a view into the receive
                # arena; decoding reads it without ever materializing bytes.
                received[gidx][sender] = program.comm.bcast(
                    group, sender, tag, copy=False
                )
        program.comm.barrier()
    return received


def pipelined_multicast_shuffle(
    program: NodeProgram,
    groups: Sequence[Sequence[int]],
    my_groups: Sequence[int],
    rounds: Sequence[Sequence[Tuple[int, int]]],
    tag_base: int,
    encode: Callable[[int], BufferParts],
    decode: Callable[[int, Dict[int, bytes]], None],
) -> Dict[str, float]:
    """Run the multicast shuffle as a non-blocking pipeline.

    Args:
        program: the calling node program (supplies comm + stopwatch).
        groups: all multicast groups (``CodingPlan.groups``).
        my_groups: group indices this rank belongs to.
        rounds: the transmission schedule as rounds of ``(group_idx,
            sender)`` turns (``CodingPlan.rounds_for(...)``); each turn must
            appear exactly once across all rounds.  Rounds fix the posting
            order only — no barrier separates them at runtime.
        tag_base: user tag base; each ``(group, sender)`` turn gets the
            distinct tag ``tag_base + group_idx * size + sender`` (all
            turns are in flight concurrently, and concurrent broadcasts
            must not share a ``(group, tag)`` pair).
        encode: ``group_idx -> wire payload`` for packets this rank sends;
            invoked lazily, right before the packet's send is posted, and
            charged to the ``encode`` stage.
        decode: ``(group_idx, {sender: payload})`` consumer; invoked as
            soon as all of a group's packets have arrived (eagerly between
            rounds, deterministically ordered during the final drain) and
            charged to the ``decode`` stage.

    Returns:
        Span telemetry: ``{"span": full shuffle-loop wall seconds,
        "encode_overlapped": .., "decode_overlapped": ..}``.  The
        stopwatch's ``shuffle`` entry receives ``span`` minus the nested
        encode/decode work, keeping per-stage times exclusive.
    """
    comm = program.comm
    rank = program.rank
    before = program.stopwatch.times()

    def turn_tag(gidx: int, sender: int) -> int:
        return tag_base + gidx * comm.size + sender

    with program.stage("shuffle") as scope:
        # Post every receive up front (one ibcast per inbound packet).
        recv_reqs: Dict[int, Dict[int, Request]] = {g: {} for g in my_groups}
        for rnd in rounds:
            for gidx, sender in rnd:
                group = groups[gidx]
                if sender == rank or rank not in group:
                    continue
                recv_reqs[gidx][sender] = comm.ibcast(
                    group, sender, turn_tag(gidx, sender), copy=False
                )

        send_reqs: List[Request] = []
        undecoded = set(g for g in my_groups if recv_reqs[g])

        def sweep() -> None:
            """Decode every group whose packets have all arrived."""
            for gidx in sorted(undecoded):
                reqs = recv_reqs[gidx]
                if not all(req.test() for req in reqs.values()):
                    continue
                payloads = {s: req.wait() for s, req in reqs.items()}
                with program.stage("decode"):
                    decode(gidx, payloads)
                undecoded.discard(gidx)

        # Walk the rounds: lazy-encode, post sends, decode what has landed.
        for rnd in rounds:
            for gidx, sender in rnd:
                if sender != rank:
                    continue
                with program.stage("encode"):
                    packet = encode(gidx)
                send_reqs.append(
                    comm.ibcast(
                        groups[gidx], rank, turn_tag(gidx, rank), packet
                    )
                )
            sweep()

        # Drain: complete the stragglers in deterministic group order.
        for gidx in sorted(undecoded):
            payloads = {
                s: req.wait() for s, req in recv_reqs[gidx].items()
            }
            with program.stage("decode"):
                decode(gidx, payloads)
        undecoded.clear()
        wait_all(send_reqs)
    # The shuffle scope's exclusive accounting already subtracted the
    # nested encode/decode work, so the stage table stays exclusive while
    # the scope's full span carries the overlapped telemetry.
    span = scope.elapsed
    times = program.stopwatch.times()
    encode_in_loop = times.get("encode", 0.0) - before.get("encode", 0.0)
    decode_in_loop = times.get("decode", 0.0) - before.get("decode", 0.0)
    return {
        "span": span,
        "encode_overlapped": encode_in_loop,
        "decode_overlapped": decode_in_loop,
    }


def overlapped_multicast_shuffle(
    program: NodeProgram,
    groups: Sequence[Sequence[int]],
    my_groups: Sequence[int],
    rounds: Sequence[Sequence[Tuple[int, int]]],
    tag_base: int,
    encode: Callable[[int], BufferParts],
    decode: Callable[[int, Dict[int, bytes]], None],
    map_step: Callable[[], bool],
    ready: Callable[[int], bool],
    idle: Optional[Callable[[], bool]] = None,
) -> Dict[str, float]:
    """Run Map / Encode / Shuffle / Decode as one overlapped event loop.

    The streaming-overlap extension of :func:`pipelined_multicast_shuffle`:
    instead of requiring the Map stage to finish before the first packet is
    posted, the engine interleaves single map steps (one file / window,
    supplied by ``map_step``) with a map-progress-aware round walk.  A
    group's packet is encoded and multicast the moment every file subset
    it draws on has been fully mapped locally — while later files are
    still being hashed — so the multicast transfers ride behind the
    remaining Map instead of extending the critical path.

    The loop has two phases.  While input remains, a map step is
    followed only by what the next multicast needs (encode + post of the
    groups it made ready).  After the last map step every remaining
    group is posted and the loop turns to the inbound side: it decodes
    each group whose packets have all arrived, otherwise runs one
    ``idle`` unit (the caller's reduce work), and when neither is
    possible blocks in :meth:`~repro.runtime.api.Comm.wait_any` on the
    outstanding receives and sends — woken by the next frame or send
    completion, never by a sleep-poll.  It returns once every group is
    decoded and every send has completed.

    Args:
        rounds: posting-priority schedule (``CodingPlan.rounds_for``);
            for ``schedule="serial"`` pass the singleton rounds — the
            engine never barriers between rounds, the order only decides
            which ready packet is posted first.
        map_step: performs one unit of map work, returns ``False`` once
            the input is exhausted.  Charged to the ``map`` stage; any
            encode/reduce work it triggers internally should open its own
            nested stage scopes.
        ready: ``group_idx -> True`` once every local file subset the
            group's packets draw on is fully mapped.  Gates both send
            (this rank's packet is a function of those subsets) and
            decode (recovering a segment XORs the local copies of the
            other senders' subsets back out).  Must be monotone and
            all-``True`` after ``map_step`` is exhausted.
        idle: runs one bounded unit of work while the link is busy and
            returns ``False`` when it has none left for now; it should
            charge its work to its own stage scope (the caller's
            ``reduce``).  ``None`` (the out-of-core overlap, which
            reduces inside ``decode``) leaves the loop only waiting.

    Returns:
        Span telemetry: ``{"span", "map_overlapped", "encode_overlapped",
        "decode_overlapped", "reduce_overlapped"}`` — ``span`` covers the
        entire overlapped loop (map included); the ``*_overlapped``
        entries are the nested stage seconds spent inside it.
    """
    comm = program.comm
    rank = program.rank
    before = program.stopwatch.times()

    def turn_tag(gidx: int, sender: int) -> int:
        return tag_base + gidx * comm.size + sender

    with program.stage("shuffle") as scope:
        # Post every receive up front (one ibcast per inbound packet).
        recv_reqs: Dict[int, Dict[int, Request]] = {g: {} for g in my_groups}
        for rnd in rounds:
            for gidx, sender in rnd:
                group = groups[gidx]
                if sender == rank or rank not in group:
                    continue
                recv_reqs[gidx][sender] = comm.ibcast(
                    group, sender, turn_tag(gidx, sender), copy=False
                )

        unsent = [g for rnd in rounds for g, sender in rnd if sender == rank]
        send_reqs: List[Request] = []
        undecoded = set(g for g in my_groups if recv_reqs[g])

        def post_ready() -> None:
            """Encode + multicast every group whose subsets are mapped."""
            for gidx in list(unsent):
                if not ready(gidx):
                    continue
                unsent.remove(gidx)
                with program.stage("encode"):
                    packet = encode(gidx)
                send_reqs.append(
                    comm.ibcast(
                        groups[gidx], rank, turn_tag(gidx, rank), packet
                    )
                )

        def sweep() -> bool:
            """Decode every decodable group; report whether any was."""
            progressed = False
            for gidx in sorted(undecoded):
                reqs = recv_reqs[gidx]
                if not all(req.test() for req in reqs.values()):
                    continue
                payloads = {s: req.wait() for s, req in reqs.items()}
                with program.stage("decode"):
                    decode(gidx, payloads)
                undecoded.discard(gidx)
                progressed = True
            return progressed

        mapping = True
        while mapping:
            with program.stage("map"):
                mapping = bool(map_step())
            post_ready()

        if unsent:
            raise RuntimeError(
                f"rank {rank}: groups {sorted(unsent)} still not encodable "
                "after map exhausted (ready() must be all-true by then)"
            )
        in_flight = list(send_reqs)
        while undecoded or in_flight:
            if sweep() or (idle is not None and idle()):
                continue
            in_flight = [req for req in in_flight if not req.test()]
            waiting = [
                req
                for gidx in sorted(undecoded)
                for req in recv_reqs[gidx].values()
                if not req.test()
            ] + in_flight
            comm.wait_any(waiting)
        wait_all(send_reqs)

    span = scope.elapsed
    times = program.stopwatch.times()

    def in_loop(stage: str) -> float:
        return times.get(stage, 0.0) - before.get(stage, 0.0)

    # shuffle_span approximates the Encode/Shuffle/Decode span (what the
    # parallel-schedule telemetry reports) by peeling the map work off the
    # whole-loop span; the loop span itself travels via export_overlap.
    program.stopwatch.add(
        "shuffle_span", max(0.0, span - in_loop("map"))
    )
    export_overlap(program, scope)
    return {
        "span": span,
        "map_overlapped": in_loop("map"),
        "encode_overlapped": in_loop("encode"),
        "decode_overlapped": in_loop("decode"),
        "reduce_overlapped": in_loop("reduce"),
    }


# ---------------------------------------------------------------------------
# Streaming-overlap telemetry (the "telemetry that can't lie" contract).
# ---------------------------------------------------------------------------

#: Pseudo-stage keys carrying per-node overlap telemetry to the driver.
OVERLAP_SPAN_KEY = "overlap_span"
OVERLAP_HIDDEN_KEY = "overlap_hidden"
OVERLAP_EXPOSED_KEY = "overlap_exposed"


def export_overlap(program: NodeProgram, scope: "_StageScope") -> None:
    """Stamp an overlapped loop's span, hidden and exposed seconds.

    ``scope`` is the exited stage scope that wrapped the whole overlapped
    event loop: its ``elapsed`` is the loop span, its ``exclusive`` the
    exposed communication/wait time (nested compute scopes were charged
    to their own stages).  The difference — compute performed while
    transfers were concurrently in flight — is the upper bound on hidden
    communication.  Both are stamped as pseudo-stages so the driver can
    aggregate them without touching the merged stage table.
    """
    program.stopwatch.add(OVERLAP_SPAN_KEY, scope.elapsed)
    program.stopwatch.add(
        OVERLAP_HIDDEN_KEY, max(0.0, scope.elapsed - scope.exclusive)
    )
    program.stopwatch.add(OVERLAP_EXPOSED_KEY, scope.exclusive)


def overlap_meta(per_node_times: Sequence[Dict[str, float]]) -> Dict[str, Any]:
    """Aggregate the per-node overlap stamps into the run-meta block.

    * ``span_seconds`` — the overlapped loop's wall span, max over nodes;
    * ``exposed_wait_seconds`` — the loop's exclusive ``shuffle`` time
      (communication and waiting no compute covered), max over nodes;
    * ``hidden_seconds`` — compute nested inside the loop, max over
      nodes.  An *upper bound* on hidden communication: it counts every
      compute second that ran while transfers were in flight, including
      compute the overlapped schedule itself added, so it can exceed
      what overlap saved against the staged run.
    """
    spans = [t.get(OVERLAP_SPAN_KEY, 0.0) for t in per_node_times]
    hidden = [t.get(OVERLAP_HIDDEN_KEY, 0.0) for t in per_node_times]
    exposed = [t.get(OVERLAP_EXPOSED_KEY, 0.0) for t in per_node_times]
    return {
        "span_seconds": max(spans, default=0.0),
        "exposed_wait_seconds": max(exposed, default=0.0),
        "hidden_seconds": max(hidden, default=0.0),
        "per_node_hidden_seconds": hidden,
    }


@dataclass
class ClusterResult:
    """Everything a cluster run returns to the driver.

    Attributes:
        results: per-rank return values of :meth:`NodeProgram.run`.
        stage_times: per-stage breakdown, max over nodes (barrier semantics,
            matching the paper's tables).
        per_node_times: raw per-rank stage dictionaries.
        traffic: the merged traffic log.
    """

    results: List[Any]
    stage_times: StageTimes
    per_node_times: List[Dict[str, float]] = field(default_factory=list)
    traffic: Optional[TrafficLog] = None

    @property
    def size(self) -> int:
        return len(self.results)


def assemble_cluster_result(
    results: List[Any],
    times: List[Dict[str, float]],
    traffic: Optional[TrafficLog],
    stages: List[str],
) -> ClusterResult:
    """Merge per-rank outputs into a :class:`ClusterResult`.

    Shared tail of every backend's run/pool collection loop; with no
    declared ``stages``, falls back to the union of observed stage names.
    """
    if not stages:
        stages = sorted({s for t in times for s in t})
    return ClusterResult(
        results=results,
        stage_times=StageTimes.merge_max(stages, times),
        per_node_times=times,
        traffic=traffic,
    )
