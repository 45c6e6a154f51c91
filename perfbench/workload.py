"""One benchmark run of one workload: set-up probes, job loop, oracle check.

The run follows a fixed order so that memory readings mean the same thing
on every commit:

1. ``setup_s`` probes: several fresh pools, each timed from ``connect()``
   until a tiny first job returns, then closed.
2. The measuring pool is formed (and warmed with the tiny job) *before*
   this process holds any workload data, so its forked workers do not
   inherit the input or the oracle; their idle ``RssAnon`` is recorded.
3. The input is written by ``teragen_to_file`` from the seed, and the
   oracle (one stable sort of the whole input) is computed.
4. One untimed warm-up job, then a closed loop with one job in flight
   until the timed jobs add up to the requested seconds.  Every job's
   output is compared byte for byte with the oracle outside its timed
   window.
5. With tracing on, every other job records spans, and the layer replays
   run on the same input after the loop.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import connect
from repro.core.placement import CodedPlacement, UncodedPlacement
from repro.kvpairs.datasource import FileSource
from repro.kvpairs.records import RECORD_BYTES, RecordBatch
from repro.kvpairs.spill import SPILL_DIR_PREFIX
from repro.kvpairs.teragen import teragen_to_file
from repro.session import CodedTeraSortSpec, Session, TeraSortSpec

import procstat
from layers import LayerReplay
from spans import Tracer

SPECS = {"TeraSortSpec": TeraSortSpec, "CodedTeraSortSpec": CodedTeraSortSpec}
#: Records in the set-up probe and pool warm-up job.
TINY_RECORDS = 4096
#: Fresh pools timed per run; ``setup_s`` is their median.
SETUP_PROBES = 21
#: Bound on one job (also the pool's own receive timeout), so a hung job
#: fails the run well inside its time limit.
JOB_TIMEOUT_S = 60.0
MB = 1e6

#: Metrics reported with tracing off, with their units.
END_TO_END = {
    "sort_mb_s": "MB/s",
    "setup_s": "s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
    "shuffle_load": "ratio",
}
#: Stages a sort can report in ``SortRun.stage_times`` (uncoded and coded).
STAGES = ("codegen", "map", "pack", "encode", "shuffle", "decode", "unpack",
          "reduce")
#: Metrics reported with tracing on, with their units.
PER_LAYER = {
    "kvpairs.read_mb_s": "MB/s",
    "kvpairs.sort_mb_s": "MB/s",
    "kvpairs.stream_merge_mb_s": "MB/s",
    "kvpairs.merge_records_per_record": "ratio",
    "kvpairs.pack_mb_s": "MB/s",
    "kvpairs.unpack_mb_s": "MB/s",
    "kvpairs.spill_write_mb_s": "MB/s",
    "kvpairs.spill_merge_mb_s": "MB/s",
    "kvpairs.spill_runs": "count",
    "kvpairs.budget_overshoot": "ratio",
    "core.map_mb_s": "MB/s",
    "core.encode_mb_s": "MB/s",
    "core.decode_mb_s": "MB/s",
    "runtime.transport_mb_s": "MB/s",
    "runtime.pace_floor_s": "s",
    "runtime.shuffle_bytes": "B",
    "runtime.shuffle_messages": "count",
    "session.overhead_s": "s",
    "session.retries": "count",
    **{f"stage.{name}_s": "s" for name in STAGES},
    "trace.layer_share": "ratio",
    "trace.overhead": "MB/s",
}


def _flat(batch: RecordBatch) -> np.ndarray:
    return batch.raw_view().reshape(-1)


def oracle_sort(batch: RecordBatch) -> RecordBatch:
    """One stable sort of ``batch`` by key, in NumPy's byte-string order.

    Independent of the program's own sort and merge kernels, so a defect
    in those cannot also hide in the reference.
    """
    return batch.take(np.argsort(batch.keys, kind="stable"))


def matches_oracle(run, oracle: np.ndarray) -> bool:
    """True when the run's partitions, in order, are exactly ``oracle``.

    File-backed partitions (jobs with an ``output_dir``) are streamed.
    """
    offset = 0
    for part in run.partitions:
        batches = (
            part.iter_batches() if isinstance(part, FileSource) else [part]
        )
        for batch in batches:
            got = _flat(batch)
            if not np.array_equal(oracle[offset:offset + got.size], got):
                return False
            offset += got.size
    return offset == oracle.size


@dataclass
class Job:
    """What one job cost and what the program reported about it."""

    job_id: int
    ok: bool
    wall_s: float
    done_at: float
    traced: bool
    cpu_s: Optional[float] = None
    peak_rss_bytes: int = 0
    error: Optional[str] = None
    stages: Dict[str, float] = field(default_factory=dict)
    stage_total_s: float = 0.0
    shuffle_bytes: int = 0
    shuffle_messages: int = 0
    busiest_sender_bytes: int = 0
    merge_records: int = 0
    output_records: int = 0
    spill_runs: int = 0
    retries: int = 0


class WorkloadRun:
    """Runs one workload once; see the module docstring for the order."""

    def __init__(
        self,
        name: str,
        config: Dict,
        seed: int,
        seconds: float,
        trace: bool,
        work_dir: Path,
    ) -> None:
        self.name = name
        self.cfg = config["workloads"][name]
        self.spill_replay_budget = config["spill_replay_budget"]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = work_dir
        self.spill_base = Path(os.environ["REPRO_SPILL_DIR"])
        self.tracer = Tracer(trace)
        self.sampler = procstat.RssSampler()
        self.input_bytes = self.cfg["records"] * RECORD_BYTES
        self.setup_s: List[float] = []
        self.jobs: List[Job] = []  # the timed jobs
        self.attempted = 0
        self.failures: List[str] = []
        self.idle_rss_bytes = 0
        self.replay: Dict[str, Tuple[float, int]] = {}
        self._partitioner = None
        self._outputs = 0

    # -- jobs ----------------------------------------------------------------

    def _cluster(self):
        return connect(
            self.cfg["cluster"],
            rate_bytes_per_s=self.cfg["rate_bytes_per_s"],
            timeout=JOB_TIMEOUT_S,
        )

    def _spec(self, source: FileSource):
        output_dir = None
        if self.cfg["output_dir"]:
            self._outputs += 1
            output_dir = str(self.work_dir / f"out-{self._outputs}")
        return SPECS[self.cfg["spec"]](
            input=source,
            memory_budget=self.cfg["memory_budget"],
            output_dir=output_dir,
            **self.cfg["params"],
        )

    def _job(
        self,
        session: Session,
        source: FileSource,
        oracle: np.ndarray,
        traced: bool = False,
    ) -> Job:
        """Run one job, time it from submit() to result, check its output."""
        spec = self._spec(source)
        me = os.getpid()
        pids = [me, *procstat.child_pids(me)]
        self.sampler.watch(pids[1:])
        job_id = self.attempted
        self.attempted += 1
        cpu0 = procstat.cpu_seconds(pids)
        self.sampler.take_peak()
        t0 = time.perf_counter()
        handle = session.submit(spec)
        t1 = time.perf_counter()
        try:
            run = handle.result(timeout=JOB_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted
            t2 = time.perf_counter()
            job = Job(job_id, False, t2 - t0, t2, traced,
                      error=f"{type(exc).__name__}: {exc}")
        else:
            t2 = time.perf_counter()
            cpu1 = procstat.cpu_seconds(pids)
            self.sampler.sample()
            peak = self.sampler.take_peak()
            ok = matches_oracle(run, oracle)
            traffic = run.traffic
            job = Job(
                job_id,
                ok,
                t2 - t0,
                t2,
                traced,
                cpu_s=sum(cpu1.values()) - sum(cpu0.values())
                if cpu1.keys() == cpu0.keys() else None,
                peak_rss_bytes=peak,
                error=None if ok else "output differs from the oracle",
                stages=dict(run.stage_times.seconds),
                stage_total_s=run.stage_times.total,
                shuffle_bytes=traffic.load_bytes("shuffle"),
                shuffle_messages=traffic.message_count("shuffle"),
                busiest_sender_bytes=max(
                    traffic.by_sender("shuffle").values(), default=0
                ),
                merge_records=run.meta["kernel_stats"]["merge_records"],
                output_records=run.total_records,
                spill_runs=run.meta.get("oc_spill_runs", 0),
                retries=len(handle.attempts) - 1,
            )
            self._partitioner = run.partitioner
            del run
        if spec.output_dir is not None:
            shutil.rmtree(spec.output_dir, ignore_errors=True)
        t3 = time.perf_counter()
        if traced:
            self.tracer.add("job", t0, t2, job=job_id, stages=job.stages)
            self.tracer.add("job.submit", t0, t1, parent="job", job=job_id)
            self.tracer.add("job.wait", t1, t2, parent="job", job=job_id)
            self.tracer.add("job.verify", t2, t3, parent="job", job=job_id)
        if not job.ok:
            self.failures.append(f"job {job_id}: {job.error}")
        return job

    # -- the run -------------------------------------------------------------

    def run(self) -> None:
        tiny_path = str(self.work_dir / "tiny.bin")
        teragen_to_file(tiny_path, TINY_RECORDS, seed=self.seed)
        tiny = FileSource(tiny_path)
        tiny_oracle = _flat(oracle_sort(tiny.load()))

        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            session = Session(self._cluster())
            try:
                job = self._job(session, tiny, tiny_oracle)
            finally:
                session.close()
            self.setup_s.append(job.done_at - t0)
            self.tracer.add("setup", t0, job.done_at, job=job.job_id)

        with Session(self._cluster()) as session:
            self._job(session, tiny, tiny_oracle)
            workers = procstat.child_pids(os.getpid())
            if len(workers) != session.size:
                raise RuntimeError(
                    f"expected {session.size} worker processes, found "
                    f"{len(workers)}"
                )
            self.idle_rss_bytes = max(
                procstat.rss_anon_bytes(pid) for pid in workers
            )

            input_path = str(self.work_dir / "input.bin")
            teragen_to_file(input_path, self.cfg["records"], seed=self.seed)
            # Write the input back to disk now, so that its writeback cannot
            # land inside a timed job.
            with open(input_path, "rb") as f:
                os.fsync(f.fileno())
            source = FileSource(input_path)
            oracle_batch = oracle_sort(source.load())
            oracle = _flat(oracle_batch)

            self._job(session, source, oracle)  # warm-up, untimed
            measured = 0.0
            self.sampler.start()
            try:
                # A traced run needs at least one traced and one untraced job.
                while (
                    measured < self.seconds or len(self.jobs) < 1 + self.trace
                ):
                    traced = self.trace and len(self.jobs) % 2 == 1
                    job = self._job(session, source, oracle, traced)
                    self.jobs.append(job)
                    measured += job.wall_s
            finally:
                self.sampler.stop()

            if self.trace and self._partitioner is not None:
                self._replay(session.size, source, oracle_batch)

        leftovers = [
            name for name in os.listdir(self.spill_base)
            if name.startswith(SPILL_DIR_PREFIX)
        ]
        if leftovers:
            self.failures.append(
                f"spill directories left behind: {', '.join(leftovers)}"
            )

    def _replay(self, k: int, source: FileSource, oracle: RecordBatch) -> None:
        if self.cfg["spec"] == "CodedTeraSortSpec":
            placement = CodedPlacement(k, self.cfg["params"]["redundancy"])
        else:
            placement = UncodedPlacement(k)
        replay = LayerReplay(
            source,
            self._partitioner,
            placement,
            self.cfg["memory_budget"] or self.spill_replay_budget,
            oracle,
            str(self.spill_base),
            self.tracer,
        )
        self.replay = replay.run()
        self.attempted += len(self.replay)
        self.failures.extend(f"replay {f}" for f in replay.failures)

    # -- metrics -------------------------------------------------------------

    @property
    def failed(self) -> int:
        return len(self.failures)

    def ok_jobs(self, traced: Optional[bool] = None) -> List[Job]:
        return [
            j for j in self.jobs
            if j.ok and (traced is None or j.traced == traced)
        ]

    def end_to_end(self) -> Dict[str, float]:
        jobs = self.ok_jobs()
        median = statistics.median
        return {
            "sort_mb_s": self.input_bytes / MB
            / median(j.wall_s for j in jobs),
            "setup_s": median(self.setup_s),
            "cpu_s_per_job": median(
                j.cpu_s for j in jobs if j.cpu_s is not None
            ),
            "peak_rss_mb": max(j.peak_rss_bytes for j in jobs) / MB,
            "shuffle_load": median(j.shuffle_bytes for j in jobs)
            / self.input_bytes,
        }

    def per_layer(self) -> Dict[str, float]:
        traced = self.ok_jobs(traced=True)
        untraced = self.ok_jobs(traced=False)
        median = statistics.median
        wall = median(j.wall_s for j in traced)
        rate = self.cfg["rate_bytes_per_s"]
        budget = self.cfg["memory_budget"]

        def mb_s(layer: str) -> float:
            seconds, nbytes = self.replay[layer]
            return nbytes / MB / seconds

        pace_floor = (
            median(j.busiest_sender_bytes for j in traced) / rate
            if rate else 0.0
        )
        overhead = median(j.wall_s - j.stage_total_s for j in traced)
        layer_seconds = sum(
            self.replay[layer][0] for layer in self.cfg["path_layers"]
        )
        input_mb = self.input_bytes / MB
        metrics = {
            "kvpairs.read_mb_s": mb_s("read"),
            "kvpairs.sort_mb_s": mb_s("sort"),
            "kvpairs.stream_merge_mb_s": mb_s("stream_merge"),
            "kvpairs.merge_records_per_record": median(
                j.merge_records / j.output_records for j in traced
            ),
            "kvpairs.pack_mb_s": mb_s("pack"),
            "kvpairs.unpack_mb_s": mb_s("unpack"),
            "kvpairs.spill_write_mb_s": mb_s("spill_write"),
            "kvpairs.spill_merge_mb_s": mb_s("spill_merge"),
            "kvpairs.spill_runs": median(j.spill_runs for j in traced),
            "kvpairs.budget_overshoot": (
                (max(j.peak_rss_bytes for j in self.ok_jobs())
                 - self.idle_rss_bytes) / budget
                if budget else 0.0
            ),
            "core.map_mb_s": mb_s("map"),
            "core.encode_mb_s": mb_s("encode"),
            "core.decode_mb_s": mb_s("decode"),
            "runtime.transport_mb_s": mb_s("transport"),
            "runtime.pace_floor_s": pace_floor,
            "runtime.shuffle_bytes": median(j.shuffle_bytes for j in traced),
            "runtime.shuffle_messages": median(
                j.shuffle_messages for j in traced
            ),
            "session.overhead_s": overhead,
            "session.retries": sum(j.retries for j in self.jobs),
            **{
                f"stage.{name}_s": median(
                    j.stages.get(name, 0.0) for j in traced
                )
                for name in STAGES
            },
            "trace.layer_share": (layer_seconds + pace_floor + overhead)
            / wall,
            "trace.overhead": input_mb / median(j.wall_s for j in untraced)
            - input_mb / wall,
        }
        return metrics
