"""Per-layer replays: one rank's share of a workload's input, layer by layer.

Each replay times one layer's public functions on the records rank 0
handles in the real job (its map files under the workload's placement,
its reduce partition under the job's partitioner) and returns seconds
and bytes per call sequence, so rates come out in MB/s.  Replays that
produce sorted output are checked against the oracle slice for rank 0's
partition; a mismatch is reported as a failure.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.decoding import decode_segment_into
from repro.core.encoding import encode_packet, segment_of
from repro.core.groups import build_coding_plan
from repro.core.mapper import hash_file
from repro.core.outofcore import OutOfCorePlan
from repro.core.placement import CodedPlacement
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.serialization import pack_batch_parts, unpack_batch
from repro.kvpairs.sorting import sort_batch
from repro.kvpairs.spill import (
    ExternalSorter,
    IncrementalMerger,
    SpillDir,
    merge_runs,
)
from repro.runtime.transport import recv_frame, send_frame
from repro.utils.subsets import without

RANK = 0
#: Every replay runs this many times; the median is reported.
REPS = 3
#: The coded geometry the encode/decode replays use on every workload:
#: K=4 is the smallest K at which r=2 has a 3-node multicast group.
CODED_K, CODED_R = 4, 2

Timing = Tuple[float, int]  # (median seconds, bytes handled per call)


def _flat(batch: RecordBatch) -> np.ndarray:
    return batch.raw_view().reshape(-1)


class LayerReplay:
    """Replays every layer on one workload's data (see module docstring).

    Args:
        source: the workload's whole input.
        partitioner: the partitioner the real job used.
        placement: the workload's file placement (files of rank 0 are its
            map input).
        memory_budget: budget the spill replays are sized from.
        oracle: the oracle, one stable sort of the whole input.
        spill_base: directory the spill replays write under.
        tracer: receives one span per replay call.
    """

    def __init__(
        self,
        source,
        partitioner,
        placement,
        memory_budget: int,
        oracle: RecordBatch,
        spill_base: str,
        tracer,
    ) -> None:
        self.partitioner = partitioner
        self.memory_budget = memory_budget
        self.spill_base = spill_base
        self.tracer = tracer
        self.source = source
        self.failures: List[str] = []
        self.files = placement.split_source(source)
        self.rank_files = [
            self.files[f] for f in placement.files_of_node(RANK)
        ]
        whole = source.load()
        idx = partitioner.partition_indices(whole)
        positions = np.flatnonzero(idx == RANK)
        #: rank 0's reduce partition in input order (what its reduce sorts)
        self.partition = whole.take(positions)
        # Per-file slices of that partition, in file order: the chunks the
        # overlap reduce feeds its merge frontier, one slot per file.
        bounds = np.cumsum([f.num_records for f in self.files])[:-1]
        self.partition_chunks = self.partition.split_at(
            np.searchsorted(positions, bounds)
        )
        # Range partitions are key-ordered, so partition 0 is the head of
        # the globally sorted output.
        self._oracle = _flat(oracle.slice(0, len(self.partition)))

    # -- helpers -----------------------------------------------------------

    def _time(
        self, name: str, call: Callable[[], object]
    ) -> Tuple[float, object]:
        seconds = []
        out = None
        for _ in range(REPS):
            t0 = time.perf_counter()
            out = call()
            t1 = time.perf_counter()
            seconds.append(t1 - t0)
            self.tracer.add(f"replay.{name}", t0, t1, parent="replay")
        return statistics.median(seconds), out

    def _check(self, name: str, batches: List[RecordBatch]) -> None:
        got = RecordBatch.concat(batches) if batches else RecordBatch.empty()
        if not np.array_equal(_flat(got), self._oracle):
            self.failures.append(f"{name}: output differs from the oracle")

    # -- replays -----------------------------------------------------------

    def run(self) -> Dict[str, Timing]:
        t0 = time.perf_counter()
        out: Dict[str, Timing] = {}

        read_s, loaded = self._time(
            "read", lambda: [f.load().copy() for f in self.rank_files]
        )
        file_bytes = sum(b.nbytes for b in loaded)
        out["read"] = (read_s, file_bytes)

        map_s, hashed = self._time(
            "map", lambda: [hash_file(b, self.partitioner) for b in loaded]
        )
        out["map"] = (map_s, file_bytes)

        outbound = [
            parts[dst]
            for parts in hashed
            for dst in range(len(parts))
            if dst != RANK and len(parts[dst])
        ]
        out_bytes = sum(b.nbytes for b in outbound)
        pack_s, frames = self._time(
            "pack",
            lambda: [pack_batch_parts(b, tag=RANK) for b in outbound],
        )
        out["pack"] = (pack_s, out_bytes)
        joined = [b"".join(bytes(p) for p in frame) for frame in frames]
        out["transport"] = (self._transport(frames, joined), out_bytes)
        unpack_s, _ = self._time(
            "unpack", lambda: [unpack_batch(buf) for buf in joined]
        )
        out["unpack"] = (unpack_s, out_bytes)

        part_bytes = self.partition.nbytes
        sort_s, ordered = self._time(
            "sort", lambda: sort_batch(self.partition)
        )
        self._check("sort", [ordered])
        out["sort"] = (sort_s, part_bytes)

        merge_s, merged = self._time("stream_merge", self._stream_merge)
        self._check("stream_merge", merged)
        out["stream_merge"] = (merge_s, part_bytes)

        write_s, merge_s = self._spill()
        out["spill_write"] = (write_s, part_bytes)
        out["spill_merge"] = (merge_s, part_bytes)

        out.update(self._coding())
        self.tracer.add("replay", t0, time.perf_counter())
        return out

    def _transport(self, frames: List[List], expected: List[bytes]) -> float:
        """Seconds to push every packed frame through a local socket pair."""
        seconds = []
        for _ in range(REPS):
            tx, rx = socket.socketpair()
            received: List[bytearray] = []

            def drain() -> None:
                for _ in frames:
                    received.append(recv_frame(rx)[1])

            try:
                t0 = time.perf_counter()
                reader = threading.Thread(target=drain, name="replay-recv")
                reader.start()
                for frame in frames:
                    send_frame(tx, RANK, frame)
                reader.join()
                t1 = time.perf_counter()
            finally:
                tx.close()
                rx.close()
            self.tracer.add("replay.transport", t0, t1, parent="replay")
            seconds.append(t1 - t0)
            if received != expected:
                self.failures.append("transport: frames arrived altered")
        return statistics.median(seconds)

    def _stream_merge(self) -> List[RecordBatch]:
        merger = IncrementalMerger(len(self.partition_chunks))
        for slot, chunk in enumerate(self.partition_chunks):
            merger.feed(slot, sort_batch(chunk))
        return list(merger.finish())

    def _spill(self) -> Tuple[float, float]:
        """ExternalSorter.add at the budget's chunking, then merge_runs."""
        plan = OutOfCorePlan.for_budget(self.memory_budget)
        write_s, merge_s = [], []
        for _ in range(REPS):
            spill = SpillDir(tag="replay", base=self.spill_base)
            try:
                t0 = time.perf_counter()
                sorter = ExternalSorter(spill, plan.sort_chunk_bytes)
                for window in self.partition.iter_slices(
                    plan.input_window_records
                ):
                    sorter.add(window)
                runs = sorter.finish()
                t1 = time.perf_counter()
                merged = list(merge_runs(
                    runs,
                    window_records=plan.merge_window_records(len(runs)),
                    out_records=plan.out_records,
                ))
                t2 = time.perf_counter()
            finally:
                spill.cleanup()
            self.tracer.add("replay.spill_write", t0, t1, parent="replay",
                            runs=len(runs))
            self.tracer.add("replay.spill_merge", t1, t2, parent="replay")
            write_s.append(t1 - t0)
            merge_s.append(t2 - t1)
            self._check("spill_merge", merged)
        return statistics.median(write_s), statistics.median(merge_s)

    def _coding(self) -> Dict[str, Timing]:
        """encode_packet / decode_segment_into over rank 0's (4, 2) groups."""
        placement = CodedPlacement(CODED_K, CODED_R)
        plan = build_coding_plan(CODED_K, CODED_R)
        serialized: Dict = {}
        for fid, f in enumerate(placement.split_source(self.source)):
            subset = placement.subset_of_file(fid)
            parts = hash_file(f.load(), self.partitioner)
            # Only values some node lacks are coded: I^t_S with t not in S.
            for target, part in enumerate(parts):
                if target not in subset:
                    serialized[(subset, target)] = part.to_bytes()

        def lookup(subset, target):
            return serialized[(subset, target)]

        groups = [plan.groups[g] for g in plan.groups_of_node[RANK]]
        encode_s, packets = self._time(
            "encode", lambda: [encode_packet(RANK, g, lookup) for g in groups]
        )
        encoded = sum(len(p.payload) for p in packets)

        inbound = [
            (group, sender, encode_packet(sender, group, lookup))
            for group in groups
            for sender in group
            if sender != RANK
        ]

        def decode() -> List[bytearray]:
            outs = []
            for _, _, packet in inbound:
                buf = bytearray(packet.length_for(RANK))
                decode_segment_into(RANK, packet, lookup, memoryview(buf))
                outs.append(buf)
            return outs

        decode_s, decoded = self._time("decode", decode)
        for (group, sender, _), buf in zip(inbound, decoded):
            subset = without(group, RANK)
            sent = segment_of(lookup(subset, RANK), subset, sender)
            if bytes(buf) != bytes(sent):
                self.failures.append("decode: segment differs from sender")
        return {
            "encode": (encode_s, encoded),
            "decode": (decode_s, sum(len(b) for b in decoded)),
        }
