"""The in-memory overlapped reduce: piece lifetime, telemetry, counters.

* **Lifetime.** The :class:`~repro.kvpairs.frontier.KeyMergeFrontier`
  holds every piece until its final scatter, so no piece may alias a
  receive arena (``copy=False`` receives hand out arena views): decoded
  groups live in the fresh buffer ``recover_intermediate`` allocates,
  received uncoded chunks are unpacked into owned memory.
* **Telemetry.** Idle-time reduce work is charged to ``reduce`` only, so
  each rank's stage times still add up to its wall-clock time, and the
  run meta reports the loop's exposed wait next to the hidden-seconds
  upper bound.
* **Counters.** Frontier key merges count toward
  ``kernel_stats["merge_records"]``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.core.coded_terasort as coded_mod
import repro.core.terasort as terasort_mod
from repro.core.coded_terasort import (
    STAGES_CODED,
    _coded_terasort_program,
    prepare_coded_terasort,
)
from repro.core.terasort import _terasort_program, prepare_terasort
from repro.kvpairs.frontier import KeyMergeFrontier
from repro.kvpairs.sorting import sort_batch
from repro.kvpairs.teragen import teragen
from repro.runtime.inproc import ThreadCluster
from repro.runtime.process import ProcessCluster


def _arena(buf) -> np.ndarray:
    return np.frombuffer(memoryview(buf).cast("B"), dtype=np.uint8)


@pytest.fixture
def held_pieces(monkeypatch):
    """Every piece any frontier is fed, for the life of the test."""
    pieces = []
    feed = KeyMergeFrontier.feed

    def recording_feed(self, slot, batch):
        pieces.append(batch)
        return feed(self, slot, batch)

    monkeypatch.setattr(KeyMergeFrontier, "feed", recording_feed)
    return pieces


class TestPieceLifetime:
    @pytest.mark.parametrize("k,r", [(4, 1), (4, 2)])
    @pytest.mark.parametrize("schedule", ["serial", "parallel"])
    def test_coded_pieces_never_alias_receive_arenas(
        self, k, r, schedule, held_pieces, monkeypatch
    ):
        arenas = []
        recover = coded_mod.CodedTeraSortProgram._recover_group

        def recording_recover(self, plan, gidx, raw_packets, lookup):
            arenas.extend(raw_packets.values())
            return recover(self, plan, gidx, raw_packets, lookup)

        monkeypatch.setattr(
            coded_mod.CodedTeraSortProgram, "_recover_group",
            recording_recover,
        )
        data = teragen(3000, seed=40 + r)
        job = prepare_coded_terasort(
            k, data=data, redundancy=r, schedule=schedule, overlap=True
        )
        result = ThreadCluster(k, recv_timeout=60).run(
            lambda comm: _coded_terasort_program(
                comm, job.payloads[comm.rank]
            )
        )
        run = job.finalize(result)
        assert b"".join(p.to_bytes() for p in run.partitions) == (
            sort_batch(data).to_bytes()
        )
        # Every received packet was a zero-copy view, and every piece the
        # frontiers held was fed: the check below is not vacuous.
        assert arenas and all(isinstance(a, memoryview) for a in arenas)
        assert len(held_pieces) >= k
        for piece in held_pieces:
            for arena in arenas:
                assert not np.shares_memory(piece.array, _arena(arena))

    def test_uncoded_pieces_never_alias_receive_arenas(
        self, held_pieces, monkeypatch
    ):
        arenas = []
        unpack = terasort_mod.unpack_batch

        def recording_unpack(buf, *args, **kwargs):
            arenas.append(buf)
            return unpack(buf, *args, **kwargs)

        monkeypatch.setattr(terasort_mod, "unpack_batch", recording_unpack)
        k = 4
        data = teragen(4000, seed=44)
        job = prepare_terasort(k, data=data, overlap=True)
        result = ThreadCluster(k, recv_timeout=60).run(
            lambda comm: _terasort_program(comm, job.payloads[comm.rank])
        )
        run = job.finalize(result)
        assert b"".join(p.to_bytes() for p in run.partitions) == (
            sort_batch(data).to_bytes()
        )
        assert arenas and held_pieces
        for piece in held_pieces:
            for arena in arenas:
                assert not np.shares_memory(piece.array, _arena(arena))


class TestOverlapTelemetry:
    def _timed_run(self, k, r):
        data = teragen(60_000, seed=45)
        job = prepare_coded_terasort(
            k, data=data, redundancy=r, schedule="parallel", overlap=True
        )

        def factory(comm):
            program = _coded_terasort_program(comm, job.payloads[comm.rank])
            inner = program.run

            def timed_run():
                t0 = time.perf_counter()
                out = inner()
                program.stopwatch.add("probe_wall", time.perf_counter() - t0)
                return out

            program.run = timed_run
            return program

        # Worker processes: on threads, a rank waiting for the GIL
        # between two stage scopes would show up as unattributed time.
        result = ProcessCluster(k, timeout=120).run(factory)
        return result, job.finalize(result)

    def test_stage_times_sum_to_wall_clock(self):
        result, run = self._timed_run(4, 2)
        for times in result.per_node_times:
            staged = sum(times.get(stage, 0.0) for stage in STAGES_CODED)
            wall = times["probe_wall"]
            assert staged <= wall + 1e-3
            assert staged >= 0.9 * wall - 0.02, (staged, wall)
            assert times["reduce"] > 0.0

    def test_meta_reports_exposed_wait(self):
        _, run = self._timed_run(4, 2)
        meta = run.meta["overlap"]
        assert 0.0 <= meta["exposed_wait_seconds"] <= meta["span_seconds"]
        assert 0.0 <= meta["hidden_seconds"] <= meta["span_seconds"]

    def test_frontier_merges_counted(self):
        _, run = self._timed_run(4, 2)
        # Six pieces per rank (three own subsets, three decoded groups)
        # merge into one run: at least one record-count per record.
        assert run.meta["kernel_stats"]["merge_records"] >= 60_000
