"""``Comm.wait_any``: the event loops' blocking wait, on both backends.

Every overlapped event loop sleeps in ``wait_any`` when it has nothing
to do, so it must wake promptly when a frame lands, give up after its
``timeout``, surface a closed peer channel as :class:`CommError` instead
of sleeping forever, and never block on a request that has already
completed.
"""

from __future__ import annotations

import struct
import threading
import time

import pytest

from repro.runtime.api import CommError, ConditionRequest
from repro.runtime.inproc import ThreadCluster
from repro.runtime.process import ProcessCluster
from repro.runtime.program import NodeProgram

TAG = 7


def _cluster(backend: str, size: int = 2):
    if backend == "inproc":
        return ThreadCluster(size, recv_timeout=30)
    return ProcessCluster(size, timeout=60)


class _Latency(NodeProgram):
    """Rank 1 sends three time-stamped frames; rank 0 wakes for each."""

    STAGES = ["s"]

    def run(self):
        with self.stage("s"):
            if self.rank == 1:
                for _ in range(3):
                    time.sleep(0.2)
                    self.comm.send(
                        0, TAG, struct.pack("<d", time.monotonic())
                    )
                return None
            latencies = []
            for _ in range(3):
                req = self.comm.irecv(1, TAG)
                if self.comm.wait_any([req], timeout=10.0) != 0:
                    return None
                woke = time.monotonic()
                (sent,) = struct.unpack("<d", req.wait())
                latencies.append(woke - sent)
            return latencies


class _Timeout(NodeProgram):
    STAGES = ["s"]

    def run(self):
        with self.stage("s"):
            if self.rank == 0:
                req = self.comm.irecv(1, TAG)  # never sent
                t0 = time.monotonic()
                index = self.comm.wait_any([req], timeout=0.3)
                elapsed = time.monotonic() - t0
                self.comm.barrier()
                return index, elapsed
            self.comm.barrier()
            return None


class _AlreadyDone(NodeProgram):
    STAGES = ["s"]

    def run(self):
        with self.stage("s"):
            if self.rank == 1:
                self.comm.send(0, TAG, b"early")
                self.comm.barrier()
                return None
            done = self.comm.irecv(1, TAG)
            done.wait()
            never = self.comm.irecv(1, TAG + 1)
            t0 = time.monotonic()
            index = self.comm.wait_any([never, done])
            elapsed = time.monotonic() - t0
            empty = self.comm.wait_any([])
            self.comm.barrier()
            return index, elapsed, empty


class _PeerGone(NodeProgram):
    """Rank 1 leaves at once; rank 0 waits on a frame it never sends."""

    STAGES = ["s"]

    def run(self):
        with self.stage("s"):
            if self.rank == 1:
                return None
            req = self.comm.irecv(1, TAG)
            try:
                self.comm.wait_any([req], timeout=20.0)
            except CommError:
                return "observed"
            return "missed"


@pytest.mark.parametrize("backend", ["inproc", "proc"])
class TestWaitAny:
    def test_wakes_promptly_on_arrival(self, backend):
        latencies = _cluster(backend).run(_Latency).results[0]
        assert latencies is not None and len(latencies) == 3
        # A wake within ~50 ms of the frame (the best of three absorbs one
        # scheduler hiccup on a loaded host).
        assert min(latencies) < 0.05, latencies

    def test_honours_timeout(self, backend):
        index, elapsed = _cluster(backend).run(_Timeout).results[0]
        assert index is None
        assert 0.29 <= elapsed < 5.0

    def test_returns_completed_request_without_blocking(self, backend):
        index, elapsed, empty = _cluster(backend).run(_AlreadyDone).results[0]
        assert index == 1
        assert elapsed < 0.05
        assert empty is None

    def test_raises_when_peer_channel_closes(self, backend):
        if backend == "proc":
            res = _cluster(backend).run(_PeerGone)
            assert res.results[0] == "observed"
            return
        # Threads: a failing node closes every mailbox, which must wake
        # and fail a peer blocked in wait_any.
        seen = []

        class Failing(NodeProgram):
            STAGES = ["s"]

            def run(self):
                with self.stage("s"):
                    if self.rank == 1:
                        time.sleep(0.1)
                        raise RuntimeError("rank 1 fails")
                    req = self.comm.irecv(1, TAG)
                    try:
                        self.comm.wait_any([req], timeout=20.0)
                    except CommError:
                        seen.append("observed")
                    return None

        t0 = time.monotonic()
        with pytest.raises(Exception):
            ThreadCluster(2, recv_timeout=30).run(Failing)
        assert seen == ["observed"]
        assert time.monotonic() - t0 < 10.0


class TestConditionRequest:
    def test_wake_completes_condition(self):
        class Program(NodeProgram):
            STAGES = ["s"]

            def run(self):
                with self.stage("s"):
                    flag = threading.Event()
                    req = ConditionRequest(self.comm, flag.is_set)

                    def later():
                        time.sleep(0.1)
                        flag.set()
                        self.comm.wake()

                    threading.Thread(target=later).start()
                    t0 = time.monotonic()
                    index = self.comm.wait_any([req], timeout=10.0)
                    return index, time.monotonic() - t0

        index, elapsed = ThreadCluster(1, recv_timeout=30).run(
            Program
        ).results[0]
        assert index == 0
        assert elapsed < 5.0
