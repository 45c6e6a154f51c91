"""The control-plane codec: zero-copy witness and typed decode failures.

``send_msg`` / ``recv_msg`` carry job dispatch and result return for
the process and TCP pools.  Contiguous arrays travel as out-of-band
buffers and land, uncopied, in the receiver's frame arena; anything
pickle must copy in band is counted at the ``ctrl.inband`` copytrack
site; and a malformed frame raises :class:`TransportError`, never a
``struct`` or unpickling error.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

import repro
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.sorting import sort_batch
from repro.kvpairs.teragen import teragen
from repro.runtime.transport import (
    CTRL_HEADER,
    CTRL_TAG,
    FRAME_HEADER,
    TransportError,
    recv_msg,
    send_frame,
    send_msg,
)
from repro.session import Session, TeraSortSpec
from repro.utils import copytrack


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    b.settimeout(10.0)
    yield a, b
    a.close()
    b.close()


def _round_trip(pair, obj):
    """Send ``obj`` from one end while the other receives it."""
    a, b = pair
    sender = threading.Thread(target=send_msg, args=(a, obj))
    sender.start()
    try:
        return recv_msg(b)
    finally:
        sender.join(timeout=10.0)


def _arena_of(arr: np.ndarray):
    """The object that finally owns ``arr``'s memory."""
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


class TestZeroCopy:
    def test_contiguous_batch_round_trip_copies_nothing(self, pair):
        batch = teragen(50_000, seed=3)  # 5 MB of records
        assert batch.nbytes == 5_000_000
        with copytrack.track() as counts:
            msg = _round_trip(pair, ("ok", 0, batch, {"map": 0.1}))
        assert sum(counts.values()) == 0, counts
        got = msg[2]
        assert got == batch and msg[3] == {"map": 0.1}
        assert not got.array.flags.owndata
        assert got.array.flags.writeable
        assert isinstance(_arena_of(got.array), bytearray)

    def test_strided_array_sent_in_band_and_counted(self, pair):
        strided = np.arange(20_000, dtype=np.float64)[::2]
        assert not strided.flags.c_contiguous
        with copytrack.track() as counts:
            got = _round_trip(pair, strided)
        np.testing.assert_array_equal(got, strided)
        assert counts == {"ctrl.inband": strided.nbytes}

    def test_out_of_band_arrays_are_aligned(self, pair):
        got = _round_trip(
            pair, [np.arange(n, dtype=np.float64) for n in (1, 3, 7)]
        )
        for arr in got:
            assert arr.flags.aligned and arr.ctypes.data % 16 == 0

    def test_session_partitions_alias_their_rank_arena(self):
        data = teragen(20_000, seed=5)
        with Session(repro.connect("proc://2", timeout=60)) as session:
            run = session.submit(TeraSortSpec(data=data)).result()
        arenas = []
        for part in run.partitions:
            assert isinstance(part, RecordBatch)
            assert not part.array.flags.owndata
            assert part.array.flags.writeable
            arena = _arena_of(part.array)
            assert isinstance(arena, bytearray)
            arenas.append(arena)
        assert arenas[0] is not arenas[1]
        expected = sort_batch(data)
        start = 0
        for part in run.partitions:
            assert part == expected.slice(start, start + len(part))
            start += len(part)
        assert start == len(expected)


class TestTypedFailures:
    def test_length_table_overrunning_the_frame(self, pair):
        a, b = pair
        send_frame(a, CTRL_TAG, CTRL_HEADER.pack(0, 1000))
        with pytest.raises(TransportError, match="overruns"):
            recv_msg(b)

    def test_truncated_control_header(self, pair):
        a, b = pair
        send_frame(a, CTRL_TAG, b"\x01\x02\x03")
        with pytest.raises(TransportError, match="truncated"):
            recv_msg(b)

    def test_truncated_frame_header(self, pair):
        a, b = pair
        a.sendall(FRAME_HEADER.pack(CTRL_TAG, 64)[:5])
        a.close()
        with pytest.raises(TransportError, match="closed"):
            recv_msg(b)

    def test_eof_mid_frame(self, pair):
        a, b = pair
        a.sendall(FRAME_HEADER.pack(CTRL_TAG, 100) + bytes(10))
        a.close()
        with pytest.raises(TransportError, match="90/100 bytes pending"):
            recv_msg(b)

    def test_lengths_disagreeing_with_frame_size(self, pair):
        a, b = pair
        send_frame(a, CTRL_TAG, CTRL_HEADER.pack(1, 0) + b"..")
        with pytest.raises(TransportError, match="lengths cover"):
            recv_msg(b)

    def test_corrupt_pickle_head(self, pair):
        a, b = pair
        send_frame(a, CTRL_TAG, CTRL_HEADER.pack(4, 0) + b"junk")
        with pytest.raises(TransportError, match="undecodable"):
            recv_msg(b)

    def test_wrong_tag(self, pair):
        a, b = pair
        send_msg(a, ("hb",), tag=CTRL_TAG + 1)
        with pytest.raises(TransportError, match="expected control frame"):
            recv_msg(b)
