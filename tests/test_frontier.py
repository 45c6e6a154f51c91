"""Key-index merge frontier: the in-memory streaming reduce.

The contract the overlapped sorts' byte-identity rests on: whatever the
arrival order of the pieces, however the slots are closed and however
many units run in between, :meth:`KeyMergeFrontier.finish` returns
exactly ``sort_batch(RecordBatch.concat(pieces in slot order))``.  The
lattice below draws 1–30 slots, several pieces per slot, empty pieces
and empty slots, every arrival interleaving, and four key families —
TeraGen keys, duplicate-heavy keys, all-equal keys, and keys sharing
their first 8 bytes (so every order decision falls to the 2-byte suffix
and the tie repair).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvpairs import kernels
from repro.kvpairs.frontier import KeyMergeFrontier
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.sorting import sort_batch
from repro.kvpairs.teragen import teragen


def _keyed(keys: np.ndarray, seed: int) -> RecordBatch:
    """Records with the given ``(n, 10)`` uint8 keys and unique values."""
    n = len(keys)
    values = np.zeros((n, 90), np.uint8)
    values[:, :8] = (
        (np.arange(n, dtype=np.uint64) + np.uint64(seed << 20))
        .astype(">u8").view(np.uint8).reshape(n, 8)
    )
    return RecordBatch.from_arrays(keys, values)


def _piece(keyset: str, n: int, seed: int) -> RecordBatch:
    if keyset == "teragen":
        return teragen(n, seed=seed)
    rng = np.random.default_rng(seed)
    keys = np.zeros((n, 10), np.uint8)
    if keyset == "duplicates":
        keys[:, 0] = rng.integers(0, 3, n)
        keys[:, 9] = rng.integers(0, 3, n)
    elif keyset == "suffix":
        keys[:, :8] = np.frombuffer(b"SHAREDPR", np.uint8)
        keys[:, 8:] = rng.integers(0, 4, size=(n, 2))
    else:  # all-equal
        keys[:] = 7
    return _keyed(keys, seed)


@st.composite
def _cases(draw):
    k = draw(st.integers(1, 30))
    counts = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    return dict(
        keyset=draw(
            st.sampled_from(["teragen", "duplicates", "suffix", "equal"])
        ),
        sizes=[
            draw(st.lists(
                st.one_of(st.just(0), st.integers(1, 40)),
                min_size=c, max_size=c,
            ))
            for c in counts
        ],
        seed=draw(st.integers(0, 2**16)),
    )


class TestLattice:
    """Byte-identical to one stable sort of the slot-ordered pieces."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=_cases())
    def test_matches_stable_sort_of_concat(self, case):
        keyset, sizes, seed = case["keyset"], case["sizes"], case["seed"]
        slots = [
            [_piece(keyset, n, seed + 97 * s + j) for j, n in enumerate(row)]
            for s, row in enumerate(sizes)
        ]
        expect = sort_batch(
            RecordBatch.concat([p for row in slots for p in row])
        ).to_bytes()

        rng = np.random.default_rng(seed)
        events = [s for s, row in enumerate(slots) for _ in row]
        for _ in range(3):
            # Any interleaving across slots; stream order within a slot.
            order = rng.permutation(events)
            fed = [0] * len(slots)
            frontier = KeyMergeFrontier(len(slots))
            for s in order:
                frontier.feed(int(s), slots[s][fed[s]])
                fed[s] += 1
                if fed[s] == len(slots[s]) and rng.random() < 0.7:
                    frontier.close(int(s))
                for _ in range(int(rng.integers(0, 4))):
                    frontier.step()
            # Empty slots and slots left open are closed by finish().
            assert frontier.finish().to_bytes() == expect


class TestUnits:
    def test_suffix_ties_resolved_across_merges(self):
        # Every key shares its 8-byte prefix: the hi-only merge puts all
        # of the first run ahead of the second, and the tie repair must
        # interleave them by the 2-byte suffix, priority breaking ties.
        a = _piece("suffix", 50, seed=1)
        b = _piece("suffix", 50, seed=2)
        frontier = KeyMergeFrontier(2)
        frontier.feed(0, a)
        frontier.feed(1, b)
        out = frontier.finish()
        assert out.to_bytes() == sort_batch(RecordBatch.concat([a, b])).to_bytes()

    def test_open_slot_blocks_merges_across_it(self):
        frontier = KeyMergeFrontier(3)
        frontier.feed(0, teragen(10, seed=1))
        frontier.feed(2, teragen(10, seed=2))
        frontier.close(0)
        frontier.close(2)
        # Slot 1 is open: both pieces sort, nothing merges, no scatter.
        assert frontier.step() and frontier.step()
        assert not frontier.step()
        frontier.close(1)
        assert frontier.step()  # the merge across the empty closed slot
        assert frontier.step()  # the scatter
        assert not frontier.step()

    def test_merge_records_counted(self, monkeypatch):
        monkeypatch.setattr(kernels, "stats", kernels.KernelStats())
        frontier = KeyMergeFrontier(4)
        for slot in range(4):
            frontier.feed(slot, teragen(100, seed=slot))
        frontier.finish()
        # A balanced tree over four equal pieces: two pair merges of 200
        # records, then one of 400.
        assert kernels.stats.merge_records == 800

    def test_feed_after_close_rejected(self):
        frontier = KeyMergeFrontier(1)
        frontier.close(0)
        with pytest.raises(RuntimeError, match="closed"):
            frontier.feed(0, teragen(5, seed=1))

    def test_empty(self):
        assert len(KeyMergeFrontier(3).finish()) == 0
        assert len(KeyMergeFrontier(0).finish()) == 0

    def test_pieces_released_after_scatter(self):
        frontier = KeyMergeFrontier(1)
        frontier.feed(0, teragen(20, seed=3))
        frontier.finish()
        assert frontier._pieces == [None]
