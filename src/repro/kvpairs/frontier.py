"""Key-index merge frontier: the in-memory streaming reduce.

A node's reduce partition arrives as *pieces* — its own map output and
every decoded or received chunk — each belonging to a priority **slot**
(the slot order is the staged reduce's concatenation order; pieces of one
slot arrive in stream order).  The staged reduce is one stable sort of
that concatenation; :class:`KeyMergeFrontier` produces the same bytes
while doing almost all of the work on keys alone, in small units an
event loop can run while it waits on the network:

* a piece is held **unsorted**; one unit argsorts its key words
  (``hi`` = first 8 key bytes, ``lo`` = last 2, see
  :meth:`~repro.kvpairs.records.RecordBatch.key_words`) into a *key run*
  of ``(hi, lo, id)`` columns — 18 bytes a record instead of 100;
* one unit stably merges two *adjacent* key runs, the higher-priority
  run winning ties.  Runs of one slot are always adjacent; runs of two
  slots only once every slot between them is closed (no later piece can
  land in between).  Of the mergeable pairs the smallest goes first, so
  the merge tree stays balanced while pieces keep arriving;
* the last unit moves the 100-byte records exactly **once**: one
  scatter of every piece into the output at its merged position.

Both the argsort and the merges order by ``hi`` only, then repair the
runs of equal ``hi`` whose ``lo`` (or, after the unstable piece argsort,
whose stream position) is out of order — a pass that finds nothing on
TeraGen keys, and reorders just the tied groups on adversarial ones.
Full-key ties keep priority order, so the result is byte-identical to
``sort_batch(RecordBatch.concat(pieces in slot order))``.

Pieces must be owned memory (never views into a receive arena): the
frontier holds them until the final scatter.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.kvpairs import kernels
from repro.kvpairs.records import RECORD_BLOB, RECORD_DTYPE, RecordBatch


class _KeyRun:
    """Sorted key columns of some pieces: ``ids`` index the arrival space."""

    __slots__ = ("hi", "lo", "ids")

    def __init__(self, hi: np.ndarray, lo: np.ndarray, ids: np.ndarray):
        self.hi = hi
        self.lo = lo
        self.ids = ids

    def __len__(self) -> int:
        return len(self.hi)


def _settle_ties(
    hi: np.ndarray, lo: np.ndarray, ids: np.ndarray, by_id: bool
) -> None:
    """Reorder, in place, each run of equal ``hi`` that is out of order.

    Inside a run of equal ``hi`` the order must be ``lo`` ascending and
    then priority: the current order (``by_id=False``, after a stable
    merge) or ascending ``ids`` (``by_id=True``, after the unstable piece
    argsort, where ids follow stream order).  Only the runs holding an
    inversion are re-sorted.
    """
    eq = hi[1:] == hi[:-1]
    if not eq.any():
        return
    bad = lo[1:] < lo[:-1]
    if by_id:
        bad |= (lo[1:] == lo[:-1]) & (ids[1:] < ids[:-1])
    bad &= eq
    if not bad.any():
        return
    group = np.empty(len(hi), dtype=np.intp)
    group[0] = 0
    np.cumsum(~eq, out=group[1:])
    dirty = np.zeros(int(group[-1]) + 1, dtype=bool)
    dirty[group[1:][bad]] = True
    sub = np.flatnonzero(dirty[group])
    keys = (lo[sub], group[sub])
    if by_id:
        keys = (ids[sub],) + keys
    perm = np.lexsort(keys)
    lo[sub] = lo[sub][perm]
    ids[sub] = ids[sub][perm]


def _sort_piece(batch: RecordBatch, base: int) -> _KeyRun:
    hi, lo = batch.key_words()
    order = np.argsort(hi)
    ids = order.astype(np.intp, copy=False) + base
    run = _KeyRun(hi[order], lo[order], ids)
    _settle_ties(run.hi, run.lo, run.ids, by_id=True)
    return run


def _merge_runs(first: _KeyRun, second: _KeyRun) -> _KeyRun:
    """Stable merge of two key runs; ``first`` wins ties."""
    hi = np.concatenate((first.hi, second.hi))
    # Stable argsort of two concatenated sorted runs is one linear merge
    # (NumPy's stable sort finds the runs and gallops between them).
    order = np.argsort(hi, kind="stable")
    run = _KeyRun(
        hi[order],
        np.concatenate((first.lo, second.lo))[order],
        np.concatenate((first.ids, second.ids))[order],
    )
    _settle_ties(run.hi, run.lo, run.ids, by_id=False)
    kernels.stats.merge_records += len(run)
    return run


class KeyMergeFrontier:
    """Incremental stable sort of slotted pieces; see the module docstring.

    Args:
        num_slots: priority slots; pieces of slot ``i`` sort before equal
            keys of slot ``i + 1``.

    Typical use: :meth:`feed` pieces as they become available,
    :meth:`close` each slot after its last piece, run :meth:`step` while
    there is time to spare, and take the sorted partition from
    :meth:`finish`.
    """

    def __init__(self, num_slots: int) -> None:
        self._pieces: List[Optional[RecordBatch]] = []
        self._bases: List[int] = []
        self._total = 0
        # Per slot, in stream order: an unsorted piece (its index in
        # ``_pieces``) or a key run.
        self._slots: List[List[Union[int, _KeyRun]]] = [
            [] for _ in range(num_slots)
        ]
        self._closed = [False] * num_slots
        self._result: Optional[RecordBatch] = None

    @property
    def closed(self) -> bool:
        """True once every slot is closed (the remaining units end in the
        final scatter)."""
        return all(self._closed)

    def feed(self, slot: int, batch: RecordBatch) -> None:
        """Add the next piece of ``slot``; the frontier keeps a reference."""
        if self._closed[slot]:
            raise RuntimeError(f"slot {slot} is closed")
        if len(batch) == 0:
            return
        self._slots[slot].append(len(self._pieces))
        self._pieces.append(batch)
        self._bases.append(self._total)
        self._total += len(batch)

    def close(self, slot: int) -> None:
        """Declare that ``slot`` receives no further pieces."""
        self._closed[slot] = True

    def step(self) -> bool:
        """Run one bounded unit of work; False when none is possible now.

        Units, in order of preference: argsort the highest-priority
        unsorted piece; merge the smallest adjacent mergeable pair of key
        runs; once every slot is closed and one run is left, scatter the
        records into the output.
        """
        if self._result is not None:
            return False
        for entries in self._slots:
            for i, entry in enumerate(entries):
                if isinstance(entry, int):
                    entries[i] = _sort_piece(
                        self._pieces[entry], self._bases[entry]
                    )
                    return True
        pair = self._smallest_pair()
        if pair is not None:
            (ls, li), (rs, ri) = pair
            merged = _merge_runs(self._slots[ls][li], self._slots[rs][ri])
            # The merged run takes the right run's place; the left one
            # is its slot's last entry (or the same slot's predecessor).
            self._slots[rs][ri] = merged
            del self._slots[ls][li]
            return True
        if self.closed:
            self._result = self._scatter()
            return True
        return False

    def _smallest_pair(
        self,
    ) -> Optional[Tuple[Tuple[int, int], Tuple[int, int]]]:
        best = None
        best_size = 0
        prev: Optional[Tuple[int, int]] = None
        prev_len = 0
        for s, entries in enumerate(self._slots):
            for i, run in enumerate(entries):
                if prev is not None:
                    size = prev_len + len(run)
                    if best is None or size < best_size:
                        best, best_size = (prev, (s, i)), size
                prev, prev_len = (s, i), len(run)
            if not self._closed[s]:
                # A later piece of this slot would land between its runs
                # and the next slot's: nothing merges across it yet.
                prev = None
        return best

    def _scatter(self) -> RecordBatch:
        """Move every record once, to its merged position."""
        runs = [run for entries in self._slots for run in entries]
        self._slots = [[] for _ in self._slots]
        if not runs:
            return RecordBatch.empty()
        (run,) = runs
        where = np.empty(self._total, dtype=np.intp)
        where[run.ids] = np.arange(self._total, dtype=np.intp)
        out = np.empty(self._total, dtype=RECORD_DTYPE)
        blob = out.view(RECORD_BLOB)
        for p, piece in enumerate(self._pieces):
            base = self._bases[p]
            blob[where[base:base + len(piece)]] = piece.array.view(RECORD_BLOB)
            self._pieces[p] = None  # release each piece once it has moved
        return RecordBatch(out)

    def finish(self) -> RecordBatch:
        """Close every slot, run the remaining units, return the output."""
        self._closed = [True] * len(self._closed)
        while self.step():
            pass
        assert self._result is not None
        return self._result
