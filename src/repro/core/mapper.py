"""The Map stage: hashing files into per-partition intermediate values.

§III-A3: hashing file ``F`` under a ``K``-way partitioner produces the
intermediate values ``{I^1_F, ..., I^K_F}`` where ``I^j_F`` holds the KV
pairs of ``F`` whose keys fall in partition ``P_j``.  The split is done with
one vectorized stable argsort over partition indices (a counting-sort-style
grouping), no per-record Python work.

§IV-B adds the coded *retention rule*: after mapping file ``F_S`` on node
``k`` (``k ∈ S``), only ``I^k_S`` (needed by ``k`` itself) and
``{I^i_S : i ∉ S}`` (to be encoded for nodes outside ``S``) are kept —
``I^i_S`` for other ``i ∈ S`` is discarded because node ``i`` computes it
locally.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.partitioner import RangePartitioner
from repro.kvpairs import kernels
from repro.kvpairs.records import RECORD_BLOB, RECORD_DTYPE, RecordBatch
from repro.utils.subsets import Subset


def _partition_order(
    data: RecordBatch, partitioner: RangePartitioner
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable grouping of ``data`` by partition: ``(order, bounds)``.

    ``order[bounds[j]:bounds[j + 1]]`` are the row indices of partition
    ``j``, in input order.
    """
    k = partitioner.num_partitions
    idx = partitioner.partition_indices(data)
    if kernels.use_ovc():
        order, counts = kernels.group_by_partition(idx, k)
    else:
        order = np.argsort(idx, kind="stable")
        counts = np.bincount(idx, minlength=k)
    bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return order, bounds


def hash_file(
    data: RecordBatch, partitioner: RangePartitioner
) -> List[RecordBatch]:
    """Split ``data`` into ``K`` per-partition intermediate values.

    Returns:
        ``out[j] = I^j`` — the records of ``data`` whose key falls in
        partition ``j``; concatenating all outputs is a permutation of the
        input.  The outputs are views into one grouped copy of ``data``.
    """
    k = partitioner.num_partitions
    if len(data) == 0:
        return [RecordBatch.empty() for _ in range(k)]
    order, bounds = _partition_order(data, partitioner)
    grouped = data.take(order)
    return grouped.split_at([int(o) for o in bounds[1:-1]])


def hash_retained(
    data: RecordBatch, partitioner: RangePartitioner, targets: Sequence[int]
) -> Dict[int, RecordBatch]:
    """Hash ``data`` but keep only the partitions in ``targets``.

    ``out[t]`` equals ``hash_file(data, partitioner)[t]`` byte for byte,
    as an owned batch: each retained record moves once (one gather per
    target) and discarded records never move — the coded retention rule
    without a grouped copy of the whole file to cut views from.
    """
    if len(data) == 0:
        return {t: RecordBatch.empty() for t in targets}
    order, bounds = _partition_order(data, partitioner)
    blob = data.array.view(RECORD_BLOB)
    return {
        t: RecordBatch(
            blob[order[bounds[t]:bounds[t + 1]]].view(RECORD_DTYPE)
        )
        for t in targets
    }


def map_node_uncoded(
    file_data: RecordBatch,
    partitioner: RangePartitioner,
) -> List[RecordBatch]:
    """TeraSort's Map at one node: hash its single file (keep everything)."""
    return hash_file(file_data, partitioner)


def map_node_coded(
    node: int,
    files: Dict[int, RecordBatch],
    subsets: Dict[int, Subset],
    partitioner: RangePartitioner,
) -> Dict[int, Dict[int, RecordBatch]]:
    """CodedTeraSort's Map at ``node``: hash every local file, apply retention.

    Args:
        node: this node's rank ``k``.
        files: file id -> file data, the files placed on this node.
        subsets: file id -> node subset ``S`` of that file (``node ∈ S``).
        partitioner: the shared ``K``-way partitioner.

    Returns:
        ``kept[file_id][j] = I^j_S`` for exactly the retained targets:
        ``j == node`` and every ``j ∉ S``.
    """
    kept: Dict[int, Dict[int, RecordBatch]] = {}
    for file_id, data in files.items():
        subset = subsets[file_id]
        if node not in subset:
            raise ValueError(
                f"node {node} asked to map file {file_id} of subset {subset}"
            )
        in_subset = set(subset)
        kept[file_id] = hash_retained(
            data,
            partitioner,
            [node] + [
                j for j in range(partitioner.num_partitions)
                if j not in in_subset
            ],
        )
    return kept


def map_output_bytes(kept: Dict[int, Dict[int, RecordBatch]]) -> int:
    """Total retained intermediate bytes (memory-footprint diagnostics)."""
    return sum(
        batch.nbytes for per_file in kept.values() for batch in per_file.values()
    )
