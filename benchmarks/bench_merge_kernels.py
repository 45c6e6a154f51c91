"""Merge/partition kernel microbenchmark: OVC + radix vs classic.

Quantifies the compute-kernel layer of :mod:`repro.kvpairs.kernels` in
isolation, on the same data through both implementations:

* **merge** — k-way :func:`~repro.kvpairs.sorting.merge_sorted` of
  in-RAM sorted runs (the Reduce hot loop), TeraGen keys;
* **duplicates** — the same merge on duplicate-heavy keys, where the
  OVC column's distinct-group compression does the work;
* **external** — :func:`~repro.kvpairs.spill.merge_runs` over runs
  spilled by :class:`~repro.kvpairs.spill.ExternalSorter`.  Both lanes
  walk the same full-window rounds; the ovc lane merges each round with
  one stable sort of the concatenated heads (the runs' ``.ovc`` sidecars
  only let it skip re-validating sortedness), the classic lane with the
  seed pairwise tournament;
* **partition** — map-side :func:`~repro.core.mapper.hash_file`
  (radix-table partition indices + radix grouping vs ``searchsorted`` +
  ``int64`` stable argsort).

Every lane asserts the two implementations produce **byte-identical**
output before reporting numbers.  The ``ovc`` block also reports the
comparison-byte accounting from :data:`repro.kvpairs.kernels.stats`:
what fraction of rank queries resolved on the cached prefix word, the
estimated key bytes examined per query (classic: 10), and how many
records never issued a query at all (duplicate compression).

Usage::

    PYTHONPATH=src python benchmarks/bench_merge_kernels.py --quick \
        [--out results/merge_kernels.json]

``--quick`` is the CI smoke; the regression gate
(``check_regression.py --kind merge_kernels``) checks the speedup
ratios and the ovc merge throughput against
``results/baseline_merge_kernels_quick.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Callable, Dict, Tuple

import numpy as np

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.mapper import hash_file  # noqa: E402
from repro.core.partitioner import RangePartitioner  # noqa: E402
from repro.kvpairs import kernels  # noqa: E402
from repro.kvpairs.kernels import KERNELS_ENV  # noqa: E402
from repro.kvpairs.records import (  # noqa: E402
    KEY_BYTES,
    RECORD_BYTES,
    RecordBatch,
    VALUE_BYTES,
)
from repro.kvpairs.sorting import merge_sorted, sort_batch  # noqa: E402
from repro.kvpairs.spill import (  # noqa: E402
    ExternalSorter,
    SpillDir,
    merge_runs,
)
from repro.kvpairs.teragen import teragen  # noqa: E402

RESULTS_DIR = REPO / "results"


def _timeit(fn: Callable, reps: int) -> Tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _ab(fn: Callable, reps: int) -> Tuple[Dict, Dict]:
    """Run ``fn`` under both kernel modes; returns (times, outputs)."""
    times, outs = {}, {}
    for mode in ("classic", "ovc"):
        os.environ[KERNELS_ENV] = mode
        times[mode], outs[mode] = _timeit(fn, reps)
    return times, outs


def _split_runs(stream: RecordBatch, k: int):
    per = len(stream) // k
    return [
        sort_batch(stream.slice(i * per, (i + 1) * per if i < k - 1 else len(stream)))
        for i in range(k)
    ]


def _dup_heavy(n: int, distinct: int, seed: int) -> RecordBatch:
    rng = np.random.default_rng(seed)
    pool = np.array(
        [f"DUP{i:05d}xx".encode() for i in range(distinct)],
        dtype=f"S{KEY_BYTES}",
    )
    keys = pool[rng.integers(0, distinct, size=n)]
    values = np.zeros(n, dtype=f"S{VALUE_BYTES}")
    return RecordBatch.from_arrays(keys, values)


def _lane_result(times: Dict, nbytes: int) -> Dict:
    return {
        "classic_seconds": times["classic"],
        "ovc_seconds": times["ovc"],
        "classic_mbps": nbytes / 1e6 / times["classic"],
        "ovc_mbps": nbytes / 1e6 / times["ovc"],
        "speedup": times["classic"] / times["ovc"],
    }


def bench_merge(n: int, k: int, reps: int, dup: bool) -> Dict:
    name = "duplicates" if dup else "merge"
    stream = _dup_heavy(n, max(4, n // 200), seed=3) if dup else teragen(n, seed=1)
    runs = _split_runs(stream, k)
    kernels.stats.reset()
    times, outs = _ab(lambda: merge_sorted(runs), reps)
    if outs["classic"].array.tobytes() != outs["ovc"].array.tobytes():
        raise RuntimeError(f"{name}: kernel outputs diverged")
    lane = _lane_result(times, n * RECORD_BYTES)
    lane.update({"records": n, "runs": k})
    print(f"[{name}] k={k} n={n}: classic {lane['classic_mbps']:.0f} MB/s, "
          f"ovc {lane['ovc_mbps']:.0f} MB/s ({lane['speedup']:.2f}x)",
          flush=True)
    return lane


def bench_external(n: int, k: int, window: int, reps: int) -> Dict:
    stream = teragen(n, seed=5)
    chunk_bytes = max(RECORD_BYTES, n * RECORD_BYTES // k)
    times, sums = {}, {}
    for mode in ("classic", "ovc"):
        os.environ[KERNELS_ENV] = mode
        with SpillDir(f"bench-{mode}") as spill:
            sorter = ExternalSorter(spill, chunk_bytes=chunk_bytes)
            for piece in stream.iter_slices(max(1, n // (2 * k))):
                sorter.add(piece)
            spilled = sorter.finish()

            def consume():
                total = 0
                for batch in merge_runs(
                    spilled, window_records=window, out_records=window
                ):
                    total += len(batch)
                return total

            times[mode], sums[mode] = _timeit(consume, reps)
    if sums["classic"] != sums["ovc"] or sums["ovc"] != n:
        raise RuntimeError("external: record counts diverged")
    lane = _lane_result(times, n * RECORD_BYTES)
    lane.update({"records": n, "runs": k, "window_records": window})
    print(f"[external] k={k} n={n} window={window}: classic "
          f"{lane['classic_mbps']:.0f} MB/s, ovc {lane['ovc_mbps']:.0f} MB/s "
          f"({lane['speedup']:.2f}x)", flush=True)
    return lane


def bench_partition(n: int, num_partitions: int, reps: int) -> Dict:
    batch = teragen(n, seed=9)
    part = RangePartitioner.uniform(num_partitions)
    times, outs = _ab(lambda: hash_file(batch, part), reps)
    for c, o in zip(outs["classic"], outs["ovc"]):
        if c.array.tobytes() != o.array.tobytes():
            raise RuntimeError("partition: kernel outputs diverged")
    lane = _lane_result(times, n * RECORD_BYTES)
    lane.update({"records": n, "partitions": num_partitions})
    print(f"[partition] K={num_partitions} n={n}: classic "
          f"{lane['classic_mbps']:.0f} MB/s, ovc {lane['ovc_mbps']:.0f} MB/s "
          f"({lane['speedup']:.2f}x end-to-end hash_file)", flush=True)

    # The index pass alone (partition indices + grouping permutation +
    # counts) — the part the kernels replace; end-to-end hash_file is
    # dominated by the 100-byte record gather, identical in both modes.
    def index_pass():
        idx = part.partition_indices(batch)
        if kernels.use_ovc():
            return kernels.group_by_partition(idx, num_partitions)
        order = np.argsort(idx, kind="stable")
        counts = np.bincount(idx, minlength=num_partitions)
        return order, counts

    itimes, iouts = _ab(index_pass, reps)
    if not all(np.array_equal(a, b) for a, b in zip(*iouts.values())):
        raise RuntimeError("partition: index passes diverged")
    lane["index"] = {
        "classic_seconds": itimes["classic"],
        "ovc_seconds": itimes["ovc"],
        "speedup": itimes["classic"] / itimes["ovc"],
    }
    lane["index_speedup"] = lane["index"]["speedup"]
    print(f"[partition] index pass: classic {itimes['classic']*1e3:.1f} ms, "
          f"ovc {itimes['ovc']*1e3:.1f} ms "
          f"({lane['index_speedup']:.2f}x)", flush=True)
    return lane


def ovc_accounting(n: int, k: int) -> Dict:
    """One instrumented ovc merge: what did the codes actually save?"""
    os.environ[KERNELS_ENV] = "ovc"
    mixed = RecordBatch.concat(
        [teragen(n // 2, seed=2), _dup_heavy(n - n // 2, max(4, n // 400), 8)]
    )
    runs = _split_runs(mixed, k)
    kernels.stats.reset()
    merge_sorted(runs)
    snap = kernels.stats.snapshot()
    queries = snap["rank_queries"] or 1
    return {
        **snap,
        "fallback_fraction": snap["fallback_queries"] / queries,
        "key_bytes_per_query": kernels.stats.key_bytes_per_query(),
        "classic_key_bytes_per_query": float(KEY_BYTES),
        "dup_skip_fraction": snap["dup_records_skipped"]
        / max(1, snap["merge_records"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (sub-second lanes)")
    parser.add_argument("--records", type=int, default=2_000_000)
    parser.add_argument("--runs", "-k", type=int, default=8)
    parser.add_argument("--partitions", "-K", type=int, default=16)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    n = 400_000 if args.quick else args.records
    reps = args.reps or (3 if args.quick else 5)
    prior = os.environ.get(KERNELS_ENV)
    try:
        results = {
            "records": n,
            "quick": bool(args.quick),
            "merge": bench_merge(n, args.runs, reps, dup=False),
            "duplicates": bench_merge(
                max(n // 2, 1000), args.runs, reps, dup=True
            ),
            "external": bench_external(
                max(n // 2, 1000), 4, 16384, max(1, reps - 1)
            ),
            "partition": bench_partition(n, args.partitions, reps),
            "ovc": ovc_accounting(max(n // 2, 1000), args.runs),
        }
    finally:
        if prior is None:
            os.environ.pop(KERNELS_ENV, None)
        else:
            os.environ[KERNELS_ENV] = prior

    ovc = results["ovc"]
    print(f"[ovc] {ovc['key_bytes_per_query']:.2f} key bytes/query "
          f"(classic {KEY_BYTES}), fallback {ovc['fallback_fraction']:.2%}, "
          f"{ovc['dup_records_skipped']} dup records skipped "
          f"({ovc['dup_skip_fraction']:.0%} of merged)", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=2, sort_keys=True))
        print(f"wrote {args.out}")
    print(f"PASS: byte-identical on all lanes; merge {results['merge']['speedup']:.2f}x, "
          f"duplicates {results['duplicates']['speedup']:.2f}x, "
          f"external {results['external']['speedup']:.2f}x, "
          f"partition {results['partition']['speedup']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
