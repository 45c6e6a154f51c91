"""The repository benchmark: one workload, one closed loop, checked output.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uncoded-unpaced --seed 1 \
        --seconds 20 --trace 0

``--workload`` is one of the workloads in ``perfbench/workloads.json``.
The run builds its input from ``--seed``, times jobs for ``--seconds``
seconds with one job in flight, and checks every job's output byte for
byte against one stable sort of the whole input.  It prints a readable
table of metrics with their units, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run also writes its spans as Chrome trace-event JSON to
``.perfbench/trace-<workload>-seed<seed>.json``.  The exit code is 1 when
any job failed or any output differed from the oracle.

Inputs, spill files and outputs live in ``.perfbench/`` at the repository
root and are removed when the run ends.  The program is imported from
``src/``; without it the run exits with code 2 before measuring anything.
See ``perfbench/METRICS.md`` for what each metric means and which
workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"


def _print_table(bench, metrics, units) -> None:
    cfg = bench.cfg
    walls = sorted(j.wall_s for j in bench.jobs if j.ok)
    print(
        f"perfbench {bench.name} seed={bench.seed}: {cfg['spec']} "
        f"{cfg['params']} on {cfg['cluster']}, {cfg['records']} records, "
        f"pacing {cfg['rate_bytes_per_s'] or 'off'}, "
        f"budget {cfg['memory_budget'] or 'none'}"
    )
    if len(walls) >= 2:
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        print(
            f"  {len(walls)} timed jobs, wall s median {q2:.3f} "
            f"(q1 {q1:.3f}, q3 {q3:.3f}); set-up median of "
            f"{len(bench.setup_s)} fresh pools"
        )
        print("  job wall s in order: " + " ".join(
            f"{j.wall_s:.3f}" for j in bench.jobs
        ))
        print("  job peak worker RssAnon MB in order: " + " ".join(
            f"{j.peak_rss_bytes / 1e6:.0f}" for j in bench.jobs
        ))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    attempted = max(bench.attempted, 1)
    print(
        f"  {'failed_ratio':34s} {bench.failed / attempted:14.6g} ratio "
        f"({bench.failed} of {bench.attempted} attempted)"
    )
    for failure in bench.failures:
        print(f"  FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    config = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(config["workloads"])
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    work = SCRATCH / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    (work / "spill").mkdir(parents=True)
    # Spill files and any temporary file the program makes stay inside the
    # checkout; forked workers inherit both variables.
    os.environ["REPRO_SPILL_DIR"] = str(work / "spill")
    os.environ["TMPDIR"] = str(work)
    sys.path.insert(0, str(SRC))
    from workload import END_TO_END, PER_LAYER, WorkloadRun

    try:
        bench = WorkloadRun(
            args.workload, config, args.seed, args.seconds,
            bool(args.trace), work,
        )
        bench.run()
        if args.trace:
            bench.tracer.write(
                str(SCRATCH / f"trace-{args.workload}-seed{args.seed}.json")
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    if bench.ok_jobs():
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    else:
        metrics = {}
    _print_table(bench, metrics, units)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
