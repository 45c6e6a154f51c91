"""Process measurements read from ``/proc`` (Linux only, no dependencies).

The benchmark measures the program from outside: CPU seconds and
anonymous resident memory of the client process and its forked workers
come from the kernel's per-process accounting, not from anything the
program reports about itself.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, List

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, from every thread's ``children`` list."""
    pids: List[int] = []
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children") as f:
                pids.extend(int(p) for p in f.read().split())
        except FileNotFoundError:  # the thread exited while we listed
            continue
    return sorted(set(pids))


def cpu_seconds(pids: Iterable[int]) -> Dict[int, float]:
    """User + system CPU seconds used so far by each pid (all its threads).

    Pids that have exited are left out.
    """
    out: Dict[int, float] = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                # The command name may hold spaces; fields resume after ')'.
                fields = f.read().rpartition(")")[2].split()
        except FileNotFoundError:
            continue
        out[pid] = (int(fields[11]) + int(fields[12])) / _TICKS_PER_S
    return out


def rss_anon_bytes(pid: int) -> int:
    """The process's current ``RssAnon`` in bytes.

    A process that has exited but not yet been reaped has no memory
    lines in its status; it holds no memory, so it reads 0.
    """
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) * 1024
    return 0


class RssSampler:
    """Tracks the highest ``RssAnon`` of any watched process, from one thread.

    Sampling runs between :meth:`start` and :meth:`stop`, and on each
    :meth:`sample` call.  The set of watched pids can be replaced while it
    runs (a pool that re-forks after a failure gets new worker pids).
    """

    def __init__(self, interval_s: float = 0.01) -> None:
        self._interval = interval_s
        self._pids: List[int] = []
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def watch(self, pids: Iterable[int]) -> None:
        with self._lock:
            self._pids = list(pids)

    def take_peak(self) -> int:
        """The highest reading since the last call (bytes); starts afresh."""
        with self._lock:
            peak, self._peak = self._peak, 0
        return peak

    def sample(self) -> None:
        """Read every watched pid once (pids that have exited are skipped)."""
        with self._lock:
            pids = list(self._pids)
        high = 0
        for pid in pids:
            try:
                high = max(high, rss_anon_bytes(pid))
            except FileNotFoundError:
                continue
        with self._lock:
            self._peak = max(self._peak, high)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self.sample()

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="rss-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
