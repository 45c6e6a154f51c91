"""In-memory spans, written once at the end as Chrome trace-event JSON.

Spans are recorded by the benchmark around its calls into the program
(job submission, result wait, output check, layer replays); nothing is
traced inside the program itself.  The output opens in Perfetto or
``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[str], Optional[int], Dict[str, Any]]

#: Trace-viewer row per span family, so nested spans stack on one row.
_LANES = {"setup": 0, "job": 1, "replay": 2}


class Tracer:
    """Collects (name, start, end, parent, job id, args) spans when enabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._origin = time.perf_counter()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[str] = None,
        job: Optional[int] = None,
        **args: Any,
    ) -> None:
        if self.enabled:
            self.spans.append((name, start, end, parent, job, args))

    def write(self, path: str) -> None:
        """Write every span as a complete ("X") trace event."""
        pid = os.getpid()
        events = []
        for name, start, end, parent, job, args in self.spans:
            family = (parent or name).split(".")[0]
            events.append({
                "name": name,
                "ph": "X",
                "ts": (start - self._origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": _LANES.get(family, 3),
                "args": {"parent": parent, "job": job, **args},
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
