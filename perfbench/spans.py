"""In-memory span recording, per-layer self time and Chrome trace export."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: the same call sites, nothing recorded."""

    def span(self, name, sample=None):
        return nullcontext()


class Tracer:
    """Records one span per call: name, start and end (perf_counter_ns),
    the enclosing span's index and the sample id.  Spans stay in memory
    until the run ends."""

    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent, sample]
        self._open = []

    @contextmanager
    def span(self, name, sample=None):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter_ns(), None, parent, sample]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter_ns()

    def self_times(self) -> dict:
        """name -> (calls, total self ns, total duration ns).  Self time is
        a span's duration minus that of its children; spans are recorded
        from one thread, so children never overlap."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            calls, own, total = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, own + end - start - inner, total + end - start)
        return out

    def write_chrome(self, path) -> None:
        """Write the spans as Chrome trace-event JSON ("X" complete events,
        microseconds), which chrome://tracing and Perfetto open."""
        t0 = min((s[1] for s in self.spans), default=0)
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - t0) / 1000, "dur": (end - start) / 1000,
                   "args": {"id": i, "parent": parent, "sample": sample}}
                  for i, (name, start, end, parent, sample) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
