"""Spans around the benchmark's calls into each engine layer.

A span records name, start, end (wall clock, seconds) and the id of the
span that caused it. Spans stay in memory and are written out once, at the
end of the run. While a span is open, every Ray Data execution that
finishes in this process adds a child span ``raydata.execution`` carrying
Ray Data's own per-operator summary (wall, CPU, rows and bytes out), read
from the executor when it shuts down.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.active = False
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.active:
            yield None
            return
        rec = self._open(name, **attrs)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.time()
            self._stack.pop()

    def _open(self, name: str, start: float | None = None, **attrs) -> dict:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.time() if start is None else start, "end": None, **attrs}
        self.spans.append(rec)
        return rec

    def record_execution(self, summary) -> None:
        """Child span for one finished Ray Data execution."""
        if not self.active or not self._stack:
            return
        ops, pending = [], [summary]
        while pending:  # an execution's summary chains its operators as parents
            s = pending.pop()
            pending.extend(s.parents)
            for op in s.operators_stats:
                ops.append({
                    "operator": op.operator_name,
                    "wall_s": (op.wall_time or {}).get("sum", 0.0),
                    "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                    "rows_out": (op.output_num_rows or {}).get("sum", 0),
                    "bytes_out": (op.output_size_bytes or {}).get("sum", 0),
                })
        end = time.time()
        rec = self._open("raydata.execution", start=end - summary.time_total_s,
                         operators=ops)
        rec["end"] = end

    def children(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover."""
        lo, hi = span["start"], span["end"]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted((max(lo, c["start"]), min(hi, c["end"]))
                           for c in self.children(span["id"])):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (hi - lo) - covered

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "spans": self.spans}, f, indent=1)


def install_raydata_hook(tracer: Tracer):
    """Report each finished Ray Data execution to ``tracer``; returns the
    function that removes the hook."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    original = StreamingExecutor.shutdown

    def shutdown(self, *args, **kwargs):
        first = not getattr(self, "_shutdown", False)
        result = original(self, *args, **kwargs)
        stats = getattr(self, "_final_stats", None)
        if first and stats is not None:
            tracer.record_execution(stats.to_summary())
        return result

    StreamingExecutor.shutdown = shutdown
    return lambda: setattr(StreamingExecutor, "shutdown", original)
