"""In-memory spans recorded by the benchmark around its calls into the library.

A span has a name, a start and end (``perf_counter_ns``), the span that was
open when it started (its parent) and a request id shared by every span of one
query or write.  Spans stay in memory and are written out once, when the run
ends.  A span's self time is its duration minus the part of it that its child
spans cover.

With tracing off, ``span`` hands back one shared no-op context manager, so the
untraced run pays one attribute test per call.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()


class Span:
    __slots__ = ("sid", "name", "parent", "request", "start", "end", "attrs")

    def __init__(self, sid: int, name: str, parent: Optional[int], request: int, attrs):
        self.sid, self.name, self.parent, self.request = sid, name, parent, request
        self.start = self.end = 0
        self.attrs = attrs

    @property
    def ns(self) -> int:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer, self.span = tracer, span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.span)
        self.span.start = time.perf_counter_ns()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter_ns()
        self.tracer._stack.pop()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_request = 0

    def new_request(self) -> int:
        self._next_request += 1
        return self._next_request

    def span(self, name: str, request: Optional[int] = None, **attrs):
        """Context manager timing one call.  A span with no explicit request id
        joins its parent's request, or opens a new one at top level."""
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        if request is None:
            request = parent.request if parent else self.new_request()
        s = Span(len(self.spans), name, parent.sid if parent else None, request, attrs)
        self.spans.append(s)
        return _Open(self, s)

    def self_ns(self) -> Dict[int, int]:
        """Span id -> self time: duration minus the union of its children."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, cur_lo, cur_hi = 0, None, None
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, s.start), min(c.end, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.sid] = s.ns - covered
        return out

    def self_seconds_by_name(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        out: Dict[str, float] = {}
        for sid, ns in self.self_ns().items():
            name = self.spans[sid].name
            out[name] = out.get(name, 0.0) + ns / 1e9
        return out

    def request_gap(self, walls: Dict[int, int]) -> float:
        """Largest |sum of a request's span self times - its wall time| over
        the requests in ``walls`` (request id -> wall ns measured outside the
        tracer), as a share of that wall time."""
        selfs = self.self_ns()
        per_req: Dict[int, int] = {}
        for s in self.spans:
            per_req[s.request] = per_req.get(s.request, 0) + selfs[s.sid]
        return max((abs(per_req.get(r, 0) - ns) / ns for r, ns in walls.items() if ns > 0),
                   default=0.0)

    def dump(self, path: str) -> None:
        selfs = self.self_ns()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent,
                    "request": s.request, "start_ns": s.start, "end_ns": s.end,
                    "self_ns": selfs[s.sid], **s.attrs,
                }) + "\n")
