"""Spans around calls into siad's public functions, recorded from outside.

A `Tracer` replaces a module attribute with a wrapper, at the name where
the caller looks it up at call time (for example ``siad.inference.
parametric_infer``, which ``truncation_region`` resolves through its module
globals).  Each wrapped call becomes one span: name, start, end, parent span
and subject id.  Spans stay in memory.  The client process writes its spans
when the run ends; a forked pool worker, whose exit cannot be hooked, writes
the spans of each subject to its own file when that subject's root span
ends.  Parent links survive the fork, so worker spans hang under the client
span that created the pool.

Self time is a span's duration minus the part of it that its child spans
cover; children may overlap (pool workers run side by side), so the covered
part is the union of their intervals.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: str
    parent: str | None
    name: str
    start: float
    end: float
    subject: str | None
    pid: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list[Span] = []
        self.subject: str | None = None
        self._stack: list[str] = []
        self._seq = 0
        self._pid = os.getpid()
        self._client_pid = self._pid
        self._patched = []

    def wrap(self, module, attr: str, name: str, before=None, after=None,
             subject_root: bool = False):
        """Replaces ``module.attr`` with a span-recording wrapper.

        ``before(args, kwargs, attrs)`` may return replacement ``(args,
        kwargs)``; ``after(result, attrs)`` may add attributes from the
        result.  A ``subject_root`` span opens a new subject id when none is
        set, so every span inside it shares that id.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(name, original, args, kwargs, before, after,
                              subject_root)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _call(self, name, fn, args, kwargs, before, after, subject_root):
        pid = os.getpid()
        if pid != self._pid:  # first span in a forked worker
            self._pid = pid
            self.spans = []
        self._seq += 1
        span_id = f"{pid}:{self._seq}"
        parent = self._stack[-1] if self._stack else None
        opened = subject_root and self.subject is None
        if opened:
            self.subject = span_id
        attrs = {}
        if before is not None:
            args, kwargs = before(args, kwargs, attrs)
        self._stack.append(span_id)
        start = time.perf_counter()
        end = None
        try:
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            if after is not None:
                after(result, attrs)
            return result
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = end or time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end,
                                   self.subject, pid, attrs))
            if opened:
                self.subject = None
                if pid != self._client_pid:
                    self.flush()

    def flush(self):
        """Appends this process's spans to its own file and forgets them."""
        if not self.spans:
            return
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
        self.spans = []


def load_spans(spill_dir: Path) -> list[Span]:
    spans = []
    for path in sorted(Path(spill_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(Span(**json.loads(line)) for line in fh)
    return spans


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def layer_self_times(spans) -> dict:
    """Layer name -> summed self time of its spans."""
    own = self_times(spans)
    out = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out
