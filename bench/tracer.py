"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from outside the program: the benchmark replaces public
module attributes (``bpe.segment_line``, ``chrf.sentence_stats``,
``subprocess.run`` ...) with timing wrappers, so calls the package makes
through its own module globals are caught too. Each span records name,
start, end, parent, thread and the workload-run id.

Every thread keeps its own span stack. With a shared stack, a span opened on
one worker thread would become the parent of a span on another, and the
parent's self time (duration minus children) could go negative.
"""

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from itertools import count
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = defaultdict(int)
        self.distinct = defaultdict(set)
        self._ids = count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), self.run_id))

    def add(self, counter: str, amount=1):
        with self._lock:
            self.counters[counter] += amount

    def see(self, counter: str, key):
        """Count a call and remember ``key`` for a distinct-ratio counter."""
        with self._lock:
            self.counters[counter] += 1
            self.distinct[counter].add(key)

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Replace ``owner.attr`` with a wrapper that records a ``name`` span
        and then calls ``observe(args, kwargs, result)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((owner, attr, original))

    def unwrap_all(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), ensure_ascii=False) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the summed durations of its direct children."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def uncovered_time(outer: Span, spans) -> float:
    """Part of ``outer`` covered by no span that lies inside it, on any thread."""
    inside = [(s.start, s.end) for s in spans
              if s.id != outer.id and s.start >= outer.start and s.end <= outer.end]
    return outer.duration - covered(inside)
