"""In-memory span recording around calls into pyrcnn's modules.

A span is (name, start, end, parent, run id, note).  Spans are recorded by
wrapping a function where its *calling* module binds it (``pyramid``'s
``_forward_cached``, ``cli``'s ``save_model``, ...), so one wrapper sees
exactly the calls one module makes into another.  Span names say module and
role (``layers.fwd``), never the private function name, so a later refactor
only has to keep the role.  A binding that no longer exists is listed in
``Tracer.missing`` and reads as a span with count 0; it never stops a run.

Spans stay in parallel Python lists until ``write`` dumps them at exit;
self times and counts are derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.notes: list = []
        self.missing: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.notes.append(None)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(_clock())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        """Span around a block of the benchmark's own code; a root span
        starts a new run id that its descendants share."""
        if root:
            self.run_id += 1
        i = self._open(name)
        try:
            yield i
        finally:
            self._close(i)

    def inside(self, name: str) -> bool:
        """Whether a span of this name is open."""
        return any(self.names[j] == name for j in self._stack)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr by a recording pass-through.

        `note(args, kwargs, result)` may attach a value to the span.  Works
        for module functions, plain methods and classmethods.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if raw is None:
            where = f"{getattr(owner, '__name__', owner)}.{attr}"
            if where not in self.missing:
                self.missing.append(where)
            return
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if note is not None:
                try:
                    tracer.notes[i] = note(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the note, not the run
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._patched.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                    "run": self.runs[i], "note": self.notes[i]}) + "\n")


class SpanSummary:
    """Per-name durations and self times, plus ancestry queries."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        n = len(tr.names)
        self.dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(tr.parents):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [self.dur[i] - child[i] for i in range(n)]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(tr.names):
            self.by_name[name].append(i)

    def ids(self, name: str, under: str | None = None) -> list[int]:
        ids = self.by_name.get(name, [])
        if under is None:
            return ids
        return [i for i in ids if self.has_ancestor(i, under)]

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.tr.parents[i]
        while p >= 0:
            if self.tr.names[p] == name:
                return True
            p = self.tr.parents[p]
        return False

    def count(self, name: str, under: str | None = None) -> int:
        return len(self.ids(name, under))

    def total(self, name: str, under: str | None = None) -> float:
        return sum((self.dur[i] for i in self.ids(name, under)), 0.0)

    def self_total(self, name: str) -> float:
        return sum((self.self_time[i] for i in self.by_name.get(name, [])),
                   0.0)

    def durations(self, name: str) -> list[float]:
        return [self.dur[i] for i in self.by_name.get(name, [])]

    def notes(self, name: str, under: str | None = None) -> list:
        return [self.tr.notes[i] for i in self.ids(name, under)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values (an absent span)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[k]
