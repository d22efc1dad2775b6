"""Span recorder for the traced pass of the session benchmark.

A ``Tracer`` swaps chosen ``kernelaj`` functions, at every module attribute
that refers to them, for wrappers that record one span per call: name,
start, end, parent span and session id. Callers that imported a function by
name (``from .embedding import forward_cached``) look it up in their own
module, so the swap is made in every ``kernelaj`` module, not only in the
defining one. Spans stay in memory until the run writes them out.

A span's self time is its duration minus the part of its interval that its
child spans cover; summing self times over all spans counts every instant
once, recursion included.
"""

import contextlib
import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass

PACKAGE = "kernelaj"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int          # -1 for a root span
    session: int
    counts: dict = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped functions and explicit ``span`` blocks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.session = 0
        self._records = []               # [id, name, start, end, parent, session, counts]
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        rec = [next(self._ids), name, 0.0, 0.0, stack[-1] if stack else -1,
               self.session, None]
        self._records.append(rec)
        stack.append(rec[0])
        rec[2] = self.clock()
        return rec

    def _close(self, rec):
        rec[3] = self.clock()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``count(args, kwargs, result)``
        may return a dict of counts stored on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[6] = count(args, kwargs, result)
            return result
        return traced

    def install(self, targets):
        """Wrap every target at each place a ``kernelaj`` module refers to it.

        ``targets`` maps a span name to ``(owner, attribute, count)``; the
        owner is the module or class that defines the attribute.
        """
        wrappers = {}
        for name, (owner, attr, count) in targets.items():
            original = getattr(owner, attr)
            wrappers[id(original)] = (original, self.wrap(name, original, count))
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        holders = {id(h): h for h in modules}
        holders.update((id(owner), owner) for owner, _, _ in targets.values())
        for holder in holders.values():
            for attr, value in list(vars(holder).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, hit[1])

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def spans(self):
        return [Span(*rec) for rec in self._records]


# ----------------------------------------------------------------- analysis

def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
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
    """Span id -> duration minus the part covered by its child spans."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


class SpanIndex:
    """Queries over one list of spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.self_time = self_times(self.spans)
        self.root_name = {}
        for s in sorted(self.spans, key=lambda s: s.id):    # parents open first
            self.root_name[s.id] = self.root_name.get(s.parent, s.name)

    def ancestors(self, span):
        parent = self.by_id.get(span.parent)
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent.parent)

    def named(self, *names):
        return [s for s in self.spans if s.name in names]

    def inclusive(self, *names) -> float:
        """Wall time inside any of ``names``, counting nested calls once."""
        wanted = set(names)
        return sum(s.duration for s in self.spans if s.name in wanted
                   and not any(a.name in wanted for a in self.ancestors(s)))

    def calls(self, *names) -> int:
        return len(self.named(*names))

    def count(self, name, key):
        """Sum of one count over the spans of ``name``."""
        return sum((s.counts or {}).get(key, 0) for s in self.named(name))

    def layer_self(self, layer, root=None) -> float:
        """Self time of a layer, optionally only under roots named ``root``."""
        return sum(self.self_time[s.id] for s in self.spans if s.layer == layer
                   and (root is None or self.root_name[s.id] == root))
