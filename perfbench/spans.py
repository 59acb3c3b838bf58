"""Spans around calls into the program's layers, recorded from outside it.

A span is (id, name, parent id, thread id, start, end).  Spans stay in a
list in memory and are written out when the run ends.  Calls the
benchmark makes itself are wrapped where it makes them; calls one module
makes through a name it imported from another are wrapped by replacing
that name in the calling module's namespace for the length of a traced
pass, and put back afterwards.

Worker threads start with no open span of their own, so their spans take
the innermost span open on the main thread as parent: that is the call
that handed them the work.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from threading import get_ident

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack = []

    def _open(self):
        """Push a new span id; return (id, parent id, stack)."""
        if get_ident() == self._main_ident:
            stack = self._main_stack
            parent = stack[-1] if stack else 0
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else 0)
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def _close(self, sid, parent, stack, name, start):
        end = _now()
        stack.pop()
        self.spans.append((sid, name, parent, get_ident(), start, end))

    @contextmanager
    def span(self, name: str):
        opened = self._open()
        start = _now()
        try:
            yield
        finally:
            self._close(*opened, name, start)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(*opened, name, start)

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per resumption, so the consumer's work between items
        is not charged to the generator.  Counts the items."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                opened = self._open()
                start = _now()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(*opened, name, start)
                self.counts[name + ".items"] += 1
                yield item

        return traced


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace ``(owner, attribute, span name, is_generator)`` targets by
    traced wrappers for the length of the block."""
    saved = []
    try:
        for owner, attr, name, gen in targets:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            wrap = tracer.wrap_generator if gen else tracer.wrap
            setattr(owner, attr, wrap(name, fn))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def summarize(spans) -> dict:
    """Per span name: calls and busy seconds; per module (the name's first
    part): self seconds, a span's duration minus the part of it that its
    child spans cover."""
    children = defaultdict(list)
    for _, _, parent, _, start, end in spans:
        children[parent].append((start, end))
    calls = Counter()
    busy = defaultdict(float)
    self_s = defaultdict(float)
    for sid, name, _, _, start, end in spans:
        calls[name] += 1
        busy[name] += end - start
        module = name.split(".", 1)[0]
        self_s[module] += (end - start) - _covered(start, end, children.get(sid, ()))
    return {"calls": dict(calls), "s": dict(busy), "self_s": dict(self_s)}
