"""In-memory span and counter recording for the traced run.

A span is (name, start, end, parent, trial): start and end are
``time.perf_counter`` seconds, parent is the index of the enclosing span or -1,
and trial identifies the trial (sweep point index, trial index) the work
belongs to. Nothing is written until ``dump`` is called at the end of a run.
"""

import contextlib
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []
        self._open = []

    def span(self, name, trial):
        return _Span(self, name, trial)

    def count(self, name, value, trial):
        self.counts.append((name, value, trial))

    def dump(self, path, extra=None):
        doc = {"spans": self.spans, "counts": self.counts}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "trial", "index", "start")

    def __init__(self, tracer, name, trial):
        self.tracer = tracer
        self.name = name
        self.trial = trial

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        t._open.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._open.pop()
        parent = t._open[-1] if t._open else -1
        t.spans[self.index] = (self.name, self.start, end, parent, self.trial)
        return False


class NullTracer:
    """Drop-in Tracer that records nothing, for the untraced replay."""

    _nothing = contextlib.nullcontext()

    def span(self, name, trial):
        return self._nothing

    def count(self, name, value, trial):
        pass
