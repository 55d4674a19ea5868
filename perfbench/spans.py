"""Spans recorded around the benchmark's calls into looprep, and the
per-layer metrics derived from them.

A span is (name, start, end, parent, task): ``name`` is ``layer.function``,
``start``/``end`` are ``time.perf_counter`` readings, ``parent`` is the index
of the enclosing span (-1 for none) and ``task`` the task id (-1 for set-up).
Spans stay in memory until the run ends.
"""

import json


def untraced(name, fn, *args):
    """The call hook used when tracing is off: just call."""
    return fn(*args)


class Tracer:
    """Records one span per call made through ``call``."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.task = -1

    def call(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = self.clock()
        try:
            return fn(*args)
        finally:
            end = self.clock()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.task)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time covered by child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, task in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def durations(spans, name):
    return [end - start for n, start, end, _, _ in spans if n == name]
