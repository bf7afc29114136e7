"""In-memory span recorder for the benchmark's traced runs.

A span is recorded around each call the benchmark makes into a public
function of ``jmpgcf``; spans opened while another is open become its
children.  Nothing is written until :meth:`Tracer.dump` at the end of
the run.  A disabled tracer records nothing and costs one attribute
lookup and a no-op context manager per call.
"""

from __future__ import annotations

import contextlib
import json
import time
import uuid
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = uuid.uuid4().hex
        self.spans = []  # [id, name, start, end, parent]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def durations(self, name):
        """Seconds of every span called ``name``, children included."""
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def self_times(self, name, parent=None):
        """Self seconds of every span called ``name`` (optionally only those
        directly under a span called ``parent``), in call order: its
        duration minus the time covered by its direct children."""
        child_time = defaultdict(float)
        for _, _, start, end, up in self.spans:
            if up is not None:
                child_time[up] += end - start
        return [end - start - child_time[sid]
                for sid, n, start, end, up in self.spans
                if n == name and (parent is None
                                  or (up is not None and self.spans[up][1] == parent))]

    def self_time_by_layer(self):
        """Total self seconds per module (the span-name prefix)."""
        totals = defaultdict(float)
        for name in {s[1] for s in self.spans}:
            totals[name.split(".")[0]] += sum(self.self_times(name))
        return dict(sorted(totals.items()))

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
