"""Span recorder for the traced run.

Each traced call gets a span: name, start, end, parent span and the id of
the work item it belongs to.  Spans stay in memory (parallel arrays, so a
few million of them fit) and are written as JSON lines after the run.
A span's self time is its duration minus the durations of its children;
calls are single-threaded and nested, so the children never overlap and
the self times of all spans sum to the durations of the root spans.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.items: list[str] = []
        self.item_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack: list[int] = []
        self.current_item = -1

    def set_item(self, item_id):
        """Tag the spans that follow with a work-item id (None clears it)."""
        if item_id is None:
            self.current_item = -1
            return
        idx = self.item_ids.get(item_id)
        if idx is None:
            idx = self.item_ids[item_id] = len(self.items)
            self.items.append(item_id)
        self.current_item = idx

    def begin(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int):
        self.end[idx] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn):
        """fn with a span named name around every call."""
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        traced.__wrapped__ = fn
        return traced

    def __len__(self):
        return len(self.start)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def by_name(self) -> dict:
        """name -> (calls, summed self time)."""
        calls = Counter()
        own = Counter()
        for i, s in enumerate(self.self_times()):
            name = self.names[self.name[i]]
            calls[name] += 1
            own[name] += s
        return {k: (calls[k], own[k]) for k in calls}

    def write_jsonl(self, path):
        names, items = self.names, self.items
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                it = self.item[i]
                fh.write(json.dumps({
                    "id": i, "name": names[self.name[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i] if self.parent[i] >= 0 else None,
                    "item": items[it] if it >= 0 else None,
                }, separators=(",", ":")) + "\n")


class Patches:
    """Replaces attributes with traced wrappers and puts them back."""

    def __init__(self):
        self.saved = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()


def trace_function(rec, patches, span_name, fn, modules, original=None):
    """Put a span around fn in every module that holds original (fn by
    default), since callers that imported it by name look it up in their
    own globals."""
    original = fn if original is None else original
    traced = rec.wrap(span_name, fn)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, attr, traced)
    return traced


def trace_method(rec, patches, span_name, cls, attr, fn=None):
    fn = cls.__dict__[attr] if fn is None else fn
    patches.set(cls, attr, rec.wrap(span_name, fn))
