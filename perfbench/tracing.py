"""In-memory spans for the benchmark's traced runs, recorded from outside the program.

``Tracer.patch`` replaces a module (or class) attribute that the program looks
up at call time with a wrapper that opens a span around the original call, and
``Tracer.restore`` puts every original back. The program's sources are not
touched: a span marks a call into a layer, as seen from the layer's caller.

Every span records its name, its parent span, the case it ran in, and its start
and end on the tracer's clock. A span's self time is its duration minus the
part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.case = None  # case id stamped on every span, count and value
        self.spans = []  # dicts: id, name, parent, case, start, end
        self.counts = {}  # (case, name) -> summed count
        self.values = {}  # (case, name) -> list of recorded values
        self._stack = []
        self._patched = []  # (owner, attr, original), in patch order

    def open(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "case": self.case,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def close(self, rec):
        rec["end"] = self.clock()
        self._stack.pop()

    def count(self, name, n=1):
        key = (self.case, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def value(self, name, x):
        self.values.setdefault((self.case, name), []).append(float(x))

    def patch(self, owner, attr, name, after=None):
        """Wrap ``owner.attr`` so each call records a span.

        ``name`` is a span name, a function of the call's arguments returning
        one, or None to record no span. ``after(tracer, result, *args,
        **kwargs)`` runs once the call returns, to record counts and values.
        """
        original = owner.__dict__[attr]
        label = name if callable(name) or name is None else (lambda *a, **k: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if label is None:
                result = original(*args, **kwargs)
            else:
                rec = self.open(label(*args, **kwargs))
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(rec)
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every attribute this tracer replaced, latest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def span_totals(spans, cases):
    """Per span name: calls, busy seconds and self seconds over the given cases."""
    own = self_times(spans)
    out = {}
    for s in spans:
        if s["case"] not in cases:
            continue
        t = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += s["end"] - s["start"]
        t["self_s"] += own[s["id"]]
    return out
