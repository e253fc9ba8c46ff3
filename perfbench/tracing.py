"""In-memory span recorder used by the traced benchmark runs.

Spans are recorded from the benchmark's own code, around calls into the
program's public functions: either directly at a call site (``span``) or by
temporarily replacing a module attribute with a timing wrapper (``patch``).
Nothing inside ``src/`` knows about tracing.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records (name, start, end, parent, request id) spans.

    The parent is the innermost open span.  Spans timed elsewhere (the
    transport clients' requests) go through ``record`` with explicit times
    and no parent.  Only one thread may open spans.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, rid]
        self._stack: list[int] = []
        self.rid = None
        self.missing: set[str] = set()

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.rid]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def record(self, name: str, start: float, end: float, rid=None):
        self.spans.append([name, start, end, -1, rid])

    def wrap(self, fn, name: str, after=None):
        """Return fn timed as span `name`; after(args, result) runs outside it."""

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextmanager
    def patch(self, targets):
        """Temporarily wrap module attributes: targets = [(module, attr, span, after)].

        An attribute the program no longer has is skipped and listed in
        self.missing, so a refactored program still runs traced; its span
        then reads 0 and the coverage shows what went untraced.
        """
        saved = []
        try:
            for module_name, attr, name, after in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, after))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # --- analysis ---------------------------------------------------------

    def summary(self, roots: set[str]) -> dict:
        """Inclusive and self milliseconds per span name, plus root coverage.

        A span's self time is its duration minus the durations of its direct
        children.  Coverage is the share of the root spans' time (the
        workload's traced operations) spent inside named child spans.
        """
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
        total = defaultdict(float)
        self_ms = defaultdict(float)
        count = defaultdict(int)
        root_ms = root_self_ms = 0.0
        for i, (name, start, end, parent, _rid) in enumerate(self.spans):
            dur = (end - start) * 1000.0
            total[name] += dur
            self_ms[name] += dur - child_ms[i]
            count[name] += 1
            if name in roots and parent < 0:
                root_ms += dur
                root_self_ms += dur - child_ms[i]
        coverage = 1.0 - root_self_ms / root_ms if root_ms > 0 else 0.0
        return {"total_ms": dict(total), "self_ms": dict(self_ms),
                "count": dict(count), "root_ms": root_ms, "coverage": coverage}

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, rid in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "rid": rid}) + "\n")
