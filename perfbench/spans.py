"""Span tracing of spoofkit from outside the package.

`Tracer.install` replaces each public function of the spoofkit modules with
a wrapper that records a span (name, start, end, parent span, call id) while
the tracer is active. Internal calls go through the same module attributes,
so nested layers are captured too. Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

MODULES = ("dsp", "bench", "gbdt", "gbdt_explain", "transformer",
           "attn_explain", "cli")


def _len_of(param):
    return lambda bound, result: len(bound.arguments[param])


# Functions whose span also counts rows: the batch or table size they handle.
ROWS = {
    "transformer.forward_batch": _len_of("X0"),
    "gbdt.train": _len_of("X"),
    "gbdt.decision_scores": _len_of("X"),
    "cli.write_features_csv": _len_of("rows"),
    "cli.read_features_csv": lambda bound, result: len(result[1]),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, call id, rows]
        self.call_id = None  # "<run id>:<CLI call index>"; None = not recording
        self._stack = []
        self._originals = []

    def install(self, package) -> None:
        """Wrap every public function defined in each module of MODULES."""
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for name, fn in vars(module).copy().items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    self._originals.append((module, name, fn))
                    setattr(module, name, self._wrap(f"{mod_name}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in self._originals:
            setattr(module, name, fn)
        self._originals = []

    def _wrap(self, qualname, fn):
        rows_of = ROWS.get(qualname)
        signature = inspect.signature(fn) if rows_of else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.call_id is None:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1,
                    self.call_id, 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if rows_of:
                span[5] = rows_of(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per function: self seconds (span minus its child spans), calls and
        rows, summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, rows) in enumerate(self.spans):
            agg = out.setdefault(name, {"s": 0.0, "calls": 0, "rows": 0})
            agg["s"] += end - start - child[i]
            agg["calls"] += 1
            agg["rows"] += rows
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "call_id", "rows")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
