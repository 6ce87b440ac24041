"""Spans and count-and-time wrappers for the traced run.

A span records name, start, end, parent span and op id; spans stay in
memory and are written when the run ends.  Hot primitives (Bloom filter
insert and probe, ``hash_chain``, ``hop_layers``) would drown the trace
in spans, so they get aggregate wrappers instead: each call adds its
count and time to the totals and its time to the enclosing span's child
time, which keeps every span's self time exact.

Totals are keyed ``<name>.calls``, ``<name>.s`` and ``<name>.self_s``;
plain counters use their own names.  The layer of a name is the part
before the first dot, so a layer's self time is the sum of its
``.self_s`` totals.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from unittest import mock

perf = time.perf_counter


class Tracer:
    """Collects spans and totals from any number of threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self.totals: defaultdict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op if op is not None or parent is None else parent["op"],
            "start": perf(),
            "child_s": 0.0,
        }
        stack.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf()
            stack.pop()
            dur = rec["end"] - rec["start"]
            if parent is not None:
                parent["child_s"] += dur
            self.spans.append(rec)
            self.add(name, dur, dur - rec["child_s"])

    def add(self, name: str, seconds: float, self_seconds: float) -> None:
        with self._lock:
            self.totals[name + ".calls"] += 1
            self.totals[name + ".s"] += seconds
            self.totals[name + ".self_s"] += self_seconds

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.totals[name] += amount

    def timed(self, name, fn, on_call=None):
        """Wrap a hot primitive: time and count each call without a span.

        ``on_call(args, result)`` may return extra ``{counter: amount}``.
        """

        def wrapper(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            dur = perf() - t0
            stack = self._stack()
            if stack:
                stack[-1]["child_s"] += dur
            self.add(name, dur, dur)
            if on_call is not None:
                for key, amount in on_call(args, result).items():
                    self.count(key, amount)
            return result

        return wrapper

    def spanned(self, name, fn):
        """Wrap a function so each call records a span."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans, then the totals, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for rec in sorted(self.spans, key=lambda r: r["id"]):
                fields = {k: rec[k] for k in ("id", "name", "parent", "op", "start", "end")}
                fh.write(json.dumps(fields) + "\n")
            fh.write(json.dumps({"totals": dict(self.totals)}) + "\n")


class NoTrace:
    """Stand-in for a Tracer in untraced loops and set-up."""

    _null = contextlib.nullcontext()

    def span(self, name, op=None):
        return self._null

    def count(self, name, amount=1):
        pass


def timed(name: str, on_call=None):
    """Patch factory: a count-and-time wrapper named ``name``."""
    return lambda tracer, fn: tracer.timed(name, fn, on_call)


def spanned(name: str):
    """Patch factory: a span named ``name`` around each call."""
    return lambda tracer, fn: tracer.spanned(name, fn)


def install(tracer: Tracer, stack: contextlib.ExitStack, patches) -> None:
    """Apply ``(owner, attribute, wrap)`` patches until ``stack`` closes;
    ``wrap(tracer, original)`` returns the replacement."""
    for owner, attr, wrap in patches:
        original = getattr(owner, attr)
        stack.enter_context(mock.patch.object(owner, attr, wrap(tracer, original)))


def self_ms(totals: dict, layer: str) -> float:
    prefix = layer + "."
    return 1000 * sum(
        v for k, v in totals.items() if k.startswith(prefix) and k.endswith(".self_s")
    )
