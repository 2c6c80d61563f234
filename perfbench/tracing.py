"""Outside-in tracing of hqs: wrap public functions from the benchmark side.

``installed(tracer)`` rebinds each listed function name in every loaded
``hqs.*`` module that binds it, so calls made inside a module are caught
too: functions look up module globals at call time.  Registry entries get
a span named ``experiments.run``.  A function called once per event gets a
counter instead of a span.

Spans record name, start, end, parent, thread, operation index and whether
the call raised.  They are kept in flat arrays in memory and written out
when the run ends.  A span's self time is its duration minus the union of
its children's intervals; children running on worker threads overlap, so
the union is taken, not the sum.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


# (module, attribute, span name, work extractor: result -> [(unit, amount)])
SPANS = [
    ("hqs.rng", "uniform_block", "rng.uniform_block", lambda r: [("words", len(r))]),
    ("hqs.network", "sample_counts", "network.sample_counts", lambda r: [("events", sum(r.values()))]),
    ("hqs.network", "run_events", "network.run_events",
     lambda r: [("events", sum(r[0].values())), ("records", len(r[1]))]),
    ("hqs.network", "validate", "network.validate", None),
    ("hqs.network", "propagate_offers", "network.propagate_offers", lambda r: [("paths", len(r))]),
    ("hqs.network", "echo_table", "network.echo_table", lambda r: [("absorbers", len(r.entries))]),
    ("hqs.network", "calibrated", "network.calibrated", None),
    ("hqs.wavecore", "born_echo", "wavecore.born_echo", None),
    ("hqs.experiments.interferometer", "ev_recursive", "experiments.ev_recursive",
     lambda r: [("trials", r["trials"])]),
    ("hqs.cli", "parse_config", "cli.parse_config", None),
    ("hqs.cli", "run_spec", "cli.run_spec", None),
    ("hqs.cli", "build_envelope", "cli.build_envelope", None),
    ("hqs.cli", "emit_results", "cli.emit_results", lambda r: [("bytes", len(r))]),
    ("hqs.mead", "compete", "mead.compete", lambda r: [("trials", r["trials"])]),
    ("hqs.mead", "integrate_pair", "mead.integrate_pair", lambda r: [("steps", len(r) - 1)]),
]
COUNTERS = [("hqs.network", "select_transaction", "network.select_transaction")]
OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.thread = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[tuple[str, str], float] = defaultdict(float)
        self.op_index = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()  # stack of the thread that drives the operations

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, work=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span belongs to whatever the driving thread has open
            parent = stack[-1] if stack else (self._home[-1] if self._home else -1)
            with self._lock:
                sid = len(self.start)
                self.name.append(nid)
                self.parent.append(parent)
                self.thread.append(threading.get_ident())
                self.op.append(self.op_index)
                self.end.append(0.0)
                self.raised.append(1)
                self.start.append(perf_counter())
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                self.raised[sid] = 0
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if work is not None and self.op_index >= 0:
                try:
                    amounts = work(result)
                except (TypeError, KeyError, IndexError, AttributeError):
                    amounts = []  # a result shape this extractor does not know
                with self._lock:
                    for unit, amount in amounts:
                        self.work[name, unit] += amount
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_index >= 0:
                self.calls[name] += 1  # only called from the driving thread
            return fn(*args, **kwargs)

        return wrapper

    def run_op(self, index: int, fn):
        self.op_index = index
        try:
            return self.span(OP, fn)()
        finally:
            self.op_index = -1

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, raised count.

        Only spans inside operations (op >= 0) count, except "raised",
        which counts every span, probes included.
        """
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        covered = np.zeros(n)
        child = np.flatnonzero(a["parent"] >= 0)
        if child.size:
            parents = a["parent"][child]
            covered = np.bincount(parents, weights=dur[child], minlength=n)
            # children on several threads overlap: replace their sum by their union
            lo = np.full(n, np.iinfo(np.int64).max)
            hi = np.full(n, np.iinfo(np.int64).min)
            np.minimum.at(lo, parents, a["thread"][child])
            np.maximum.at(hi, parents, a["thread"][child])
            for p in np.flatnonzero(hi > lo):
                kids = child[parents == p]
                covered[p] = _union(a["start"][kids], a["end"][kids])
        self_t = dur - covered
        out = {}
        in_op = a["op"] >= 0
        for nid, name in enumerate(self.names):
            mine = a["name"] == nid
            sel = mine & in_op
            out[name] = {
                "calls": int(sel.sum()),
                "incl_s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
                "raised": int(a["raised"][mine].sum()),
            }
        return out

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _union(start: np.ndarray, end: np.ndarray) -> float:
    order = np.argsort(start)
    total, cur_lo, cur_hi = 0.0, None, None
    for s, e in zip(start[order], end[order]):
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _hqs_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hqs" or name.startswith("hqs."))]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every listed function wherever an hqs module binds it; undo on exit."""
    undo = []
    modules = _hqs_modules()
    wrappers = [(m, a, lambda fn, n=n, w=w: tracer.span(n, fn, w)) for m, a, n, w in SPANS]
    wrappers += [(m, a, lambda fn, n=n: tracer.counter(n, fn)) for m, a, n in COUNTERS]
    try:
        for modname, attr, wrap in wrappers:
            original = getattr(sys.modules.get(modname), attr, None)
            if not callable(original):
                continue  # the program no longer has this layer
            wrapped = wrap(original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapped)
                    undo.append((mod.__dict__, attr, original))
        registry = getattr(sys.modules.get("hqs.experiments.registry"), "EXPERIMENTS", {})
        for key, entry in list(registry.items()):
            registry[key] = dataclasses.replace(entry, run=tracer.span("experiments.run", entry.run))
            undo.append((registry, key, entry))
        yield tracer
    finally:
        for namespace, key, original in reversed(undo):
            namespace[key] = original
