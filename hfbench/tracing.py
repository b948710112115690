"""Spans around the public functions of each hyperfock layer.

Spans are recorded from the benchmark's own code only. Each traced
function is replaced, in every hyperfock module namespace that holds it
(the attribute through which its callers look it up), by a wrapper that
records a span: layer, start, end, parent span and the exception it raised,
if any. A layer's self time is its spans' durations minus the part covered
by their child spans.

Each op runs inside a root span ("op"). A span opened on a thread with no
open span of its own, such as a worker of the CLI's sweep pool, takes as
parent the innermost span open on the op's thread (there, `cli.main`
waiting on the pool). Spans on different threads overlap in time, so the
layer shares of a run with worker threads can sum to more than 1.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# layer -> (module, functions). Each function belongs to one layer.
LAYERS = {
    "cli": ("hyperfock.cli", ("main",)),
    "states": ("hyperfock.states",
               ("pahs", "hypergeometric", "binomial", "coherent_truncated", "fock")),
    "fockspace": ("hyperfock.fockspace", ("add_photons", "normalize")),
    "measures": ("hyperfock.measures", ("measure_report",)),
    "measures.scalar": ("hyperfock.measures", ("sps_quality_mu", "anticlassicality")),
    "entanglement.dense": ("hyperfock.entanglement",
                           ("beamsplitter_with_vacuum", "reduced_purity")),
    "entanglement.closed": ("hyperfock.entanglement", ("purity_closed_form_pahs",)),
    "wigner.wln": ("hyperfock.wigner", ("wigner_log_negativity_detailed",)),
    "wigner.grid": ("hyperfock.wigner", ("wigner_grid",)),
    "wigner.point": ("hyperfock.wigner", ("wigner_point",)),
    "wigner.oracle": ("hyperfock.wigner", ("wigner_oracle_point",)),
}

ROOT = "op"

# span record fields
_ID, _LAYER, _PARENT, _T0, _T1, _ERROR, _FINE_POINTS = range(7)


def patch_everywhere(original, replacement):
    """Point every hyperfock module attribute bound to `original` at
    `replacement`; returns the list of (module, name) pairs patched."""
    patched = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "hyperfock"
                                  or modname.startswith("hyperfock.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                patched.append((module, name))
    return patched


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack = None
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        record = [next(self._ids), layer, parent, perf_counter(), 0.0, None, None]
        stack.append(record[_ID])
        return record

    def _close(self, record):
        record[_T1] = perf_counter()
        self._stack().pop()
        self.spans.append(record)

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[_ERROR] = type(exc).__name__
                raise
            finally:
                self._close(record)
            if layer == "wigner.wln":
                record[_FINE_POINTS] = result.nodes * result.angular_nodes
            return result
        return traced

    def install(self):
        """Wrap every function in LAYERS, wherever hyperfock binds it."""
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[modname]
            for name in names:
                original = getattr(module, name)
                for mod, attr in patch_everywhere(original, self._wrap(layer, original)):
                    self._undo.append((mod, attr, original))

    def uninstall(self):
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    @contextlib.contextmanager
    def op(self):
        """Root span around one op."""
        record = self._open(ROOT)
        self._op_stack = self._stack()
        try:
            yield
        finally:
            self._op_stack = None
            self._close(record)


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarise(spans):
    """Per-layer totals: calls, self time, errors and WLN fine points,
    plus the op count and total op time under ROOT."""
    children = defaultdict(list)
    for s in spans:
        if s[_PARENT] is not None:
            children[s[_PARENT]].append((s[_T0], s[_T1]))
    layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": defaultdict(int),
                                  "fine_points": 0})
    for s in spans:
        row = layers[s[_LAYER]]
        row["calls"] += 1
        row["self_s"] += (s[_T1] - s[_T0]) - _covered(children[s[_ID]], s[_T0], s[_T1])
        if s[_ERROR]:
            row["errors"][s[_ERROR]] += 1
        if s[_FINE_POINTS]:
            row["fine_points"] += s[_FINE_POINTS]
    op_time = sum(s[_T1] - s[_T0] for s in spans if s[_LAYER] == ROOT)
    return {"ops": layers[ROOT]["calls"], "op_time_s": op_time,
            "layers": {name: {**row, "errors": dict(row["errors"])}
                       for name, row in layers.items()}}
