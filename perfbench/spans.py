"""In-memory span tracing of the oqf layers, for the benchmark's traced run.

Each traced function is wrapped by rebinding every oqf module attribute that
refers to it (``oqf.ct.fbp.coefficient_matrix``, ``oqf.quadrature.
coefficient_matrix``, the package re-exports ...), so calls from other
layers, from inside the defining module and from the benchmark all pass
through the wrapper.  A span is (name, start, end, parent); a span's self
time is its duration minus the durations of its direct children.

Counts are computed from argument and result shapes at the same boundary
(weights built, back-projection samples, ...), never measured, so they
repeat exactly for identical inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


def _count_weights(args, result, counts):
    weights = np.size(args["omegas"]) * (args["grid"].n + 1)
    counts["weights"] += weights
    counts["bytes_computed"] += 16 * weights


def _count_backprojection(args, result, counts):
    counts["samples"] += args["size"] * args["size"] * len(args["q"].data)


def _max_imag(args, result, counts):
    counts["max_imag"] = max(counts.get("max_imag", 0.0), float(result.max_imag))


def _max_condition(args, result, counts):
    counts["max_condition"] = max(counts.get("max_condition", 0.0), float(result.condition))


# (layer, function, counter or None).  A layer is a module of ``oqf``; the
# functions are its entry points that the four workloads reach.  Helpers a
# layer calls on itself (atomic writes, the individual verify checks, ellipse
# chords) stay inside their caller's span.
TRACED = (
    ("quadrature", "coefficient_matrix", _count_weights),
    ("quadrature", "optimal_coefficients", None),
    ("quadrature", "monomial_fourier_integral", None),
    ("oracle", "solve_coefficient_system", _max_condition),
    ("oracle", "error_norm_bruteforce", None),
    ("transform", "forward_transform", None),
    ("transform", "inverse_transform", None),
    ("transform", "error_sweep", None),
    ("ct.phantom", "radon_analytic", None),
    ("ct.phantom", "rasterize", None),
    ("ct.fbp", "filter_projections", _max_imag),
    ("ct.fbp", "backproject", _count_backprojection),
    ("ct.metrics", "image_metrics", None),
    ("io", "read_complex_csv", None),
    ("io", "write_complex_csv", None),
    ("io", "read_sinogram", None),
    ("io", "write_sinogram", None),
    ("io", "read_image", None),
    ("io", "write_image", None),
    ("verify", "run_checks", None),
)


class Tracer:
    """Records spans and per-function counts for one job at a time.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    synthetic tree.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], {}, []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            counts = self.counts.setdefault(name, Counter())
            counts["calls"] += 1
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(bound.arguments, result, counts)
            return result

        return functools.update_wrapper(traced, fn)

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, inner in zip(self.spans, child):
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start - inner)
        return totals


class Instrumented:
    """Context manager installing ``tracer`` wrappers over the TRACED functions.

    Every loaded ``oqf`` module attribute that is one of the original
    functions is rebound to its wrapper, and restored on exit.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "oqf" or n.startswith("oqf."))]
        for layer, fn_name, counter in TRACED:
            original = getattr(importlib.import_module(f"oqf.{layer}"), fn_name, None)
            if original is None:
                continue  # entry point gone: its metrics read zero
            wrapper = self.tracer.wrap(f"{layer}.{fn_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False

