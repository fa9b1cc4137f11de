"""Span tracer for the zetakit benchmark, installed from outside the program.

`Tracer.install()` replaces the public functions and methods listed in
LAYERS with timing wrappers, in every loaded zetakit module that holds a
reference to them; `uninstall()` puts the originals back.  Spans (name,
start, end, parent) are kept in memory for the functions called a few
times per job.  Hot scalar methods are called millions of times, so for
those only a call count and a time sum are kept.  Either way each call's
self time (its duration minus that of the traced calls it made) is added
to its layer's total.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

from zetakit import (bulk, cyclofield, cyclotomic, gfpoly, heights, kexp,
                     polynomials, series, varieties, witt, zetas)

_now = time.perf_counter


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_points_ff(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    X, Q = a["X"], a["F"].q ** a["m"]
    tracer.counts["varieties.count_points_ff.found"] += result
    tracer.counts["varieties.count_points_ff.candidates"] += _candidates(X, Q)


def _candidates(X, Q):
    if X.ambient == "affine":
        return Q**X.nvars
    return sum(Q**j for j in range(X.dim + 1))  # points of P^n


def _point_heights(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    H = 0
    while (H + 1) ** a["m"] <= a["B"]:
        H += 1
    tracer.counts["heights.point_heights.candidates"] += (2 * H + 1) ** a["X"].nvars
    tracer.counts["heights.point_heights.kept"] += len(result)


def _mul_rows(tracer, fn, args, kwargs, result):
    tracer.counts["bulk.mul.rows"] += max(args[1].shape[0], args[2].shape[0])


def _digits_rows(tracer, fn, args, kwargs, result):
    tracer.counts["bulk.digits_of.rows"] += len(args[1])


B, FF, Cy, P = bulk.BulkField, cyclofield.FFElem, cyclotomic.Cyclotomic, polynomials.Poly

# (owner, attribute, layer name, hot, counter).  Hot entries keep no spans.
LAYERS = [
    (B, "mul", "bulk.mul", True, _mul_rows),
    (B, "pow", "bulk.pow", True, None),
    (B, "digits_of", "bulk.digits_of", True, _digits_rows),
    (B, "add", "bulk.elementwise", True, None),
    (B, "neg", "bulk.elementwise", True, None),
    (B, "scale", "bulk.elementwise", True, None),
    (B, "linear_form", "bulk.elementwise", True, None),
    (varieties, "exponent_histogram", "varieties.exponent_histogram", False, None),
    (varieties, "count_points_ff", "varieties.count_points_ff", False, _count_points_ff),
    (varieties, "closed_point_tally", "varieties.closed_point_tally", False, None),
    (cyclofield, "build_field", "cyclofield.build_field", True, None),
    (FF, "__mul__", "cyclofield.FFElem.mul", True, None),
    (FF, "__add__", "cyclofield.FFElem.add", True, None),
    (FF, "__pow__", "cyclofield.FFElem.pow", True, None),
    (cyclofield, "trace_to_prime_int", "cyclofield.trace_to_prime_int", True, None),
    (cyclofield.AdditiveCharacter, "exponent",
     "cyclofield.AdditiveCharacter.exponent", True, None),
    (gfpoly, "mulmod", "gfpoly.mulmod", True, None),
    (gfpoly, "divmod_", "gfpoly.divmod_", True, None),
    (gfpoly, "gcd", "gfpoly.gcd", True, None),
    (gfpoly, "smallest_irreducible", "gfpoly.smallest_irreducible", False, None),
    (P, "eval_ff", "polynomials.Poly.eval_ff", True, None),
    (P, "parse", "polynomials.Poly.parse", False, None),
    (Cy, "__add__", "cyclotomic.Cyclotomic.add", True, None),
    (Cy, "__mul__", "cyclotomic.Cyclotomic.mul", True, None),
    (Cy, "inverse", "cyclotomic.Cyclotomic.inverse", True, None),
    (series.SeriesTrunc, "__mul__", "series.SeriesTrunc.mul", True, None),
    (series, "exp_power_sums", "series.exp_power_sums", False, None),
    (series, "euler_factor", "series.euler_factor", False, None),
    (zetas, "exp_zeta", "zetas.exp_zeta", False, None),
    (zetas, "hw_zeta", "zetas.hw_zeta", False, None),
    (zetas, "rational_reconstruct", "zetas.rational_reconstruct", False, None),
    (witt, "lift_roundtrip", "witt.lift_roundtrip", False, None),
    (kexp, "realize_relative", "kexp.realize_relative", False, None),
    (kexp, "fourier_symbolic", "kexp.fourier_symbolic", False, None),
    (kexp, "fourier_realized", "kexp.fourier_realized", False, None),
    (kexp, "inversion_check", "kexp.inversion_check", False, None),
    (kexp, "poisson_finite_check", "kexp.poisson_finite_check", False, None),
    (heights, "point_heights", "heights.point_heights", False, _point_heights),
    (heights, "accumulation_test", "heights.accumulation_test", False, None),
    (heights, "height_count_table", "heights.height_count_table", False, None),
]
ENUMERATION = "varieties.enumerate_points"
# yield = useful outcomes / candidates examined
YIELDS = [("varieties.count_points_ff", "found"), ("heights.point_heights", "kept"),
          (ENUMERATION, "yielded")]


class Tracer:
    """Collects spans and per-layer (calls, self time) totals in memory."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id)
        self.totals = defaultdict(lambda: [0, 0.0])  # name -> [calls, self s]
        self.counts = defaultdict(int)
        self._stack = []  # open calls: [start, child seconds, span id]
        self._next_id = 0
        self._patched = []  # (owner, attribute, original value)

    # -- recording -----------------------------------------------------------

    def _enter(self, span):
        stack = self._stack
        parent = stack[-1][2] if stack else None
        if span:
            self._next_id += 1
            frame = [0.0, 0.0, self._next_id]
            self.spans.append([self._next_id, None, 0.0, 0.0, parent])
        else:
            frame = [0.0, 0.0, parent]
        stack.append(frame)
        frame[0] = _now()
        return frame

    def _exit(self, name, frame, span):
        end = _now()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += duration - frame[1]
        if span:
            record = self.spans[frame[2] - 1]
            record[1:4] = [name, frame[0], end]

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a pass or job."""
        frame = self._enter(True)
        try:
            yield
        finally:
            self._exit(name, frame, True)

    def _wrap(self, name, fn, hot, counter):
        enter, exit_, span = self._enter, self._exit, not hot

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name, frame, span)
            if counter is not None:
                counter(self, fn, args, kwargs, result)
            return result

        return wrapper

    def _wrap_points(self, fn):
        """PointEnumeration.points is a generator: time each step."""
        enter, exit_ = self._enter, self._exit
        counts = self.counts

        @functools.wraps(fn)
        def points(enum):
            counts[ENUMERATION + ".candidates"] += _candidates(enum.spec, enum.field.q)
            it = fn(enum)
            while True:
                frame = enter(False)
                try:
                    point = next(it)
                except StopIteration:
                    return
                finally:
                    exit_(ENUMERATION, frame, False)
                counts[ENUMERATION + ".yielded"] += 1
                yield point

        return points

    # -- patching ------------------------------------------------------------

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "zetakit" or k.startswith("zetakit.")
                                         or k == "workloads")]
        for owner, attr, name, hot, counter in LAYERS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(
                    self._wrap(name, raw.__func__, hot, counter)))
            elif inspect.ismodule(owner):
                wrapper = self._wrap(name, raw, hot, counter)
                for module in modules:  # also names bound by `from x import f`
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, wrapper)
            else:
                self._patch(owner, attr, self._wrap(name, raw, hot, counter))
        enum = varieties.PointEnumeration
        self._patch(enum, "points", self._wrap_points(enum.__dict__["points"]))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer totals: <layer>.calls, <layer>.s, counters and yields."""
        out = {}
        for name, (calls, self_s) in self.totals.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = self_s
        out.update(self.counts)
        for prefix, found in YIELDS:
            cand = self.counts[prefix + ".candidates"]
            out[prefix + ".yield"] = self.counts[prefix + "." + found] / cand if cand else 0.0
        return out

    def span_records(self):
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans]
