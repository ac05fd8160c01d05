"""Spans and counters installed around padicdyn's entry points, for the traced run only.

Each wrapper replaces an attribute where callers look it up: a module
attribute at the call site (``padicdyn.checker.build_F``) or a class attribute
for a method (``TruncatedSeries.compose``).  Modules are reached through
``importlib.import_module`` because the package attribute ``padicdyn.linearize``
is the function, not the submodule.  ``Tracer.restore`` puts every original
back; ``assert_pristine`` proves it before any timed run.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# (span name, owner, attribute): owner is "module" or "module:Class".
SPANS = [
    ("cli.main", "padicdyn.cli", "main"),
    ("problemfile.load", "padicdyn.cli", "load_problem"),
    ("problemfile.render", "padicdyn.cli", "render_report"),
    ("checker.analyze", "padicdyn.cli", "analyze"),
    ("dynamics.find_fixed_points", "padicdyn.problemfile", "find_fixed_points"),
    ("checker.validate", "padicdyn.checker", "validate"),
    ("checker.direct_orbit_scan", "padicdyn.checker", "direct_orbit_scan"),
    ("checker.compute_lambdas", "padicdyn.checker", "compute_lambdas"),
    ("checker.build_F", "padicdyn.checker", "build_F"),
    ("linearize.linearize", "padicdyn.checker", "linearize"),
    ("linearize.koenigs", "padicdyn.linearize", "koenigs_coefficients"),
    ("linearize.inverse_koenigs", "padicdyn.linearize", "inverse_koenigs_coefficients"),
    ("linearize.isometry_radius", "padicdyn.linearize", "isometry_radius"),
    ("series.compose", "padicdyn.series:TruncatedSeries", "compose"),
    ("series.mul", "padicdyn.series:TruncatedSeries", "__mul__"),
    ("series.count_zeros", "padicdyn.series:TruncatedSeries", "count_zeros_in_ball"),
    ("multipoly.evaluate", "padicdyn.multipoly:MultivariatePoly", "evaluate"),
    ("multipoly.evaluate_series", "padicdyn.multipoly:MultivariatePoly", "evaluate_series"),
    ("core.series_mul", "padicdyn._core", "series_mul"),
    ("core.conv_at", "padicdyn._core", "conv_at"),
]

# Call counters without spans, for calls too small and too many to time.
COUNTERS = [
    ("core.scalar_ops.tr_add", "padicdyn._core", "tr_add"),
    ("core.scalar_ops.tr_mul", "padicdyn._core", "tr_mul"),
    ("core.scalar_ops.tr_div", "padicdyn._core", "tr_div"),
    ("core.scalar_ops.tr_neg", "padicdyn._core", "tr_neg"),
    ("dynamics.polynomial_eval.calls", "padicdyn.dynamics:Polynomial", "__call__"),
]


def _owner(spec):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _raw(owner, attr):
    """The attribute as stored, so identity survives method binding."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def originals():
    """Map (owner spec, attribute) -> the object currently installed."""
    return {(spec, attr): _raw(_owner(spec), attr) for _, spec, attr in SPANS + COUNTERS}


def assert_pristine(saved):
    for (spec, attr), fn in saved.items():
        if _raw(_owner(spec), attr) is not fn:
            raise RuntimeError(f"{spec}.{attr} is still wrapped; timed runs must see the original")


def _is_exact_zero(v, u, inf):
    return u == 0 and v >= inf


def _series_mul_work(args, result, inf):
    """Products the schoolbook kernel executes, and computed unit bytes moved.

    The kernel skips exactly-zero a-coefficients; each other a_i meets
    b_0..b_{n_b-1} at output degrees i..min(t_out, i + n_b - 1).  Bytes are
    the bit lengths of the operand units read and the result units written.
    """
    _, av, au, _, bv, bu, _, t_out = args
    n_b = len(bv)
    products = 0
    for i, (v, u) in enumerate(zip(av, au)):
        if not _is_exact_zero(v, u, inf):
            products += max(0, min(t_out, i + n_b - 1) - i + 1)
    bits = sum(u.bit_length() for u in au) + sum(u.bit_length() for u in bu)
    bits += sum(u.bit_length() for u in result[1])
    return products, (bits + 7) // 8


def _conv_at_products(args, inf):
    """Products one conv_at call executes (same index window as the kernel)."""
    _, av, au, _, bv, _, _, n, imin, imax = args
    lo = imin if imin > 0 else 0
    if n - lo > len(bv) - 1:
        lo = n - (len(bv) - 1)
    hi = min(imax, n, len(av) - 1)
    return sum(1 for i in range(lo, hi + 1) if not _is_exact_zero(av[i], au[i], inf))


class Tracer:
    """Records spans in memory: (check, name, start, end, parent, envelope, products, bytes).

    ``envelope`` is the wall time of the whole wrapper, bookkeeping included;
    a parent's self time subtracts its children's envelopes, so the tracer's
    own cost is charged to no layer.
    """

    def __init__(self, inf_bound):
        self.inf = inf_bound
        self.spans = []
        self.counts = Counter()
        self.check = -1
        self._stack = []
        self._installed = []

    def install(self):
        for name, spec, attr in SPANS:
            self._replace(spec, attr, lambda fn, name=name: self._span(name, fn))
        for name, spec, attr in COUNTERS:
            self._replace(spec, attr, lambda fn, name=name: self._counter(name, fn))

    def restore(self):
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def _replace(self, spec, attr, make):
        owner = _owner(spec)
        fn = _raw(owner, attr)
        self._installed.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        spans, stack, inf = self.spans, self._stack, self.inf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                products = nbytes = 0
                if result is not None and name == "core.series_mul":
                    products, nbytes = _series_mul_work(args, result, inf)
                elif result is not None and name == "core.conv_at":
                    products = _conv_at_products(args, inf)
                spans[index] = (self.check, name, start, end, parent,
                                perf_counter() - enter, products, nbytes)

        return wrapper

    def summary(self):
        """Per span name: calls, total s, self s, products, bytes, and the
        kernel products executed beneath it (inclusive)."""
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "products": 0, "unit_bytes": 0,
                        "products_below": 0} for name, _, _ in SPANS}
        child_envelope = [0.0] * len(self.spans)
        products_below = [0] * len(self.spans)
        for check, name, start, end, parent, envelope, products, nbytes in self.spans:
            if parent >= 0:
                child_envelope[parent] += envelope
        for index in range(len(self.spans) - 1, -1, -1):
            span = self.spans[index]
            total = products_below[index] + span[6]
            if span[4] >= 0:
                products_below[span[4]] += total
        for index, (check, name, start, end, parent, envelope, products, nbytes) in enumerate(self.spans):
            row = stats[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_envelope[index]
            row["products"] += products
            row["unit_bytes"] += nbytes
            row["products_below"] += products_below[index] + products
        return stats
