"""Truncated power series over Q_p with certified tail bounds.

A :class:`TruncatedSeries` stores coefficients 0..T exactly (as capped-precision
p-adic numbers) together with an affine *tail bound* ``v(c_n) >= slope*n +
offset`` valid for every ``n > T`` of the true underlying function.  The bound
is what turns a truncation into a certificate: evaluation inside a ball returns
a value with a proven error valuation, and Newton-polygon zero counting can
assert that no unseen coefficient alters the relevant hull segment.

Zero counting implements the standard nonarchimedean statement (zeros of
valuation t correspond to polygon slopes -t, counted by horizontal length);
that statement is classical background, sharpened here into an explicit
certification rule over inexact coefficients and the affine tail.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _core
from .errors import PrecisionError
from .padic import INF_BOUND, PadicNumber

_INF = math.inf


class TailBound(namedtuple("TailBound", "slope offset")):
    """Affine lower bound slope*n + offset on v(c_n) for all n > T.

    ``offset = inf`` means the tail is identically zero (a polynomial).  Every
    bound built here is integral; any exact rationals work as well.
    """

    __slots__ = ()

    @property
    def is_infinite(self) -> bool:
        return self.offset == _INF

    def bound_at(self, n: int):
        if self.is_infinite:
            return _INF
        return self.slope * n + self.offset


ZERO_TAIL = TailBound(0, _INF)


class ZeroCount(namedtuple("ZeroCount", "count certified reason", defaults=(None,))):
    """Result of certified zero counting: a count and whether it is proven."""

    __slots__ = ()


class TruncatedSeries:
    """Power series over Q_p truncated at degree T with a certified tail bound.

    Coefficients are held as raw (valuation, unit, precision) triples so the
    convolution kernels can run without object traffic; ``coefficient(i)``
    wraps them back into :class:`PadicNumber`.
    """

    __slots__ = ("ctx", "_t", "_v", "_u", "_k", "tail")

    def __init__(self, ctx, order, vals, units, precs, tail=ZERO_TAIL):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if not (len(vals) == len(units) == len(precs) == order + 1):
            raise ValueError("coefficient arrays must have length order + 1")
        self.ctx = ctx
        self._t = order
        self._v = vals
        self._u = units
        self._k = precs
        self.tail = tail

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_coefficients(cls, ctx, coefficients, order=None, tail=ZERO_TAIL):
        """Series with the given low-order coefficients (ints are coerced).

        Coefficients above ``order`` must be exact zeros: the tail bound would
        claim that any other one does not exist.
        """
        coeffs = [ctx.element(c) for c in coefficients]
        if order is None:
            order = len(coeffs) - 1
        if not all(c.is_exact_zero for c in coeffs[order + 1:]):
            raise ValueError(f"a coefficient above truncation order {order} is not an exact zero")
        vals, units, precs = [], [], []
        for i in range(order + 1):
            if i < len(coeffs):
                c = coeffs[i]
                vals.append(c._v)
                units.append(c._u)
                precs.append(c._k)
            else:
                vals.append(INF_BOUND)
                units.append(0)
                precs.append(0)
        return cls(ctx, order, vals, units, precs, tail)

    @classmethod
    def zero(cls, ctx, order):
        return cls.from_coefficients(ctx, [], order)

    @classmethod
    def constant(cls, ctx, value, order):
        return cls.from_coefficients(ctx, [value], order=order)

    @classmethod
    def variable(cls, ctx, order):
        """The series X."""
        return cls.from_coefficients(ctx, [0, 1], order=order)

    # -- access ---------------------------------------------------------------

    @property
    def order(self) -> int:
        return self._t

    def coefficient(self, i: int) -> PadicNumber:
        if not 0 <= i <= self._t:
            raise IndexError(f"coefficient index {i} outside 0..{self._t}")
        return PadicNumber(self.ctx, self._v[i], self._u[i], self._k[i])

    def coefficients(self) -> list[PadicNumber]:
        return [self.coefficient(i) for i in range(self._t + 1)]

    def is_certified_zero_through_order(self) -> bool:
        """Every computed coefficient vanishes to its carried precision."""
        return all(u == 0 for u in self._u)

    def __repr__(self):
        head = ", ".join(repr(self.coefficient(i)) for i in range(min(3, self._t + 1)))
        return f"TruncatedSeries(T={self._t}, [{head}, ...])"

    # -- envelopes and tail propagation ----------------------------------------

    def _envelope(self, start: int):
        """Affine (slope, offset) with v(c_n) >= slope*n + offset for n >= start.

        Uses the valuation lower bound of each computed coefficient and the tail
        bound beyond T.  offset may be inf (series is zero from `start` on).
        """
        if self.tail.is_infinite:
            slope = 0
            offset = _INF
        else:
            slope = self.tail.slope
            offset = self.tail.offset
        for i in range(start, self._t + 1):
            if self._u[i] == 0 and self._v[i] >= INF_BOUND:
                continue
            cand = self._v[i] - slope * i
            if cand < offset:
                offset = cand
        return slope, offset

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop to a lower truncation order, folding dropped coefficients into the tail."""
        if order >= self._t:
            return self
        slope, offset = self._envelope(order + 1)
        tail = ZERO_TAIL if offset == _INF else TailBound(slope, offset)
        n = order + 1
        return TruncatedSeries(self.ctx, order, self._v[:n], self._u[:n], self._k[:n], tail)

    # -- ring operations --------------------------------------------------------

    def _check_compatible(self, other):
        if self.ctx != other.ctx:
            raise ValueError("series from different p-adic contexts")

    def __add__(self, other):
        if isinstance(other, (PadicNumber, int)):
            other = TruncatedSeries.constant(self.ctx, other, self._t)
        self._check_compatible(other)
        t = min(self._t, other._t)
        a, b = self.truncate(t), other.truncate(t)
        p = self.ctx.prime
        vals, units, precs = [], [], []
        for i in range(t + 1):
            v, u, k = _core.tr_add(p, a._v[i], a._u[i], a._k[i], b._v[i], b._u[i], b._k[i])
            vals.append(v)
            units.append(u)
            precs.append(k)
        if a.tail.is_infinite and b.tail.is_infinite:
            tail = ZERO_TAIL
        elif a.tail.is_infinite:
            tail = b.tail
        elif b.tail.is_infinite:
            tail = a.tail
        else:
            tail = TailBound(min(a.tail.slope, b.tail.slope), min(a.tail.offset, b.tail.offset))
        return TruncatedSeries(self.ctx, t, vals, units, precs, tail)

    __radd__ = __add__

    def __neg__(self):
        # for a coefficient of at most N digits, u * (p^N - 1) mod p^k is p^k - u
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar: PadicNumber) -> "TruncatedSeries":
        """Multiply every coefficient by a scalar."""
        scalar = self.ctx.element(scalar)
        if scalar.is_exact_zero:
            return TruncatedSeries.zero(self.ctx, self._t)
        p = self.ctx.prime
        vals, units, precs = [], [], []
        for i in range(self._t + 1):
            v, u, k = _core.tr_mul(p, self._v[i], self._u[i], self._k[i], scalar._v, scalar._u, scalar._k)
            vals.append(v)
            units.append(u)
            precs.append(k)
        if self.tail.is_infinite:
            tail = ZERO_TAIL
        else:
            tail = TailBound(self.tail.slope, self.tail.offset + scalar.valuation_lower_bound)
        return TruncatedSeries(self.ctx, self._t, vals, units, precs, tail)

    def _degree_bound(self) -> int:
        """Largest index with a not-exactly-zero coefficient (0 for the zero series)."""
        i = self._t
        while i > 0 and self._u[i] == 0 and self._v[i] >= INF_BOUND:
            i -= 1
        return i

    def __mul__(self, other):
        if isinstance(other, (PadicNumber, int)):
            return self.scale(other)
        self._check_compatible(other)
        t = min(self._t, other._t)
        a, b = self.truncate(t), other.truncate(t)
        da = a._degree_bound()
        db = b._degree_bound()
        vals, units, precs = _core.series_mul(
            self.ctx.prime, a._v, a._u, a._k, b._v, b._u, b._k, t
        )
        if a.tail.is_infinite and b.tail.is_infinite and da + db <= t:
            tail = ZERO_TAIL  # a product of polynomials that nothing truncated
        else:
            sa, oa = a._envelope(0)
            sb, ob = b._envelope(0)
            tail = ZERO_TAIL if oa == _INF or ob == _INF else TailBound(min(sa, sb), oa + ob)
        return TruncatedSeries(self.ctx, t, vals, units, precs, tail)

    __rmul__ = __mul__

    # -- composition ------------------------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Truncated composition self(inner(X)) for an exactly-zero inner constant.

        Any other inner constant raises ValueError: for a true series it would
        let discarded outer coefficients feed back into low degrees, and no
        composition on the check path needs it.
        """
        self._check_compatible(inner)
        if not (inner._u[0] == 0 and inner._v[0] >= INF_BOUND):
            raise ValueError("inner constant term must be exactly zero for composition")
        t = min(self._t, inner._t)
        inner_t = inner.truncate(t)
        p = self.ctx.prime
        # Horner on coefficient arrays, highest coefficient first.  The
        # accumulator at step i reaches only degrees <= t - i of the result, and
        # outer coefficients above t meet only exact zeros.  The last step
        # leaves t + 1 coefficients, and when no step runs t is 0.
        vals, units, precs = [self._v[t]], [self._u[t]], [self._k[t]]
        for i in range(t - 1, -1, -1):
            vals, units, precs = _core.series_mul(
                p, inner_t._v, inner_t._u, inner_t._k, vals, units, precs, t - i
            )
            vals[0], units[0], precs[0] = _core.tr_add(
                p, vals[0], units[0], precs[0], self._v[i], self._u[i], self._k[i]
            )
        # Tail of the true composition from the envelopes.
        s_in, b_in = inner_t._envelope(1)
        s_o, b_o = self._envelope(1)
        d_self = self._degree_bound()
        d_inner = inner_t._degree_bound()
        if b_o == _INF or b_in == _INF:
            # outer constant, or inner identically zero: composition is exact
            tail = ZERO_TAIL
        elif self.tail.is_infinite and inner_t.tail.is_infinite and d_self * d_inner <= t:
            tail = ZERO_TAIL  # polynomial composed with polynomial, nothing truncated
        else:
            s = s_o + b_in
            if self.tail.is_infinite:
                tail = TailBound(s_in, b_o + min(s, s * d_self))
            elif s >= 0:
                tail = TailBound(s_in, b_o + s)
            else:
                tail = TailBound(s_in + s, b_o)
        return TruncatedSeries(self.ctx, t, vals, units, precs, tail)

    # -- analytic operations ------------------------------------------------------

    def evaluate(self, z: PadicNumber) -> PadicNumber:
        """Sum of the computed terms with a certified absolute error valuation.

        The tail bound must dominate at v(z) (slope + v(z) > 0), otherwise the
        truncation is insufficient and a PrecisionError asks for a larger T.
        """
        vz = z.valuation_lower_bound
        if self.tail.is_infinite:
            err = None
        else:
            s = self.tail.slope + vz
            if s <= 0:
                raise PrecisionError(
                    f"tail not dominated at v(z) >= {vz}: raise the truncation order"
                )
            err = math.ceil(s * (self._t + 1) + self.tail.offset)
        t = self._t
        below = zip(reversed(self._v[:t]), reversed(self._u[:t]), reversed(self._k[:t]))
        v, u, k = _core.horner(
            self.ctx.prime, (self._v[t], self._u[t], self._k[t]), below, z._v, z._u, z._k
        )
        result = PadicNumber(self.ctx, v, u, k)
        if err is not None:
            # forget the digits beyond the certified error valuation
            result = result + self.ctx.zero(err)
        return result

    def hull_segments(self) -> list[tuple[int, int]]:
        """Lower convex hull of (n, v(c_n)) over certified-nonzero coefficients.

        Returned as consecutive integer (rise, run) pairs, run > 0 and slopes
        rise/run ascending.  Raises PrecisionError when every computed
        coefficient is indistinguishable from zero.
        """
        pts = [(i, self._v[i]) for i in range(self._t + 1) if self._u[i] != 0]
        if not pts:
            raise PrecisionError("all computed coefficients indistinguishable from zero")
        hull = _lower_hull(pts)
        return [(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]

    def count_zeros_in_ball(self, radius_valuation: int) -> ZeroCount:
        """Certified count of zeros z with v(z) >= m, multiplicity included.

        The count is the abscissa of the hull vertex where slopes first exceed
        -m.  It is certified only when every coefficient that is merely
        zero-to-precision, and the whole tail, provably cannot move that
        vertex: their bounds must stay on or above the ray of slope -m through
        it (strictly above to its right).
        """
        m = radius_valuation
        segments = self.hull_segments()
        n_m = next(i for i, u in enumerate(self._u) if u)  # the hull's first vertex
        y_m = self._v[n_m]
        for rise, run in segments:
            if rise > -m * run:  # slope above -m, as run > 0
                break
            n_m, y_m = n_m + run, y_m + rise
        uncertain = [(i, v) for i, v in enumerate(self._v) if not self._u[i] and v < INF_BOUND]
        certified = True
        reason = None
        for j, b in uncertain:
            if j <= n_m:
                ok = b >= y_m + m * (n_m - j)
            else:
                ok = b > y_m - m * (j - n_m)
            if not ok:
                certified = False
                reason = (
                    f"coefficient {j} is only bounded below by v >= {b}, which"
                    f" could alter the slope-{-m} hull segment"
                )
                break
        if certified and not self.tail.is_infinite:
            s = self.tail.slope + m
            if s <= 0:
                certified = False
                reason = (
                    f"tail slope {self.tail.slope} does not dominate the ball"
                    f" v >= {m}: raise the truncation order"
                )
            else:
                phi = s * (self._t + 1) + self.tail.offset - y_m - m * n_m
                if phi <= 0:
                    certified = False
                    reason = (
                        "tail bound admits coefficients below the counting ray"
                        f" (margin {phi} at degree {self._t + 1})"
                    )
        return ZeroCount(n_m, certified, reason)


def _lower_hull(points):
    """Lower convex hull of (x, y) points sorted by strictly increasing x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull
