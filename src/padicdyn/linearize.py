"""Koenigs linearization at an attracting fixed point over Q_p.

Given P with fixed point alpha and multiplier a1 = P'(alpha), 0 < |a1| < 1,
this module computes the exponential series E (linear coefficient 1) solving
the Schroeder conjugation G(E(X)) = E(a1*X) for the conjugate
G(X) = P(X + alpha) - alpha, its inverse L (the logarithm, solving
L(G(X)) = a1*L(X)), and certified radii:

* a convergence valuation rho for E, from the coefficient bound
  v(c_n) >= -n*(v(a1) + w + 1), where w accounts for non-integral higher
  coefficients of G;
* an isometry valuation m0 >= rho such that on {v(z - alpha) >= m0} the maps
  exp/log are mutually inverse isometries and G maps the ball into itself.

Both coefficient recursions divide by a1^n - a1 = a1 * (a1^{n-1} - 1); since
v(a1) >= 1 the second factor is a unit, so every division is an exact unit
division after factoring out a1.  ``linearize`` builds these divisors once and
hands them to both recursions.  L's recursion reads [X^n] G^m from a table
whose row m is H^m = (G/X)^m through degree T - m: with G's constant term
taken as exactly zero, [X^n] G^m = [X^(n-m)] H^m, and the exact zeros of G^m
below degree m are never formed.

``linearize`` is ``_linearize_cut`` at the working precision N, where nothing
is cut: the reference, the fallback and the path of ``padicdyn linearize``.
On the check path ``checker.validate`` may build E and L from G cut to 4T
digits (``_linearize_cut``), and it alone decides whether those stand.
"""

from __future__ import annotations

from . import _core
from .errors import ValidationError
from .padic import Ball, INF_BOUND, PadicNumber
from .series import TailBound, TruncatedSeries
from .dynamics import (
    ATTRACTING, INDIFFERENT, REPELLING, SUPERATTRACTING, Polynomial, _classify, contraction_radius,
)

_HEADROOM = 8


def conjugate_to_origin(P: Polynomial, alpha: PadicNumber) -> Polynomial:
    """G(X) = P(X + alpha) - alpha; requires P(alpha) = alpha to precision."""
    b = P.shift_argument(alpha)
    b[0] = b[0] - alpha
    if not b[0].is_zero_to_precision:
        raise ValidationError(
            "alpha is not a fixed point at working precision:"
            f" v(P(alpha) - alpha) = {b[0].valuation}"
        )
    return Polynomial(P.ctx, b)


def _integrality_defect(G: Polynomial) -> int:
    """w = max(0, -min v(b_i), i >= 2): zero when all higher coefficients are integral."""
    w = 0
    for c in G.coefficients[2:]:
        if c.is_exact_zero:
            continue
        lb = c.valuation_lower_bound
        if -lb > w:
            w = -lb
    return w


_MULTIPLIER_REFUSALS = {
    SUPERATTRACTING: "multiplier is zero to precision (superattracting): not supported",
    INDIFFERENT: (
        "multiplier is a unit (indifferent fixed point): the attracting"
        " hypothesis 0 < |P'(alpha)| < 1 fails"
    ),
    REPELLING: (
        "multiplier has negative valuation (repelling fixed point): the"
        " attracting hypothesis 0 < |P'(alpha)| < 1 fails"
    ),
}


def _check_multiplier(G: Polynomial) -> PadicNumber:
    """G's multiplier a1 when ``_classify`` calls it attracting; else the
    ValidationError of its class."""
    a1 = G.coefficients[1]
    cls = _classify(a1)
    if cls != ATTRACTING:
        raise ValidationError(_MULTIPLIER_REFUSALS[cls])
    return a1


def _check_headroom(G: Polynomial, order: int):
    a1 = G.coefficients[1]
    n = G.ctx.working_precision
    need = order * a1.valuation + _HEADROOM
    if n <= need:
        raise ValidationError(
            f"working precision {n} too small: need > T*v(a1) + {_HEADROOM} = {need}"
        )


def _koenigs_divisor(a1: PadicNumber, order: int):
    """divide(n, s) = s / (a1^n - a1) for 2 <= n <= order, as one product.

    D_n = a1^n - a1 = a1 * (a1^{n-1} - 1), the second factor a unit;
    a1^{n-1} is carried incrementally and -1 is formed once.  Each 1/D_n is
    formed here, with a one carrying D_n's k digits, so s * (1/D_n) is the
    triple of dividing s by a1 and then by the unit: both keep the least k of
    s, a1 and the unit, and both units are u_s / (u_a1 * u_unit) modulo that
    power of p.
    """
    p = a1.ctx.prime
    av, au, ak = a1._v, a1._u, a1._k
    one = a1.ctx.one()
    neg_one = _core.tr_neg(p, one._v, one._u, one._k)
    inverses = [None, None]
    pv, pu, pk = av, au, ak
    for _ in range(2, order + 1):
        unit = _core.tr_add(p, pv, pu, pk, *neg_one)
        dv, du, dk = _core.tr_mul(p, av, au, ak, *unit)
        inverses.append(_core.tr_div(p, 0, 1, dk, dv, du, dk))
        pv, pu, pk = _core.tr_mul(p, pv, pu, pk, av, au, ak)

    def divide(n, s):
        return _core.tr_mul(p, *s, *inverses[n])

    return divide


def koenigs_coefficients(G: Polynomial, order: int, divide=None) -> TruncatedSeries:
    """Normalized linearizing series E for G: c_1 = 1 and, for n >= 2,

        (a1^n - a1) c_n = sum_{i=2}^{r} a_i * [X^n] E^i.

    The powers are carried incrementally, [X^n] E^i = sum_{j=1}^{n-i+1} c_j
    [X^(n-j)] E^(i-1), which reads only c_j with j < n, so degree n costs
    O(r*n) coefficient products and one closed-form ``_core.dot``.  The
    attached tail bound is v(c_n) >= -n*(v(a1) + w + 1) with w the
    integrality defect of G.  ``divide`` is ``_koenigs_divisor(a1, order)``,
    built here when not given.
    """
    ctx = G.ctx
    a1 = _check_multiplier(G)
    _check_headroom(G, order)
    if divide is None:
        divide = _koenigs_divisor(a1, order)
    p = ctx.prime
    t = order
    one = ctx.one()
    coeffs = G.coefficients
    av = [c._v for c in coeffs]
    au = [c._u for c in coeffs]
    ak = [c._k for c in coeffs]
    top = min(G.degree, t)  # higher powers of E start above degree t
    zero_row = lambda: ([INF_BOUND] * (t + 1), [0] * (t + 1), [0] * (t + 1))
    ev, eu, ek = e = zero_row()
    # pows[i] holds E**i, filled below degree n while degree n is solved
    pows = [None, e] + [zero_row() for _ in range(2, top + 1)]
    if t >= 1:
        ev[1], eu[1], ek[1] = one._v, one._u, one._k
    for n in range(2, t + 1):
        itop = min(n, top)
        for i in range(2, itop + 1):
            pv, pu, pk = pows[i - 1]
            qv, qu, qk = pows[i]
            qv[n], qu[n], qk[n] = _core.conv_at(p, ev, eu, ek, pv, pu, pk, n, 1, n - i + 1)
        s = _core.dot(
            p, av[2:itop + 1], au[2:itop + 1], ak[2:itop + 1],
            [pows[i][0][n] for i in range(2, itop + 1)],
            [pows[i][1][n] for i in range(2, itop + 1)],
            [pows[i][2][n] for i in range(2, itop + 1)],
        )
        ev[n], eu[n], ek[n] = divide(n, s)
    s = a1.valuation + _integrality_defect(G) + 1
    return TruncatedSeries(ctx, t, ev, eu, ek, TailBound(-s, 0))


def inverse_koenigs_coefficients(G: Polynomial, order: int, divide=None) -> TruncatedSeries:
    """Logarithm series L for G, solving L(G(X)) = a1*L(X) with l_1 = 1:

        (a1^n - a1) l_n = -sum_{m=1}^{n-1} l_m * [X^n] G^m.

    G's constant term is taken as exactly zero (it is zero to working
    precision by construction), so [X^n] G^m = [X^(n-m)] H^m with H = G/X,
    and the table keeps row m as H^m through degree T - m.  Each sum then
    meets exactly the terms of the full G^m table that are not exact zeros.
    Tail bound v(l_n) >= (1-n)*(v(a1) + w), by induction on this recursion.
    ``divide`` is ``_koenigs_divisor(a1, order)``, built here when not given.
    """
    ctx = G.ctx
    a1 = _check_multiplier(G)
    _check_headroom(G, order)
    if divide is None:
        divide = _koenigs_divisor(a1, order)
    p = ctx.prime
    t = order
    one = ctx.one()

    h = G.coefficients[1:min(G.degree, t) + 1]
    pad = t - len(h)
    hv = [c._v for c in h]
    hu = [c._u for c in h]
    hk = [c._k for c in h]
    hpow = [None, (hv + [INF_BOUND] * pad, hu + [0] * pad, hk + [0] * pad)]
    for m in range(2, t):
        pv, pu, pk = hpow[m - 1]
        hpow.append(_core.series_mul(p, pv, pu, pk, hv, hu, hk, t - m))

    lv = [INF_BOUND] * (t + 1)
    lu = [0] * (t + 1)
    lk = [0] * (t + 1)
    if t >= 1:
        lv[1], lu[1], lk[1] = one._v, one._u, one._k
    for n in range(2, t + 1):
        s = _core.dot(
            p, lv[1:n], lu[1:n], lk[1:n],
            [hpow[m][0][n - m] for m in range(1, n)],
            [hpow[m][1][n - m] for m in range(1, n)],
            [hpow[m][2][n - m] for m in range(1, n)],
        )
        lv[n], lu[n], lk[n] = _core.tr_neg(p, *divide(n, s))
    sigma = a1.valuation + _integrality_defect(G)
    return TruncatedSeries(ctx, t, lv, lu, lk, TailBound(-sigma, sigma))


class Linearization:
    """Koenigs linearization data at an attracting fixed point."""

    __slots__ = (
        "base_poly", "fixed_point", "multiplier", "conjugate_poly", "exp_series",
        "log_series", "convergence_radius_valuation", "isometry_radius_valuation",
    )

    def __init__(
        self,
        base_poly: Polynomial,
        fixed_point: PadicNumber,
        multiplier: PadicNumber,
        conjugate_poly: Polynomial,
        exp_series: TruncatedSeries,
        log_series: TruncatedSeries,
        convergence_radius_valuation: int,
        isometry_radius_valuation: int,
    ):
        self.base_poly = base_poly
        self.fixed_point = fixed_point
        self.multiplier = multiplier
        self.conjugate_poly = conjugate_poly
        self.exp_series = exp_series
        self.log_series = log_series
        self.convergence_radius_valuation = convergence_radius_valuation
        self.isometry_radius_valuation = isometry_radius_valuation

    @property
    def isometry_ball(self) -> Ball:
        return Ball(self.fixed_point, self.isometry_radius_valuation)

    def log_of(self, z: PadicNumber) -> PadicNumber:
        """L(z - alpha); requires z in the isometry ball."""
        return self._log_at(z - self.fixed_point)

    def _log_at(self, d: PadicNumber) -> PadicNumber:
        """``log_of`` at the difference d = z - alpha, formed once: the ball
        test reads it too."""
        if not self.isometry_ball._holds(d):
            raise ValidationError("argument outside the isometry ball")
        return self.log_series.evaluate(d)

    def __repr__(self):
        return (
            f"Linearization(T={self.exp_series.order},"
            f" v(a1)={self.multiplier.valuation},"
            f" m0={self.isometry_radius_valuation})"
        )


def isometry_radius(exp_series: TruncatedSeries, G: Polynomial) -> int:
    """Smallest integer m0 such that, on {v >= m0}:

    * every exp term beyond the linear one is strictly dominated:
      v(c_n) + n*m0 > m0 for computed n, and for the tail via its affine bound;
    * G contracts by exactly |a1|: v(b_i) + (i-1)*m0 > v(a1) for i >= 2.

    Both maps are then isometries on the ball and G maps it into itself.  The
    computed terms and G each follow ``contraction_radius``, E's with c_1 = 1.
    """
    m0 = contraction_radius(exp_series.coefficients(), 0)
    tail = exp_series.tail
    if not tail.is_infinite:
        t = exp_series.order
        # smallest m with m + slope > 0 and (m + slope)*n + (offset - m) > 0
        # for all n > t, where the left side is least at n = t + 1
        m0 = max(m0, (-tail.slope * (t + 1) - tail.offset) // t + 1, 1 - tail.slope)
    return max(m0, contraction_radius(G.coefficients, G.coefficients[1].valuation))


def linearize(P: Polynomial, alpha: PadicNumber, order: int) -> Linearization:
    """Build the full linearization of P at the attracting fixed point alpha."""
    return _linearize_cut(P, alpha, order, P.ctx.working_precision)


def _cut(G: Polynomial, digits: int) -> Polynomial:
    """G with every unit coefficient cut to its first ``digits`` digits.

    A coefficient of at most ``digits`` digits, and a zero, is kept as it is.
    A cut unit stands for a superset of the full one's set (``_core``), so
    the cut G contains G coefficient by coefficient.
    """
    pd = G.ctx.prime**digits
    return Polynomial(G.ctx, [
        c if c._k <= digits else PadicNumber(G.ctx, c._v, c._u % pd, digits)
        for c in G.coefficients
    ])


def _linearize_cut(P: Polynomial, alpha: PadicNumber, order: int, digits: int) -> Linearization:
    """``linearize``, with E and L built from G cut to ``digits`` digits.

    At the working precision N nothing is cut (``_cut`` keeps every
    coefficient of at most N digits): this is ``linearize``.  Only the two
    recursions and their divisors read the cut G.
    The multiplier, G, rho and G's part of the isometry radius are computed
    at full precision.  Every refusal is ``linearize``'s: the cut keeps every
    valuation and every zero, and the refusals read nothing else.  Every
    value the recursions form stands over the full one (``_core``), which is
    what ``checker.validate`` reads when it checks a cut linearization.
    """
    if order < 1:  # the isometry radius divides by the order
        raise ValidationError(f"truncation order must be >= 1, got {order}")
    G = conjugate_to_origin(P, alpha)
    a1 = _check_multiplier(G)
    H = _cut(G, digits)
    divide = _koenigs_divisor(H.coefficients[1], order)
    exp_series = koenigs_coefficients(H, order, divide)
    log_series = inverse_koenigs_coefficients(H, order, divide)
    rho = a1.valuation + _integrality_defect(G) + 2
    # m0 >= rho: E's tail slope is -(rho - 1), so the tail alone needs m0 >= rho
    m0 = isometry_radius(exp_series, G)
    return Linearization(P, alpha, a1, G, exp_series, log_series, rho, m0)


def verify_functional_equation(lin: Linearization) -> TruncatedSeries:
    """Residual G(E(X)) - E(a1*X), truncated at T.

    A correct linearization leaves every coefficient zero to its certified
    precision; a nonzero residual is a verification failure for the caller to
    report, not an exception.
    """
    t = lin.exp_series.order
    G = lin.conjugate_poly
    # every coefficient of G: compose reads the outer's envelope over all of them
    g_series = TruncatedSeries.from_coefficients(G.ctx, G.coefficients, order=max(t, G.degree))
    lhs = g_series.compose(lin.exp_series)
    scaled = TruncatedSeries.variable(lin.base_poly.ctx, t).scale(lin.multiplier)
    rhs = lin.exp_series.compose(scaled)
    return lhs - rhs


def mutual_inversion_residual(lin: Linearization) -> TruncatedSeries:
    """L(E(X)) - X truncated at T (certified zero for a correct pair)."""
    t = lin.exp_series.order
    comp = lin.log_series.compose(lin.exp_series)
    return comp - TruncatedSeries.variable(lin.base_poly.ctx, t)
