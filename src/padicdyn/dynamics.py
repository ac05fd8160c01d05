"""Univariate polynomial dynamics over Q_p.

Iteration, fixed-point search by residue scan + Hensel (Newton) lifting,
multiplier classification, and the certified contraction radius around an
attracting fixed point: the ball on which one application of the map scales
distances by exactly |multiplier|.
"""

from __future__ import annotations

from collections import namedtuple

from . import _core
from .errors import ValidationError
from .padic import PadicContext, PadicNumber

ATTRACTING = "attracting"
SUPERATTRACTING = "superattracting"
INDIFFERENT = "indifferent"
REPELLING = "repelling"

# find_fixed_points accepts a lifted point once v(p^s (P(x) - x)) >= N - _FIXED_POINT_SLACK
_FIXED_POINT_SLACK = 8

# find_fixed_points tests every residue mod p, so it refuses larger primes
DISCOVERY_PRIME_BOUND = 1 << 20

# each residue costs deg P + 1 small-integer steps, so it also refuses a scan of
# more steps than this; X^3 + pX passes at every p <= DISCOVERY_PRIME_BOUND
DISCOVERY_WORK_BOUND = 1 << 22

# each simple root mod p costs a Newton lift and a Taylor shift: about
# (deg P + 1)^2 operations on numbers of b = N p.bit_length() bits, each costing
# about max(1, b / 640)^2 small ones (CPython reduces by schoolbook division), so
# discovery also refuses a lifting stage of more small operations than this; just
# under it, X^101 at p = 101 and N = 128 lifts in 3.5-4.4 s on a 2-vCPU host
DISCOVERY_LIFT_BOUND = 1 << 21


class Polynomial:
    """Exact univariate polynomial over Q_p, degree >= 1.

    Constants only arise internally (as derivatives of linear maps) and are
    admitted through ``allow_constant``; dynamics always takes degree >= 1.
    The coefficients are fixed at construction, which also builds their
    (v, u, k) triples for ``eval_triple``.
    """

    __slots__ = ("ctx", "coefficients", "_top", "_below")

    def __init__(self, ctx: PadicContext, coefficients, allow_constant=False):
        coeffs = [ctx.element(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1].is_exact_zero:
            coeffs.pop()
        if len(coeffs) < 2 and not allow_constant:
            raise ValidationError("polynomial must have degree >= 1")
        if len(coeffs) > 1 and not coeffs[-1].is_certified_nonzero:
            raise ValidationError("leading coefficient must be certified nonzero")
        self.ctx = ctx
        self.coefficients = coeffs
        # Horner's triples: the top coefficient, then the others from the top down
        self._top = (coeffs[-1]._v, coeffs[-1]._u, coeffs[-1]._k)
        self._below = [(c._v, c._u, c._k) for c in reversed(coeffs[:-1])]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z: PadicNumber) -> PadicNumber:
        """Value at a PadicNumber or an int, by ``eval_triple``."""
        z = self.coefficients[-1]._coerce(z)
        if z is None:
            raise TypeError("a polynomial is evaluated at a PadicNumber or an int")
        v, u, k = self.eval_triple(z._v, z._u, z._k)
        return PadicNumber(self.ctx, v, u, k)

    def eval_triple(self, zv, zu, zk):
        """The value at the triple (zv, zu, zk), by ``_core.horner``."""
        return _core.horner(self.ctx.prime, self._top, self._below, zv, zu, zk)

    def derivative(self) -> "Polynomial":
        return Polynomial(
            self.ctx,
            [self.coefficients[i] * i for i in range(1, len(self.coefficients))],
            allow_constant=True,
        )

    def shift_argument(self, alpha: PadicNumber) -> list[PadicNumber]:
        """Coefficients of P(X + alpha) (Taylor shift via repeated Horner)."""
        b = list(self.coefficients)
        n = len(b)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                b[j] = b[j] + alpha * b[j + 1]
        return b

    def __repr__(self):
        return f"Polynomial(degree={self.degree})"


class FixedPointInfo(namedtuple(
    "FixedPointInfo",
    "point multiplier classification attracting_radius_valuation",
    defaults=(None,),
)):
    """A fixed point with its multiplier and classification.

    ``attracting_radius_valuation`` (attracting points only, else None) is the
    smallest m with v(P(z) - alpha) = v(multiplier) + v(z - alpha) on
    {v(z - alpha) >= m}, so every orbit started there converges to alpha.
    """

    __slots__ = ()


class FixedPointScan(namedtuple("FixedPointScan", "points unresolved_residues")):
    """Outcome of the Z_p fixed-point search.

    ``unresolved_residues`` lists residues a mod p where P(X) - X vanishes but
    its derivative does too (Hensel's criterion fails); those are surfaced, not
    silently dropped.
    """

    __slots__ = ()


def _classify(multiplier: PadicNumber) -> str:
    """The fixed point's class: multiplier zero to precision, v >= 1, v = 0 or v < 0."""
    if multiplier.is_zero_to_precision:
        return SUPERATTRACTING
    v = multiplier.valuation
    if v >= 1:
        return ATTRACTING
    return INDIFFERENT if v == 0 else REPELLING


def find_fixed_points(P: Polynomial) -> FixedPointScan:
    """All Z_p fixed points of P that are simple roots of P(X) - X.

    Scales Q = P - X by p^s to the primitive p-integral Q~ = p^s Q, which has
    the same roots.  Scans the residues a mod p with Q~(a) = 0 and Q~'(a) != 0
    mod p in small-integer arithmetic, then Newton-lifts each from a to
    working precision.  Returned points satisfy
    v(p^s (P(alpha) - alpha)) >= N - _FIXED_POINT_SLACK.  Raises
    ValidationError for p > DISCOVERY_PRIME_BOUND or
    p (deg P + 1) > DISCOVERY_WORK_BOUND, before any lift when
    (deg P + 1)^2 (z + r max(1, b / 640)^2) > DISCOVERY_LIFT_BOUND, for
    b = N p.bit_length(), z = 1 when 0 is a simple root and Q(0) an exact zero
    (else 0), and r the other simple roots mod p; and for a coefficient of Q
    that is zero only to a precision too low to read Q~ mod p.
    """
    ctx = P.ctx
    p = ctx.prime
    n_prec = ctx.working_precision
    if p > DISCOVERY_PRIME_BOUND:
        raise ValidationError(
            f"fixed-point discovery scans every residue mod p, so it needs"
            f" p <= {DISCOVERY_PRIME_BOUND}; p = {p}"
        )
    if p * (P.degree + 1) > DISCOVERY_WORK_BOUND:
        raise ValidationError(
            f"fixed-point discovery takes deg P + 1 steps for each residue mod p, so it"
            f" needs p (deg P + 1) <= {DISCOVERY_WORK_BOUND}; p = {p} and deg P = {P.degree}"
        )
    # Q = P - X
    q_coeffs = list(P.coefficients)
    q_coeffs[1] = q_coeffs[1] - ctx.one()
    if all(c.is_zero_to_precision for c in q_coeffs):
        raise ValidationError("P(X) - X vanishes identically; every point is fixed")
    s = -min(c.valuation for c in q_coeffs if c.is_certified_nonzero)
    residues = []  # Q~ mod p, degree-ascending
    for j, c in enumerate(q_coeffs):
        if c.is_certified_nonzero:
            residues.append(c._u % p if c._v + s == 0 else 0)
        elif c.zero_bound + s >= 1:
            residues.append(0)
        else:
            raise ValidationError(
                f"the coefficient of X^{j} in P(X) - X is only known to be O(p^{c.zero_bound}):"
                f" too few digits to read p^{s} (P(X) - X) mod p"
            )
    p_s = PadicNumber(ctx, s, 1, n_prec)
    try:
        Q = Polynomial(ctx, [c * p_s for c in q_coeffs])
    except ValidationError:
        # P - X collapsed to a constant: no fixed points at all
        return FixedPointScan([], [])
    Qprime = Q.derivative()
    # Q~ and Q~' mod p for Horner, highest degree first, reduced at every
    # step so that a step costs the same at every degree
    top = residues[::-1]
    dtop = [j * c % p for j, c in enumerate(residues)][:0:-1]
    simple = []
    unresolved = []
    for a in range(p):
        acc = 0
        for c in top:
            acc = (acc * a + c) % p
        if acc:
            continue
        acc = 0
        for c in dtop:
            acc = (acc * a + c) % p
        (simple if acc else unresolved).append(a)
    # when Q(0) is an exact zero, the root 0 lifts to the exact zero in no
    # step and its Taylor shift multiplies only by zero: all small operations
    z = 1 if simple[:1] == [0] and q_coeffs[0].is_exact_zero else 0
    r = len(simple) - z
    bits = n_prec * p.bit_length()
    if (P.degree + 1) ** 2 * (z + r * max(1, bits / 640) ** 2) > DISCOVERY_LIFT_BOUND:
        raise ValidationError(
            f"fixed-point discovery lifts each simple root mod p with about (deg P + 1)^2"
            f" operations on {bits}-bit numbers, so it needs (deg P + 1)^2"
            f" (z + r max(1, bits / 640)^2) <= {DISCOVERY_LIFT_BOUND}, where z = 1 for an"
            f" exact root 0 and r counts the other simple roots; r = {r}, z = {z},"
            f" deg P = {P.degree} and N = {n_prec}"
        )
    dP = P.derivative()
    points = []
    for a in simple:
        x = ctx.integer(a)
        for _ in range(n_prec.bit_length() + 3):
            fx = Q(x)
            if fx.is_zero_to_precision and fx.zero_bound >= n_prec - _FIXED_POINT_SLACK:
                break
            x = x - fx / Qprime(x)
        fx = Q(x)
        if not (fx.is_zero_to_precision and fx.zero_bound >= n_prec - _FIXED_POINT_SLACK):
            unresolved.append(a)
            continue
        mult = dP(x)
        cls = _classify(mult)
        radius = None
        if cls == ATTRACTING:
            radius = contraction_radius(P.shift_argument(x), mult.valuation)
        points.append(FixedPointInfo(x, mult, cls, radius))
    return FixedPointScan(points, sorted(unresolved))


def contraction_radius(g, v1: int) -> int:
    """Smallest integer m >= 1 with v(b_i) + (i - 1) m > v1 for every i >= 2.

    ``g`` lists coefficients b_0, b_1, ...: for a map fixing 0 with ``v1`` the
    valuation of its multiplier b_1, the ball {v >= m} is where it scales
    distances by exactly |b_1|; for a series with b_1 = 1 and ``v1`` = 0, where
    the terms above the linear one are strictly dominated.  v(b_i) is read as
    its lower bound, and exact zeros impose nothing.
    """
    m = 1
    for i in range(2, len(g)):
        if g[i].is_exact_zero:
            continue
        need = (v1 - g[i].valuation_lower_bound) // (i - 1) + 1
        if need > m:
            m = need
    return m


def orbit_distances(P: Polynomial, alpha: PadicNumber, z: PadicNumber, steps: int):
    """Orbit points with distance valuations v(P^n(z) - alpha).

    Returns (points, distances, exhausted_at): distances[n] is the exact
    valuation, or None for a coordinate indistinguishable from alpha;
    exhausted_at marks the first step where a formerly-resolved distance
    collapsed below precision (the expected failure mode of long iterations).
    """
    points = [z]
    d0 = z - alpha
    was_resolved = d0.is_certified_nonzero
    distances = [d0.valuation if d0.is_certified_nonzero else None]
    exhausted_at = None
    for n in range(1, steps + 1):
        z = P(z)
        points.append(z)
        d = z - alpha
        if d.is_certified_nonzero:
            distances.append(d.valuation)
        else:
            distances.append(None)
            if was_resolved and exhausted_at is None:
                exhausted_at = n
    return points, distances, exhausted_at
