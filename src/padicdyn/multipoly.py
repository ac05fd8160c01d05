"""Exact multivariate polynomials over Q_p (variety generators)."""

from __future__ import annotations

from . import _core
from .errors import PrecisionError
from .padic import INF_BOUND, VALUATION_BOUND, PadicContext, PadicNumber, triple_pow
from .series import TruncatedSeries

# the outcomes of MultivariatePoly.term_test other than None
UNIT = "unit"
TIE = "tie"


class MultivariatePoly:
    """Polynomial in g variables, stored as {exponent vector: coefficient}.

    Exactly-zero coefficients are dropped at construction; a coefficient that
    is merely zero to precision is rejected (generators must be given exactly,
    e.g. from rational input).  The terms are fixed at construction, which
    also builds their triples for ``eval_triples``.  ``terms`` keeps each
    coefficient as given; a term with a variable stores its coefficient's unit
    as the smaller of u and p**k - u, with a sign, so that -x is a product by
    (0, 1, k) and one ``tr_neg`` rather than an N-digit product by p**N - 1.
    ``variables`` lists, in increasing order, the variables that some term
    reads (a nonzero exponent).
    """

    __slots__ = ("ctx", "nvars", "terms", "_monomials", "variables")

    def __init__(self, ctx: PadicContext, nvars: int, terms):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.ctx = ctx
        self.nvars = nvars
        clean = {}
        for expo, coeff in dict(terms).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo}")
            coeff = ctx.element(coeff)
            if coeff.is_exact_zero:
                continue
            if coeff.is_zero_to_precision:
                raise ValueError("generator coefficients must be exact or certified nonzero")
            if expo in clean:
                raise ValueError(f"duplicate exponent vector {expo}")
            clean[expo] = coeff
        self.terms = clean
        # per term: whether it is negated, its coefficient's triple with the
        # smaller unit of +-c, and the (variable, exponent) pairs with exponent > 0
        p = ctx.prime
        self._monomials = []
        for expo, c in clean.items():
            powers = [(i, e) for i, e in enumerate(expo) if e]
            u = c._u
            negated = bool(powers) and p**c._k - u < u
            if negated:
                u = p**c._k - u
            self._monomials.append((negated, (c._v, u, c._k), powers))
        self.variables = tuple(sorted({i for _, _, powers in self._monomials for i, _ in powers}))

    def __repr__(self):
        return f"MultivariatePoly(nvars={self.nvars}, {len(self.terms)} terms)"

    def evaluate(self, point) -> PadicNumber:
        """Value at a tuple of g scalars (PadicNumbers or ints), by ``eval_triples``."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong arity")
        zero = self.ctx.zero()
        xs = []
        for x in point:
            x = zero._coerce(x)
            if x is None:
                raise TypeError("a generator is evaluated at PadicNumbers or ints")
            xs.append((x._v, x._u, x._k))
        v, u, k = self.eval_triples(xs)
        return PadicNumber(self.ctx, v, u, k)

    def eval_triples(self, xs):
        """Value at a list of g (v, u, k) triples, as a triple.

        Each term is its coefficient times the powers in variable order, added
        to the sum in term order.  A negated term multiplies by -c and negates
        the product once: -(c*x) and (-c)*x are the same triple, because a
        product keeps the lesser k of its factors and a unit product is never
        0 modulo p**k.  A kernel call that would return its operand is skipped:
        a product by a term that is exactly (0, 1, k), so also by a coefficient
        -1, when the power is a unit with at most k digits or a zero bounded at
        most at INF_BOUND, the negation of a zero, and the first addition to
        the empty sum (an exact zero) when the term's absolute precision is at
        most INF_BOUND.  A term that is a unit of valuation INF_BOUND or more,
        at a point whose valuations are within VALUATION_BOUND (the values
        ``validate`` admits), raises PrecisionError: any sum would read it as
        an exact zero.
        """
        p = self.ctx.prime
        av, au, ak = INF_BOUND, 0, 0
        for negated, (tv, tu, tk), powers in self._monomials:
            for i, e in powers:
                xv, xu, xk = xs[i]
                if e > 1:
                    xv, xu, xk = triple_pow(p, xv, xu, xk, e)
                if tu == 1 and tv == 0 and (xk <= tk if xu else xv <= INF_BOUND):
                    tv, tu, tk = xv, xu, xk
                else:
                    tv, tu, tk = _core.tr_mul(p, tv, tu, tk, xv, xu, xk)
            if tv >= INF_BOUND and tu and all(
                abs(xs[i][0]) <= VALUATION_BOUND for i, _ in powers
            ):
                raise PrecisionError(
                    f"a generator term has valuation {tv}, not below INF_BOUND = {INF_BOUND}:"
                    " it cannot be told from an exact zero"
                )
            if negated and tu:
                tv, tu, tk = _core.tr_neg(p, tv, tu, tk)
            if au or av < INF_BOUND or tv + tk > INF_BOUND:
                av, au, ak = _core.tr_add(p, av, au, ak, tv, tu, tk)
            else:
                av, au, ak = tv, tu, tk
        return av, au, ak

    def term_test(self, vals):
        """``UNIT``, ``TIE`` or None, from the term valuations at a point of units.

        ``vals[i]`` is the valuation of variable i, for every variable some
        term reads, at a point where each of those variables is a unit.  A
        term's valuation is then exactly v(c) + sum of e_i * vals[i].  The
        result is ``UNIT`` when exactly one term has the least valuation and
        every term lies below INF_BOUND: ``eval_triples`` at that point returns
        a unit of that valuation.  It is ``TIE`` when the least valuation is
        shared, no constant term has it, and every term has max(v(c), 0) +
        sum of e_i * max(vals[i], 0) + N below INF_BOUND, N the working
        precision: every product ``eval_triples`` forms at such a point (the
        powers of ``triple_pow`` and a term's partial products) is then a unit
        of valuation at most its term's bound less N, with at most N digits,
        and a sum keeps at most the least absolute precision of its operands,
        so no value formed has a valuation or absolute precision at INF_BOUND
        or more.  It is None otherwise: no term, a term at or past INF_BOUND,
        or a constant at the least valuation.  Such a constant is passed over:
        a settled coordinate's valuation grows while the constant's does not,
        so the tie holds at one index, where a hit X_i - z_k lies, and
        evaluating there costs only the catch-up the hit needs anyway.  (The
        proofs that use these outcomes are in ``scan.direct_orbit_scan``.)
        """
        n = self.ctx.working_precision
        least = None
        shared = constant = wide = False
        for _, (tv, _, _), powers in self._monomials:
            top = tv if tv > 0 else 0
            for i, e in powers:
                v = vals[i]
                tv += e * v
                if v > 0:
                    top += e * v
            if tv >= INF_BOUND:
                return None
            wide = wide or top + n >= INF_BOUND
            if least is None or tv < least:
                least, shared, constant = tv, False, not powers
            elif tv == least:
                shared, constant = True, constant or not powers
        if least is None or shared and (constant or wide):
            return None
        return TIE if shared else UNIT

    def evaluate_series(self, series_list, order: int) -> TruncatedSeries:
        """Substitute a truncated series for each variable.

        Each power a term needs is built by square and multiply, one table per
        variable shared by all terms: S^e = S^(e-1) * S for odd e and for
        e = 2, and S^(e/2) * S^(e/2) for even e >= 4, from S^0 = 1.  So S^e
        costs O(log e) series products, and S, S^2 and S^3 are the products
        of multiplying by S one factor at a time.  A variable with exponent 0
        in every term is never read, so its entry may be anything, ``None``
        included.
        """
        if len(series_list) != self.nvars:
            raise ValueError("series tuple has wrong arity")
        one = TruncatedSeries.constant(self.ctx, self.ctx.one(), order)
        acc = TruncatedSeries.zero(self.ctx, order)
        powers = {}  # variable -> (its series truncated at order, {exponent: power})
        for expo, coeff in self.terms.items():
            term = TruncatedSeries.constant(self.ctx, coeff, order)
            for i, e in enumerate(expo):
                if e:
                    if i not in powers:
                        powers[i] = (series_list[i].truncate(order), {0: one})
                    term = term * _series_power(*powers[i], e)
            acc = acc + term
        return acc


def _series_power(s, table, e):
    """s**e from ``table`` (exponent -> power, holding 0 -> one), which it extends."""
    power = table.get(e)
    if power is None:
        if e % 2 or e == 2:
            power = _series_power(s, table, e - 1) * s
        else:
            half = _series_power(s, table, e // 2)
            power = half * half
        table[e] = power
    return power
