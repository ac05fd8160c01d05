"""Truncated series: ring ops, composition, certified evaluation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import PadicContext, Polynomial, PrecisionError, TruncatedSeries, linearize
from padicdyn import _core
from padicdyn.series import ZERO_TAIL, TailBound
from test_triple_paths import numbers  # exact zero, inexact zero, or a unit of k <= N digits


@pytest.fixture(scope="module")
def ctx():
    return PadicContext(3, 40)


def series_equal_to_precision(a, b):
    t = min(a.order, b.order)
    return all((a.coefficient(i) - b.coefficient(i)).is_zero_to_precision for i in range(t + 1))


def random_series(ctx, rng, order, zero_constant=False):
    coeffs = [rng.randint(-40, 40) for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = 0
    return TruncatedSeries.from_coefficients(ctx, coeffs, order=order)


class TestRingOps:
    def test_product_tail_rule(self, ctx):
        x2 = TruncatedSeries.from_coefficients(ctx, [0, 0, 1], order=5)
        x3 = TruncatedSeries.from_coefficients(ctx, [0, 0, 0, 1], order=5)
        assert (x2 * x3).tail == ZERO_TAIL  # degree 5 fits order 5
        assert (x2.truncate(4) * x3.truncate(4)).tail == TailBound(Fraction(0), Fraction(0))
        tail = TailBound(Fraction(-1), Fraction(3))
        dark = TruncatedSeries.from_coefficients(ctx, [0], order=5, tail=tail)  # only a tail
        assert (TruncatedSeries.zero(ctx, 5) * dark).tail == ZERO_TAIL
        assert (x2 * dark).tail == tail

    def test_add_zero(self, ctx):
        f = TruncatedSeries.from_coefficients(ctx, [1, 2, 3], order=8)
        assert series_equal_to_precision(f + TruncatedSeries.zero(ctx, 8), f)

    def test_x_squared(self, ctx):
        x = TruncatedSeries.variable(ctx, 8)
        sq = x * x
        assert sq.coefficient(2).digits(1) == [1]
        assert sq.coefficient(1).is_exact_zero
        assert sq.coefficient(3).is_exact_zero

    def test_difference_of_squares(self, ctx):
        one = TruncatedSeries.constant(ctx, 1, 8)
        x = TruncatedSeries.variable(ctx, 8)
        h = (one + x) * (one - x)
        assert h.coefficient(1).is_zero_to_precision  # certified zero at X^1
        assert (h.coefficient(2) + ctx.one()).is_zero_to_precision
        assert h.tail.is_infinite

    def test_truncation_to_min_order(self, ctx):
        a = TruncatedSeries.from_coefficients(ctx, [1, 1, 1, 1, 1], order=4)
        b = TruncatedSeries.from_coefficients(ctx, [1, 2], order=1)
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_truncate_folds_dropped_coefficients_into_tail(self, ctx):
        f = TruncatedSeries.from_coefficients(ctx, [1, 0, 0, 0, 9], order=4)
        g = f.truncate(2)
        assert not g.tail.is_infinite
        assert g.tail.bound_at(4) <= 2  # the dropped 9 = 3^2 stays bounded

    def test_coefficients_above_the_order_must_be_exact_zeros(self, ctx):
        # the exact zero tail would claim that a dropped 3 at degree 2 does not exist
        with pytest.raises(ValueError, match="above truncation order 1"):
            TruncatedSeries.from_coefficients(ctx, [1, 2, 3], order=1)
        with pytest.raises(ValueError):
            TruncatedSeries.from_coefficients(ctx, [1, 0, ctx.zero(30)], order=1)
        f = TruncatedSeries.from_coefficients(ctx, [1, 2, 0, ctx.zero()], order=1)
        assert f.order == 1 and f.tail == ZERO_TAIL

    def test_scale(self, ctx):
        f = TruncatedSeries.from_coefficients(ctx, [1, 2], order=3)
        g = f.scale(ctx.integer(3))
        assert g.coefficient(0).valuation == 1
        assert g.coefficient(1).valuation == 1


class TestCompose:
    def test_identity_right(self, ctx):
        rng = random.Random(5)
        f = random_series(ctx, rng, 10)
        x = TruncatedSeries.variable(ctx, 10)
        assert series_equal_to_precision(f.compose(x), f)

    def test_square_of_x_plus_x2(self, ctx):
        x = TruncatedSeries.variable(ctx, 10)
        comp = (x * x).compose(x + x * x)
        expected = [0, 0, 1, 2, 1, 0]
        for i, e in enumerate(expected):
            assert (comp.coefficient(i) - ctx.integer(e)).is_zero_to_precision
        assert comp.tail.is_infinite

    def test_rejects_nonzero_inner_constant_for_series_outer(self, ctx):
        # a true series outer, then polynomial outers (infinite tail): any
        # inner constant that is not an exact zero is refused, even an
        # inexact zero
        series_outer = TruncatedSeries.from_coefficients(
            ctx, [0, 1], order=6, tail=TailBound(Fraction(0), Fraction(0))
        )
        poly_outer = TruncatedSeries.from_coefficients(ctx, [1, 1, 1], order=6)
        three = ctx.integer(3)
        inexact_zero = three - three
        assert inexact_zero.is_zero_to_precision and not inexact_zero.is_exact_zero
        for outer, c0 in ((series_outer, 1), (poly_outer, 2), (poly_outer, inexact_zero)):
            inner = TruncatedSeries.from_coefficients(ctx, [c0, 1], order=6)
            with pytest.raises(ValueError):
                outer.compose(inner)

    def test_associativity(self, ctx):
        rng = random.Random(17)
        for _ in range(5):
            t = 9
            f = random_series(ctx, rng, t)
            g = random_series(ctx, rng, t, zero_constant=True)
            h = random_series(ctx, rng, t, zero_constant=True)
            left = f.compose(g).compose(h)
            right = f.compose(g.compose(h))
            assert series_equal_to_precision(left, right)


def reference_compose(outer, inner):
    """Full-order Horner from the public ring operations, with the tail rule
    of TruncatedSeries.compose: the reference the array Horner must match."""
    ctx = outer.ctx
    inner_c0_exact_zero = inner.coefficient(0).is_exact_zero
    t = min(outer.order, inner.order)
    inner_t = inner.truncate(t)
    acc = TruncatedSeries.constant(ctx, outer.coefficient(outer.order), t)
    for i in range(outer.order - 1, -1, -1):
        acc = acc * inner_t + outer.coefficient(i)
    s_in, b_in = inner_t._envelope(1 if inner_c0_exact_zero else 0)
    s_o, b_o = outer._envelope(1)
    d_outer = outer._degree_bound()
    d_inner = inner_t._degree_bound()
    if b_o == math.inf or b_in == math.inf:
        tail = ZERO_TAIL
    elif outer.tail.is_infinite and inner_t.tail.is_infinite and d_outer * (d_inner or 0) <= t:
        tail = ZERO_TAIL
    else:
        s = s_o + b_in
        if outer.tail.is_infinite:
            tail = TailBound(s_in, b_o + min(s, s * d_outer))
        elif s >= 0:
            tail = TailBound(s_in, b_o + s)
        else:
            tail = TailBound(s_in + s, b_o)
    return acc, tail


def triples_of(f):
    return [(c._v, c._u, c._k) for c in f.coefficients()]


def assert_compose_matches_reference(outer, inner):
    got = outer.compose(inner)
    acc, tail = reference_compose(outer, inner)
    assert got.order == acc.order
    assert triples_of(got) == triples_of(acc)
    assert got.tail == tail


class TestComposeMatchesFullHorner:
    @pytest.mark.parametrize("outer_order, inner_order", [(14, 9), (9, 9), (6, 11)])
    def test_random_series(self, ctx, outer_order, inner_order):
        rng = random.Random(53 + outer_order + inner_order)
        for trial in range(6):
            tail = TailBound(Fraction(rng.randint(0, 2)), Fraction(rng.randint(-3, 3)))
            outer = random_series(ctx, rng, outer_order)
            outer = TruncatedSeries(ctx, outer_order, outer._v, outer._u, outer._k,
                                    ZERO_TAIL if trial % 3 == 0 else tail)
            inner = random_series(ctx, rng, inner_order, zero_constant=True)
            inner = inner.scale(ctx.from_rational(rng.choice([1, 3, 9]), rng.choice([1, 2, 3])))
            assert_compose_matches_reference(outer, inner)

    def test_inexact_zeros_in_both(self, ctx):
        rng = random.Random(59)
        coeffs = [rng.choice([ctx.zero(rng.randint(0, 30)), rng.randint(-40, 40)]) for _ in range(11)]
        outer = TruncatedSeries.from_coefficients(ctx, coeffs, tail=TailBound(Fraction(1), Fraction(0)))
        inner = random_series(ctx, rng, 10, zero_constant=True)
        x = ctx.from_rational(5, 7)
        inner = inner + TruncatedSeries.from_coefficients(ctx, [0, x - x, 0, 9 - ctx.integer(9)],
                                                           order=10)
        assert not inner.coefficient(1).is_exact_zero
        assert_compose_matches_reference(outer, inner)

    def test_exp_of_scaled_log(self):
        # the pullback of build_F: E_2(lambda * L_1(w))
        c = PadicContext(3, 48)
        t = 12
        lin1 = linearize(Polynomial(c, [0, 3, 1]), c.zero(), t)
        lin2 = linearize(Polynomial(c, [0, 6, -2, 1]), c.zero(), t)
        for lam in (c.one(), c.from_rational(2, 5), c.integer(3)):
            inner = lin1.log_series.scale(lam)
            assert_compose_matches_reference(lin2.exp_series, inner)
            assert_compose_matches_reference(lin2.exp_series, inner.truncate(7))

    def test_no_horner_step(self, ctx):
        # an outer of order 0, or truncation 0: no Horner step runs and t is 0
        rng = random.Random(61)
        tail = TailBound(Fraction(1), Fraction(-2))
        inner = random_series(ctx, rng, 5, zero_constant=True)
        for outer in (TruncatedSeries.constant(ctx, 7, 0),
                      TruncatedSeries.from_coefficients(ctx, [7], tail=tail)):
            assert_compose_matches_reference(outer, inner)
        outer = random_series(ctx, rng, 4)
        outer = TruncatedSeries(ctx, 4, outer._v, outer._u, outer._k, tail)
        assert_compose_matches_reference(outer, TruncatedSeries.zero(ctx, 0))


class TestEvaluate:
    def test_identity(self, ctx):
        x = TruncatedSeries.variable(ctx, 10)
        z = ctx.from_rational(7, 3)
        assert ((x.evaluate(z)) - z).is_zero_to_precision

    def test_zero_at_zero(self, ctx):
        x = TruncatedSeries.variable(ctx, 10)
        assert x.evaluate(ctx.zero()).is_zero_to_precision

    def test_geometric_closed_form(self, ctx):
        t = 12
        geo = TruncatedSeries.from_coefficients(
            ctx, [1] * (t + 1), order=t, tail=TailBound(Fraction(0), Fraction(0))
        )
        for a in (3, 9, 27):
            z = ctx.integer(a)
            approx = geo.evaluate(z)
            exact = ctx.from_rational(1, 1 - a)
            err = approx - exact
            floor = (t + 1) * z.valuation
            assert err.is_zero_to_precision and err.zero_bound >= floor

    def test_tail_not_dominated(self, ctx):
        t = 6
        f = TruncatedSeries.from_coefficients(
            ctx, [0, 1], order=t, tail=TailBound(Fraction(-2), Fraction(0))
        )
        with pytest.raises(PrecisionError):
            f.evaluate(ctx.integer(9))  # v(z)=2 does not beat slope -2

    def test_tail_honesty_of_product(self, ctx):
        # multiply at low order, compare against the full product: every dropped
        # coefficient must satisfy the propagated tail bound
        rng = random.Random(41)
        for _ in range(10):
            a_full = random_series(ctx, rng, 12)
            b_full = random_series(ctx, rng, 12)
            low = a_full.truncate(5) * b_full.truncate(5)
            full = a_full * b_full
            assert not low.tail.is_infinite
            for n in range(6, 11):
                c = full.coefficient(n)
                if c.is_certified_nonzero:
                    assert Fraction(c.valuation) >= low.tail.bound_at(n)


# -- the deleted second paths of negation and of adding a number ------------------


def reference_neg(s):
    """The former ``TruncatedSeries.__neg__``: one ``tr_neg`` per coefficient."""
    p = s.ctx.prime
    vals, units, precs = [], [], []
    for i in range(s.order + 1):
        v, u, k = _core.tr_neg(p, s._v[i], s._u[i], s._k[i])
        vals.append(v)
        units.append(u)
        precs.append(k)
    return TruncatedSeries(s.ctx, s.order, vals, units, precs, s.tail)


def reference_add_number(s, other):
    """The former ``series + number``: a copy with ``tr_add`` at degree 0."""
    c = s.ctx.element(other)
    vals = list(s._v)
    units = list(s._u)
    precs = list(s._k)
    v, u, k = _core.tr_add(s.ctx.prime, vals[0], units[0], precs[0], c._v, c._u, c._k)
    vals[0], units[0], precs[0] = v, u, k
    return TruncatedSeries(s.ctx, s.order, vals, units, precs, s.tail)


def series_triples(s):
    return s.order, s._v, s._u, s._k, s.tail


@st.composite
def series_and_numbers(draw):
    ctx = PadicContext(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 12)))
    coeffs = draw(st.lists(numbers(ctx), min_size=1, max_size=7))
    tail = draw(st.sampled_from([ZERO_TAIL, TailBound(-1, 3), TailBound(2, -5)]))
    s = TruncatedSeries.from_coefficients(ctx, coeffs, tail=tail)
    c = draw(st.one_of(numbers(ctx), st.integers(-10**6, 10**6)))
    return s, c


@settings(max_examples=300, deadline=None)
@given(series_and_numbers())
def test_negation_and_number_sums_match_the_deleted_paths(case):
    s, c = case
    neg_c = -s.ctx.element(c)
    assert series_triples(-s) == series_triples(reference_neg(s))
    assert series_triples(s + c) == series_triples(reference_add_number(s, c))
    assert series_triples(c + s) == series_triples(reference_add_number(s, c))
    assert series_triples(s - c) == series_triples(reference_add_number(s, neg_c))
    assert series_triples(s - s) == series_triples(s + reference_neg(s))
