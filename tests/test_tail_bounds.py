"""Tail-bound honesty: certified affine bounds must cover true coefficients.

Each test computes the same object at a much larger truncation order (the
ground truth for degrees beyond the small order) and checks every visible true
coefficient against the bound propagated at the small order.  These bounds are
what certified evaluation and zero counting stand on.
"""

import random
from fractions import Fraction

import pytest

from padicdyn import PadicContext, Polynomial, TruncatedSeries, linearize
from padicdyn.linearize import inverse_koenigs_coefficients, koenigs_coefficients


@pytest.fixture(scope="module")
def ctx():
    return PadicContext(3, 160)


def assert_tail_covers(small, large):
    assert not small.tail.is_infinite
    for n in range(small.order + 1, large.order + 1):
        c = large.coefficient(n)
        lb = c.valuation if c.is_certified_nonzero else c.valuation_lower_bound
        assert Fraction(lb) >= small.tail.bound_at(n), (n, lb, small.tail)


def test_koenigs_tail_covers_true_coefficients(ctx):
    rng = random.Random(97)
    for _ in range(4):
        coeffs = [0, 3 * rng.randint(1, 2)] + [rng.randint(-5, 5) for _ in range(2)] + [1]
        G = Polynomial(ctx, coeffs)
        small = koenigs_coefficients(G, 10)
        large = koenigs_coefficients(G, 40)
        assert_tail_covers(small, large)


def test_log_tail_covers_true_coefficients(ctx):
    rng = random.Random(101)
    for _ in range(4):
        coeffs = [0, 3] + [rng.randint(-5, 5) for _ in range(rng.randint(1, 2))] + [1]
        G = Polynomial(ctx, coeffs)
        small = inverse_koenigs_coefficients(G, 10)
        large = inverse_koenigs_coefficients(G, 40)
        assert_tail_covers(small, large)


def test_compose_tail_covers_true_coefficients(ctx):
    # exp(lambda * log(w)) at two orders: the small-order tail must bound the
    # larger computation's coefficients
    G1 = Polynomial(ctx, [0, 3, 1])
    G2 = Polynomial(ctx, [0, 3, 2, 1])
    lam = ctx.integer(3 * 4)
    small = koenigs_coefficients(G2, 12).compose(
        inverse_koenigs_coefficients(G1, 12).scale(lam)
    )
    large = koenigs_coefficients(G2, 44).compose(
        inverse_koenigs_coefficients(G1, 44).scale(lam)
    )
    assert_tail_covers(small, large)


def test_count_zeros_accepts_ball(ctx):
    f = TruncatedSeries.constant(ctx, 3, 6) - TruncatedSeries.variable(ctx, 6)
    zc = f.count_zeros_in_ball(1)
    assert (zc.count, zc.certified) == (1, True)


def test_mixed_context_operations_rejected():
    a = PadicContext(3, 20)
    b = PadicContext(3, 24)
    with pytest.raises(ValueError):
        a.one() + b.one()


def test_linearization_series_tails_match_documented_shapes(ctx):
    lin = linearize(Polynomial(ctx, [0, 3, 1]), ctx.zero(), 16)
    # exp: slope -(v(a1)+w+1) = -2, offset 0; log: slope -1, offset 1
    assert lin.exp_series.tail.slope == Fraction(-2)
    assert lin.exp_series.tail.offset == 0
    assert lin.log_series.tail.slope == Fraction(-1)
    assert lin.log_series.tail.offset == 1
