"""Newton polygons and certified zero counting.

The random oracle builds monic polynomials as exact integer products of linear
factors with prescribed root valuations, so the true count of roots in every
ball is known by construction.
"""

import random
from fractions import Fraction

import pytest

from padicdyn import PadicContext, PrecisionError, TruncatedSeries
from padicdyn.series import TailBound


@pytest.fixture(scope="module")
def ctx():
    return PadicContext(3, 48)


def poly_from_roots(ctx, roots, order=None):
    """Exact integer expansion of prod (X - r)."""
    acc = [1]
    for r in roots:
        nxt = [0] * (len(acc) + 1)
        for i, c in enumerate(acc):
            nxt[i] += -r * c
            nxt[i + 1] += c
        acc = nxt
    if order is None:
        order = len(acc) - 1
    return TruncatedSeries.from_coefficients(ctx, acc, order=order)


class TestPolygonShapes:
    def test_pure_x(self, ctx):
        x = TruncatedSeries.variable(ctx, 6)
        assert x.hull_segments() == []  # single vertex, no finite slopes

    def test_p_minus_x(self, ctx):
        f = TruncatedSeries.constant(ctx, 3, 6) - TruncatedSeries.variable(ctx, 6)
        assert f.hull_segments() == [(-1, 1)]

    def test_two_slope_example(self, ctx):
        # p^2 - (1+p)X + X^2 = (X - 1)(X - p^2): v(c0)=2, v(c1)=0, v(c2)=0
        f = poly_from_roots(ctx, [1, 9], order=8)
        assert f.hull_segments() == [(-2, 1), (0, 1)]

    def test_all_zero_raises(self, ctx):
        with pytest.raises(PrecisionError):
            TruncatedSeries.zero(ctx, 4).hull_segments()


class TestZeroCounts:
    def test_x_in_unit_ball(self, ctx):
        x = TruncatedSeries.variable(ctx, 6)
        zc = x.count_zeros_in_ball(1)
        assert (zc.count, zc.certified) == (1, True)

    def test_p_minus_x(self, ctx):
        f = TruncatedSeries.constant(ctx, 3, 6) - TruncatedSeries.variable(ctx, 6)
        assert f.count_zeros_in_ball(1) == f.count_zeros_in_ball(1).__class__(1, True, None)

    def test_one_plus_x(self, ctx):
        f = TruncatedSeries.constant(ctx, 1, 6) + TruncatedSeries.variable(ctx, 6)
        zc = f.count_zeros_in_ball(1)
        assert (zc.count, zc.certified) == (0, True)

    def test_random_products(self, ctx):
        rng = random.Random(53)
        for _ in range(40):
            deg = rng.randint(1, 12)
            vals = [rng.randint(0, 5) for _ in range(deg)]
            roots = []
            for v in vals:
                unit = rng.randint(1, 80)
                while unit % 3 == 0:
                    unit = rng.randint(1, 80)
                roots.append(unit * 3**v * rng.choice([1, -1]))
            f = poly_from_roots(ctx, roots)
            for m in range(6):
                zc = f.count_zeros_in_ball(m)
                true = sum(1 for v in vals if v >= m)
                assert zc.certified, zc.reason
                assert zc.count == true

    def test_root_at_origin(self, ctx):
        # X^2 * (X - 9): two zeros at 0 plus one at valuation 2
        f = poly_from_roots(ctx, [0, 0, 9])
        assert f.count_zeros_in_ball(1).count == 3
        assert f.count_zeros_in_ball(3).count == 2


class TestCertificationRefusals:
    def test_uncertain_coefficient_below_ray(self, ctx):
        # constant 3, linear term only known to be O(3^-1): could create a
        # slope <= -1 segment, so a v>=1 count must refuse
        f = TruncatedSeries.from_coefficients(ctx, [3, 0], order=4)
        f._v[1] = -1  # inexact zero with bound -1
        f._u[1] = 0
        f._k[1] = 0
        zc = f.count_zeros_in_ball(1)
        assert not zc.certified
        assert "coefficient 1" in zc.reason

    def test_shallow_tail_refuses(self, ctx):
        f = TruncatedSeries.from_coefficients(
            ctx, [3, 1], order=4, tail=TailBound(Fraction(-2), Fraction(0))
        )
        zc = f.count_zeros_in_ball(2)
        assert not zc.certified

    def test_dominated_tail_certifies(self, ctx):
        f = TruncatedSeries.from_coefficients(
            ctx, [3, 1], order=4, tail=TailBound(Fraction(0), Fraction(4))
        )
        zc = f.count_zeros_in_ball(1)
        assert zc.certified
        assert zc.count == 1
