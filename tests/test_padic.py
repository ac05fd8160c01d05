"""Core Q_p arithmetic: representation, ultrametric axioms, norm identities."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from padicdyn import (
    Ball,
    MultivariatePoly,
    PadicContext,
    Polynomial,
    PrecisionError,
    TruncatedSeries,
    is_prime,
)


def vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.fixture(scope="module")
def c3():
    return PadicContext(3, 32)


@pytest.fixture(scope="module")
def c5():
    return PadicContext(5, 32)


class TestContext:
    def test_rejects_composite_prime(self):
        with pytest.raises(ValueError):
            PadicContext(9, 10)
        with pytest.raises(ValueError):
            PadicContext(1, 10)

    def test_rejects_zero_precision(self):
        with pytest.raises(ValueError):
            PadicContext(3, 0)

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31)
        # psi_12 passes the strong test to every base 2..37; base 41 exposes it
        assert not is_prime(318665857834031151167461)
        # psi_13 passes all 13 bases 2..41: outside the proven range
        with pytest.raises(ValueError):
            is_prime(3317044064679887385961981)


class TestForeignContext:
    """A number from another context is refused wherever a constructor or a
    series operator takes one; read as triples it would be silently wrong."""

    @pytest.fixture
    def foreign(self):
        return PadicContext(5, 32).integer(5)

    def test_the_wrong_answer_it_prevents(self, c3, c5):
        # 5*3 + 9 = 24 has v_3 = 1; the foreign 5 read as a 3-adic triple gives v = 2
        assert Polynomial(c3, [0, c3.integer(5), 1])(3).valuation == 1
        with pytest.raises(ValueError, match="different p-adic contexts"):
            Polynomial(c3, [0, c5.integer(5), 1])

    def test_constructors_refuse_it(self, c3, foreign):
        with pytest.raises(ValueError, match="different p-adic contexts"):
            Polynomial(c3, [foreign, 1])
        with pytest.raises(ValueError, match="different p-adic contexts"):
            MultivariatePoly(c3, 1, {(1,): foreign})
        with pytest.raises(ValueError, match="different p-adic contexts"):
            TruncatedSeries.from_coefficients(c3, [1, foreign])
        with pytest.raises(ValueError, match="different p-adic contexts"):
            TruncatedSeries.constant(c3, foreign, 4)

    @pytest.mark.parametrize("op", [
        lambda s, x: s + x,
        lambda s, x: x + s,
        lambda s, x: s - x,
        lambda s, x: s * x,
        lambda s, x: x * s,
        lambda s, x: s.scale(x),
    ], ids=["s+x", "x+s", "s-x", "s*x", "x*s", "scale"])
    def test_series_scalar_operators_refuse_it(self, c3, foreign, op):
        s = TruncatedSeries.from_coefficients(c3, [1, 3, 9])
        with pytest.raises(ValueError, match="different p-adic contexts"):
            op(s, foreign)

    def test_an_equal_context_is_the_same_context(self, c3):
        twin = PadicContext(3, 32)
        P = Polynomial(c3, [twin.integer(2), 1])
        assert P(1).valuation == 1
        s = TruncatedSeries.from_coefficients(c3, [1, 1]) + twin.integer(2)
        assert s.coefficient(0).valuation == 1


class TestFromRational:
    def test_18_in_q3(self, c3):
        x = c3.from_rational(18)
        assert x.valuation == 2
        assert x.digits(1) == [2]  # 18 = 2 * 3^2

    def test_one_third(self, c3):
        x = c3.from_rational(1, 3)
        assert x.valuation == -1
        assert x.digits(1) == [1]

    def test_7_over_10_in_q5(self, c5):
        x = c5.from_rational(7, 10)
        assert x.valuation == -1
        # multiply back: the unit must be the modular inverse image of 7/2
        assert (x * c5.integer(10) - c5.integer(7)).is_zero_to_precision

    def test_zero_denominator(self, c3):
        with pytest.raises(ZeroDivisionError):
            c3.from_rational(1, 0)

    def test_zero_is_exact(self, c3):
        assert c3.from_rational(0).is_exact_zero


class TestArithmetic:
    def test_additive_inverse_bound(self, c3):
        x = c3.from_rational(18)
        z = x + (-x)
        assert z.is_zero_to_precision and not z.is_exact_zero
        assert z.zero_bound == x.valuation + x.relative_precision

    def test_3_plus_9(self, c3):
        s = c3.integer(3) + c3.integer(9)
        assert s.valuation == 1
        assert s.digits(2) == [1, 1]  # unit 4 = 1 + 1*3

    def test_division_by_indeterminate_zero(self, c3):
        x = c3.integer(5)
        z = x - x  # zero to precision, not exact
        with pytest.raises(ZeroDivisionError):
            x / z

    def test_rational_round_trip(self, c3):
        rng = random.Random(7)
        for _ in range(50):
            a = rng.randint(1, 500)
            b = rng.randint(1, 500)
            x = c3.from_rational(a, b)
            y = c3.from_rational(b, a)
            assert ((x * y) - c3.one()).is_zero_to_precision

    def test_eq_raises_when_undecidable(self, c3):
        x = c3.integer(5)
        y = c3.integer(5)
        with pytest.raises(PrecisionError):
            bool(x == y)  # difference is an inexact zero
        assert (x == c3.integer(6)) is False
        assert (c3.zero() == c3.zero()) is True


class TestPow:
    def test_pow_zero_one(self, c3):
        x = c3.from_rational(7, 3)
        d0 = (x**0) - c3.one()
        assert d0.is_zero_to_precision and d0.zero_bound == 32
        d1 = (x**1) - x
        assert d1.is_zero_to_precision and d1.zero_bound == x.valuation + 32

    def test_pow_cube_minus_one(self, c3):
        # 10^3 - 1 = 999 = 3^3 * 37
        x = c3.integer(10)
        assert (x**3 - c3.one()).valuation == 3
        assert vp(999, 3) == 3  # integer oracle

    def test_valuation_multiplicative(self, c5):
        rng = random.Random(11)
        for _ in range(40):
            x = c5.from_rational(rng.randint(1, 10**6), rng.randint(1, 10**6))
            n = rng.randint(0, 12)
            if n == 0:
                continue
            assert (x**n).valuation == n * x.valuation


@settings(max_examples=150, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=10**9),
    b=st.integers(min_value=1, max_value=10**9),
    sa=st.sampled_from([1, -1]),
    sb=st.sampled_from([1, -1]),
)
def test_ultrametric_axioms(a, b, sa, sb):
    ctx = PadicContext(3, 40)
    x = ctx.integer(sa * a)
    y = ctx.integer(sb * b)
    s = x + y
    if s.is_certified_nonzero:
        assert s.valuation >= min(x.valuation, y.valuation)
    if x.valuation != y.valuation:
        assert s.valuation == min(x.valuation, y.valuation)
    assert (x * y).valuation == x.valuation + y.valuation


class TestSchinzel:
    """v(b**n - b) = v(b) for v(b) >= 1, since b**(n-1) - 1 is then a unit."""

    def test_example_p5(self, c5):
        b = c5.integer(5)
        assert (b**7 - b).valuation == 1

    def test_example_p3(self, c3):
        b = c3.integer(9)
        assert (b**2 - b).valuation == 2
        assert vp(81 - 9, 3) == 2

    def test_agrees_with_direct_computation(self, c5):
        rng = random.Random(23)
        for _ in range(60):
            unit = rng.randint(1, 10**4)
            while unit % 5 == 0:
                unit = rng.randint(1, 10**4)
            v = rng.randint(1, 3)
            b = c5.integer(unit * 5**v)
            n = rng.randint(2, 200)
            assert (b**n - b).valuation == v


def assert_norm_identity(beta, n):
    """v(beta**n - 1) == v(beta - 1) + v_p(n), both sides computed directly."""
    one = beta.ctx.one()
    assert (beta**n - one).valuation == (beta - one).valuation + vp(n, beta.ctx.prime)


class TestNormIdentity:
    """|beta**n - 1| = |beta - 1| |n| for v(beta - 1) >= 2."""

    def test_999(self, c3):
        assert_norm_identity(c3.integer(10), 3)
        assert vp(999, 3) == 3

    def test_99(self, c3):
        assert_norm_identity(c3.integer(10), 2)
        assert vp(99, 3) == 2

    def test_random_sample(self):
        # 1000+ draws across the primes, n up to 10^6
        rng = random.Random(31)
        for p in (3, 5, 7):
            ctx = PadicContext(p, 64)
            for _ in range(334):
                v = rng.randint(2, 5)
                unit = rng.randint(1, p**6)
                while unit % p == 0:
                    unit = rng.randint(1, p**6)
                beta = ctx.one() + ctx.integer(unit * p**v)
                n = rng.randint(1, 10**6)
                assert_norm_identity(beta, n)


class TestBall:
    def test_membership(self, c3):
        ball = Ball(c3.zero(), 2)
        assert ball.contains(c3.integer(9))
        assert not ball.contains(c3.integer(3))
        assert ball.contains(c3.zero())

    def test_undecidable_membership_raises(self, c3):
        deep = Ball(c3.zero(), c3.working_precision + 10)
        x = c3.integer(5)
        with pytest.raises(PrecisionError):
            deep.contains(x - x)  # zero only to precision 32 < 42
