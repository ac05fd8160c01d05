"""Polynomial dynamics: evaluation, iteration, fixed points, contraction."""

import random

import pytest

from padicdyn import (
    ATTRACTING,
    INDIFFERENT,
    REPELLING,
    SUPERATTRACTING,
    PadicContext,
    Polynomial,
    ValidationError,
    find_fixed_points,
)
from padicdyn import dynamics
from padicdyn.dynamics import orbit_distances


def iterate(P, z, n):
    """n-fold application of P, one ``P(z)`` per step."""
    for _ in range(n):
        z = P(z)
    return z


@pytest.fixture(scope="module")
def c5():
    return PadicContext(5, 48)


@pytest.fixture(scope="module")
def c3():
    return PadicContext(3, 48)


class TestPolynomial:
    def test_eval_square(self, c5):
        P = Polynomial(c5, [0, 0, 1])
        assert (P(c5.integer(3)) - c5.integer(9)).is_zero_to_precision

    def test_derivative(self, c5):
        P = Polynomial(c5, [0, 5, 1])
        D = P.derivative()
        assert (D.coefficients[0] - c5.integer(5)).is_zero_to_precision
        assert (D.coefficients[1] - c5.integer(2)).is_zero_to_precision

    def test_derivative_finite_difference(self, c5):
        rng = random.Random(3)
        P = Polynomial(c5, [rng.randint(-9, 9) for _ in range(4)] + [1])
        D = P.derivative()
        z = c5.integer(rng.randint(1, 50))
        h = c5.integer(5**12)
        quotient = (P(z + h) - P(z)) / h
        diff = quotient - D(z)
        # agreement to roughly v(h) digits past the leading term
        assert diff.is_zero_to_precision or diff.valuation >= 11

    def test_leading_zero_trimmed(self, c5):
        P = Polynomial(c5, [1, 2, 0])
        assert P.degree == 1

    def test_constant_rejected(self, c5):
        with pytest.raises(ValidationError):
            Polynomial(c5, [3])


class TestIterate:
    def test_zero_steps(self, c5):
        P = Polynomial(c5, [0, 5, 1])
        z = c5.integer(7)
        assert (iterate(P, z, 0) - z).is_zero_to_precision

    def test_one_step_value(self, c5):
        # P = pX + X^2 at z = p: P(p) = 2 p^2 for odd p
        P = Polynomial(c5, [0, 5, 1])
        z1 = iterate(P, c5.integer(5), 1)
        assert z1.valuation == 2
        assert z1.digits(1) == [2]

    def test_contraction_valuations(self, c5):
        rng = random.Random(9)
        P = Polynomial(c5, [0, 5, 1])
        for _ in range(10):
            v0 = rng.randint(2, 5)
            unit = rng.choice([1, 2, 3, 4])
            z = c5.integer(unit * 5**v0)
            for n in range(1, 11):
                assert iterate(P, z, n).valuation == v0 + n

    def test_iterate_additivity(self, c5):
        P = Polynomial(c5, [0, 5, 2, 1])
        z = c5.integer(25)
        a, b = 3, 4
        lhs = iterate(P, iterate(P, z, a), b)
        rhs = iterate(P, z, a + b)
        assert (lhs - rhs).is_zero_to_precision


class TestFixedPoints:
    def test_px_plus_x2(self, c5):
        P = Polynomial(c5, [0, 5, 1])
        scan = find_fixed_points(P)
        assert scan.unresolved_residues == []
        by_class = {fp.classification: fp for fp in scan.points}
        assert set(by_class) == {ATTRACTING, INDIFFERENT}
        # alpha = 0 with multiplier p; alpha = 1 - p with multiplier 2 - p
        att = by_class[ATTRACTING]
        assert att.point.is_zero_to_precision
        assert (att.multiplier - c5.integer(5)).is_zero_to_precision
        ind = by_class[INDIFFERENT]
        assert (ind.point - c5.integer(1 - 5)).is_zero_to_precision
        assert (ind.multiplier - c5.integer(2 - 5)).is_zero_to_precision

    def test_x_squared(self, c5):
        P = Polynomial(c5, [0, 0, 1])
        scan = find_fixed_points(P)
        classes = sorted(fp.classification for fp in scan.points)
        assert classes == [INDIFFERENT, SUPERATTRACTING]

    def test_negative_valuation_multipliers_are_repelling(self, c3):
        # X^2/3 + X/3 fixes 0 and 2, with multipliers 1/3 and 5/3
        P = Polynomial(c3, [0, c3.from_rational(1, 3), c3.from_rational(1, 3)])
        scan = find_fixed_points(P)
        assert scan.unresolved_residues == []
        assert [fp.classification for fp in scan.points] == [REPELLING, REPELLING]
        assert [fp.multiplier.valuation for fp in scan.points] == [-1, -1]
        assert [fp.attracting_radius_valuation for fp in scan.points] == [None, None]

    def test_hensel_residual_precision(self, c3):
        rng = random.Random(13)
        for _ in range(25):
            P = Polynomial(c3, [rng.randint(-20, 20) for _ in range(3)] + [rng.randint(1, 20)])
            scan = find_fixed_points(P)
            for fp in scan.points:
                r = P(fp.point) - fp.point
                assert r.is_zero_to_precision
                assert r.zero_bound >= c3.working_precision - 8

    def test_conjugation_stability(self, c5):
        rng = random.Random(17)
        P = Polynomial(c5, [0, 5, 1])
        c = c5.integer(rng.randint(1, 100))
        shifted = P.shift_argument(-c)  # P(X - c) coefficients
        G = Polynomial(c5, [shifted[0] + c] + shifted[1:])  # P(X - c) + c
        scan_p = find_fixed_points(P)
        scan_g = find_fixed_points(G)
        got = sorted(tuple((fp.point - c).digits(6)) for fp in scan_g.points)
        want = sorted(tuple(fp.point.digits(6)) for fp in scan_p.points)
        assert got == want

    def test_unresolved_residue_reported(self, c3):
        # P = X + X^2: Q = X^2 has the double root 0 mod 3
        P = Polynomial(c3, [0, 1, 1])
        scan = find_fixed_points(P)
        assert 0 in scan.unresolved_residues

    def test_non_integral_map_scans_the_primitive_residues(self):
        # Q = X^2/3 + 2X is not 3-integral: 3Q = X(X + 6) reads X^2 mod 3, so
        # class 0 (holding both roots 0 and -6) is unresolved and Q(1) = 7/3,
        # Q(2) = 16/3 put classes 1 and 2 out
        c3 = PadicContext(3, 32)
        scan = find_fixed_points(Polynomial(c3, [0, 3, c3.from_rational(1, 3)]))
        assert scan.points == [] and scan.unresolved_residues == [0]

    def test_primes_above_the_discovery_bound_are_refused(self):
        ctx = PadicContext(1_048_583, 8)  # the least prime above 2^20
        with pytest.raises(ValidationError, match=f"p <= {dynamics.DISCOVERY_PRIME_BOUND}"):
            find_fixed_points(Polynomial(ctx, [0, ctx.prime, 1]))

    def test_derivative_is_built_once(self, monkeypatch):
        # X^37 at p = 37 has 37 simple roots mod 37: one Q' for the lifts and
        # one P' for the multipliers, not one P' per root
        built = []
        derivative = Polynomial.derivative
        monkeypatch.setattr(Polynomial, "derivative",
                            lambda self: built.append(self.degree) or derivative(self))
        scan = find_fixed_points(Polynomial(PadicContext(37, 32), [0] * 37 + [1]))
        assert len(scan.points) == 37 and built == [37, 37]

    def test_lifting_stage_above_the_lift_bound_is_refused_before_any_lift(self, monkeypatch):
        # X^173 fixes every residue mod 173, each a simple root: at N = 8 the
        # numbers are small, but 173 lifts and Taylor shifts of degree 173 took 5.9 s
        monkeypatch.setattr(Polynomial, "__call__", None)
        ctx = PadicContext(173, 8)
        with pytest.raises(ValidationError, match=f"<= {dynamics.DISCOVERY_LIFT_BOUND}, where z"
                           " = 1 for an exact root 0 and r counts the other simple roots;"
                           " r = 172, z = 1, deg P = 173 and N = 8"):
            find_fixed_points(Polynomial(ctx, [0] * 173 + [1]))

    @pytest.mark.parametrize("n", [32, 2048])
    def test_quadratic_at_the_largest_admitted_prime_is_lifted(self, n):
        ctx = PadicContext(1_048_573, n)
        scan = find_fixed_points(Polynomial(ctx, [0, ctx.prime, 1]))
        assert sorted(fp.classification for fp in scan.points) == [ATTRACTING, INDIFFERENT]

    @pytest.mark.parametrize("n", [128, 2048])
    def test_long_map_under_both_work_bounds_is_lifted(self, n):
        # X^512 + ... + X^2 + pX at p = 8,171: p (deg P + 1) is just under
        # DISCOVERY_WORK_BOUND, and its one simple root mod p is the exact zero,
        # whose lift costs small operations at every N
        ctx = PadicContext(8171, n)
        scan = find_fixed_points(Polynomial(ctx, [0, ctx.prime] + [1] * 511))
        assert [(fp.point.is_exact_zero, fp.classification) for fp in scan.points] == [
            (True, ATTRACTING)]

    def test_unreadable_residue_is_refused(self, c3):
        # Q = O(3^0) + 2X + X^2: its constant term has no digit mod 3
        with pytest.raises(ValidationError, match="coefficient of X\\^0"):
            find_fixed_points(Polynomial(c3, [c3.zero(0), 3, 1]))
        # O(3^1) reads as 0 mod 3, so the classes of X(X + 2) are scanned, but
        # no lift gets past O(3^1)
        scan = find_fixed_points(Polynomial(c3, [c3.zero(1), 3, 1]))
        assert scan.points == [] and scan.unresolved_residues == [0, 1]


class TestAttractingRadius:
    def test_px_plus_x2(self, c5):
        P = Polynomial(c5, [0, 5, 1])
        fp = [f for f in find_fixed_points(P).points if f.classification == ATTRACTING][0]
        assert fp.attracting_radius_valuation == 2

    def test_linear(self, c5):
        P = Polynomial(c5, [0, 5])
        fp = [f for f in find_fixed_points(P).points if f.classification == ATTRACTING][0]
        assert fp.attracting_radius_valuation == 1

    def test_sampled_contraction(self, c5):
        rng = random.Random(19)
        P = Polynomial(c5, [0, 5, 3, 1])
        fp = [f for f in find_fixed_points(P).points if f.classification == ATTRACTING][0]
        m = fp.attracting_radius_valuation
        for _ in range(30):
            v = rng.randint(m, m + 4)
            unit = rng.randint(1, 5**3)
            while unit % 5 == 0:
                unit = rng.randint(1, 5**3)
            z = fp.point + c5.integer(unit * 5**v)
            d = P(z) - fp.point
            assert d.valuation == fp.multiplier.valuation + v

    def test_rejects_non_attracting(self, c5):
        P = Polynomial(c5, [0, 0, 1])
        fp = [f for f in find_fixed_points(P).points if f.classification == SUPERATTRACTING][0]
        assert fp.attracting_radius_valuation is None


class TestOrbitDistances:
    def test_exhaustion_detected(self):
        ctx = PadicContext(3, 12)  # tiny precision to force collapse
        P = Polynomial(ctx, [0, 3, 1])
        alpha = ctx.integer(1 - 3)  # shift the picture: use a nonzero center
        # iterate near a nonzero fixed point of the conjugated map
        shifted = P.shift_argument(-alpha)
        G = Polynomial(ctx, [shifted[0] + alpha] + shifted[1:])
        z = alpha + ctx.integer(3)
        points, dists, exhausted = orbit_distances(G, alpha, z, 20)
        assert exhausted is not None
        assert dists[0] == 1
        assert dists[exhausted] is None

    def test_growth_for_zero_center(self, c5):
        P = Polynomial(c5, [0, 5, 1])
        points, dists, exhausted = orbit_distances(P, c5.zero(), c5.integer(5), 15)
        assert exhausted is None
        assert dists == list(range(1, 17))
