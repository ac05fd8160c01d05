"""Koenigs linearization: recursion values, functional equation, radii, isometries."""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import (
    PadicContext,
    Polynomial,
    TruncatedSeries,
    ValidationError,
    conjugate_to_origin,
    koenigs_coefficients,
    linearize,
    mutual_inversion_residual,
    verify_functional_equation,
)
from padicdyn import _core
from padicdyn.dynamics import contraction_radius
from padicdyn.linearize import (
    _integrality_defect,
    _koenigs_divisor,
    inverse_koenigs_coefficients,
    isometry_radius,
)
from padicdyn.padic import INF_BOUND
from padicdyn.series import ZERO_TAIL, TailBound


@pytest.fixture(scope="module")
def c3():
    return PadicContext(3, 64)


@pytest.fixture(scope="module")
def c5():
    return PadicContext(5, 64)


def random_attracting_poly(ctx, rng, degree=None):
    """Multiplier p * unit, integral higher coefficients, fixed point 0."""
    p = ctx.prime
    deg = degree or rng.randint(2, 5)
    unit = rng.randint(1, p - 1)
    coeffs = [0, unit * p] + [rng.randint(-6, 6) for _ in range(deg - 2)]
    lead = rng.randint(1, 6)
    coeffs.append(lead)
    return Polynomial(ctx, coeffs)


class TestKoenigsCoefficients:
    def test_linear_map_gives_identity_series(self, c3):
        G = Polynomial(c3, [0, 3])
        e = koenigs_coefficients(G, 16)
        assert (e.coefficient(1) - c3.one()).is_zero_to_precision
        for n in range(2, 17):
            assert e.coefficient(n).is_exact_zero

    def test_c2_for_px_plus_x2(self, c3):
        G = Polynomial(c3, [0, 3, 1])
        e = koenigs_coefficients(G, 8)
        c2 = e.coefficient(2)
        assert c2.valuation == -1
        assert (c2 - c3.from_rational(1, 3**2 - 3)).is_zero_to_precision

    def test_c3_for_px_plus_x2(self, c3):
        # hand-unrolled recursion: (a1^3 - a1) c_3 = a_2 (c_1 c_2 + c_2 c_1)
        G = Polynomial(c3, [0, 3, 1])
        e = koenigs_coefficients(G, 8)
        c3_coeff = e.coefficient(3)
        expected = c3.from_rational(2, (3**2 - 3) * (3**3 - 3))
        assert (c3_coeff - expected).is_zero_to_precision
        assert c3_coeff.valuation == -2

    def test_headroom_enforced(self):
        ctx = PadicContext(3, 20)
        G = Polynomial(ctx, [0, 3, 1])
        with pytest.raises(ValidationError):
            koenigs_coefficients(G, 16)  # needs N > 16 + 8

    def test_linearize_refuses_order_below_one(self):
        # the isometry radius divides by the order; the recursions take order 0
        ctx = PadicContext(3, 32)
        P = Polynomial(ctx, [0, 3, 1])
        for order in (0, -1):
            with pytest.raises(ValidationError, match=f"order must be >= 1, got {order}"):
                linearize(P, ctx.zero(), order)

    def test_recursions_refuse_a_negative_order(self):
        G = Polynomial(PadicContext(3, 32), [0, 3, 1])
        for recursion in (koenigs_coefficients, inverse_koenigs_coefficients):
            with pytest.raises(ValueError, match="order must be >= 0"):
                recursion(G, -1)

    def test_rejects_unit_multiplier(self, c3):
        G = Polynomial(c3, [0, 2, 1])
        with pytest.raises(ValidationError):
            koenigs_coefficients(G, 8)

    def test_paper_valuation_bound(self, c3):
        rng = random.Random(61)
        for _ in range(8):
            P = random_attracting_poly(c3, rng)
            e = koenigs_coefficients(P, 20)
            s = P.coefficients[1].valuation + 1
            for n in range(2, 21):
                c = e.coefficient(n)
                if c.is_certified_nonzero:
                    assert c.valuation >= -n * s


class TestConjugation:
    def test_alpha_zero_unchanged(self, c3):
        P = Polynomial(c3, [0, 3, 1])
        G = conjugate_to_origin(P, c3.zero())
        for a, b in zip(P.coefficients, G.coefficients):
            assert (a - b).is_zero_to_precision

    def test_non_fixed_point_rejected(self, c3):
        P = Polynomial(c3, [0, 3, 1])
        with pytest.raises(ValidationError):
            conjugate_to_origin(P, c3.integer(1))

    def test_other_fixed_point_is_indifferent(self, c3):
        # P = pX + X^2 at alpha = 1 - p: G'(0) = 2 - p is a unit, rejected
        P = Polynomial(c3, [0, 3, 1])
        alpha = c3.integer(1 - 3)
        G = conjugate_to_origin(P, alpha)
        assert (G.coefficients[1] - c3.integer(2 - 3)).is_zero_to_precision
        with pytest.raises(ValidationError):
            linearize(P, alpha, 8)


class TestFunctionalEquation:
    def test_linear_map(self, c3):
        P = Polynomial(c3, [0, 3])
        lin = linearize(P, c3.zero(), 16)
        assert verify_functional_equation(lin).is_certified_zero_through_order()

    def test_px_plus_x2_T32(self, c3):
        P = Polynomial(c3, [0, 3, 1])
        lin = linearize(P, c3.zero(), 32)
        res = verify_functional_equation(lin)
        assert res.is_certified_zero_through_order()

    def test_random_polynomials(self, c5):
        rng = random.Random(67)
        for _ in range(6):
            P = random_attracting_poly(c5, rng)
            lin = linearize(P, c5.zero(), 20)
            assert verify_functional_equation(lin).is_certified_zero_through_order()

    def test_iterated_relation(self, c3):
        # applying G n times to E(X) equals E(a1^n X), n <= 5
        P = Polynomial(c3, [0, 3, 1])
        t = 20
        lin = linearize(P, c3.zero(), t)
        g_series = TruncatedSeries.from_coefficients(c3, P.coefficients, order=t)
        lhs = lin.exp_series
        for n in range(1, 6):
            lhs = g_series.compose(lhs)
            scaled_var = TruncatedSeries.variable(c3, t).scale(lin.multiplier**n)
            rhs = lin.exp_series.compose(scaled_var)
            diff = lhs - rhs
            assert diff.is_certified_zero_through_order(), n


class TestInversionAndIsometry:
    def test_mutual_inversion(self, c3):
        rng = random.Random(71)
        for _ in range(4):
            P = random_attracting_poly(c3, rng)
            lin = linearize(P, c3.zero(), 16)
            assert mutual_inversion_residual(lin).is_certified_zero_through_order()

    def test_isometry_radius_px_plus_x2(self, c3):
        P = Polynomial(c3, [0, 3, 1])
        lin = linearize(P, c3.zero(), 32)
        # one-step contraction needs v(b_2) + (2-1)m > v(a1): m >= 2
        assert lin.isometry_radius_valuation >= 2
        assert lin.isometry_radius_valuation >= lin.convergence_radius_valuation

    def test_sampled_isometry(self, c3):
        rng = random.Random(73)
        P = Polynomial(c3, [0, 3, 2, 1])
        lin = linearize(P, c3.zero(), 24)
        m0 = lin.isometry_radius_valuation
        for _ in range(100):
            v = rng.randint(m0, m0 + 6)
            unit = rng.randint(1, 3**5)
            while unit % 3 == 0:
                unit = rng.randint(1, 3**5)
            z = c3.integer(unit * 3**v)
            w = lin.log_of(z)
            assert w.valuation == v
            back = lin.fixed_point + lin.exp_series.evaluate(w)
            assert back.valuation == v
            assert (back - z).is_zero_to_precision

    def test_log_of_fixed_point_is_zero(self, c3):
        P = Polynomial(c3, [0, 3, 1])
        lin = linearize(P, c3.zero(), 16)
        assert lin.log_of(c3.zero()).is_zero_to_precision

    def test_argument_outside_ball_rejected(self, c3):
        P = Polynomial(c3, [0, 3, 1])
        lin = linearize(P, c3.zero(), 16)
        with pytest.raises(ValidationError):
            lin.log_of(c3.integer(1))

    def test_undecidable_membership_message(self, c5):
        # z = alpha + O(5): z - alpha is zero only to O(5^1), below the radius
        P = Polynomial(c5, [5, 6, 2, 1])
        from padicdyn import find_fixed_points, ATTRACTING, PadicNumber, PrecisionError

        alpha = [f for f in find_fixed_points(P).points if f.classification == ATTRACTING][0].point
        lin = linearize(P, alpha, 16)
        z = alpha + PadicNumber(c5, 1, 0, 0)
        with pytest.raises(PrecisionError) as direct:
            lin.isometry_ball.contains(z)
        with pytest.raises(PrecisionError) as via_log:
            lin.log_of(z)
        assert str(via_log.value) == str(direct.value)
        assert str(via_log.value) == (
            "membership undecidable: v(z - center) only known to be"
            f" >= 1 < {lin.isometry_radius_valuation}"
        )


class TestConjugationIdentity:
    def test_log_of_image(self, c3):
        rng = random.Random(79)
        P = Polynomial(c3, [0, 3, 1])
        lin = linearize(P, c3.zero(), 24)
        m0 = lin.isometry_radius_valuation
        for _ in range(20):
            v = rng.randint(m0, m0 + 4)
            z = c3.integer(rng.choice([1, 2]) * 3**v)
            lhs = lin.log_of(P(z))
            rhs = lin.multiplier * lin.log_of(z)
            assert (lhs - rhs).is_zero_to_precision

    def test_log_of_iterates_up_to_20(self, c3):
        P = Polynomial(c3, [0, 3, 1])
        lin = linearize(P, c3.zero(), 24)
        z = c3.integer(27)
        w = lin.log_of(z)
        cur = z
        for n in range(1, 21):
            cur = P(cur)
            lhs = lin.log_of(cur)
            rhs = lin.multiplier**n * w
            assert (lhs - rhs).is_zero_to_precision, n

    def test_nonzero_fixed_point_cubic(self, c5):
        # a map with attracting fixed point away from 0
        P = Polynomial(c5, [5, 6, 2, 1])
        from padicdyn import find_fixed_points, ATTRACTING

        att = [f for f in find_fixed_points(P).points if f.classification == ATTRACTING]
        assert att
        lin = linearize(P, att[0].point, 16)
        assert verify_functional_equation(lin).is_certified_zero_through_order()
        assert mutual_inversion_residual(lin).is_certified_zero_through_order()
        m0 = lin.isometry_radius_valuation
        z = att[0].point + c5.integer(5**m0)
        lhs = lin.log_of(P(z))
        rhs = lin.multiplier * lin.log_of(z)
        assert (lhs - rhs).is_zero_to_precision


# -- reference recursions ------------------------------------------------------
#
# The hand-rolled loops below are kept as the oracle for the two recursions
# (``koenigs_coefficients`` and ``inverse_koenigs_coefficients``) and their
# closed-form sums (``_core.dot``): each carries its own powers and adds the
# ``tr_mul`` terms one by one with ``tr_add``.  Library and reference must
# agree triple for triple.


def reference_koenigs(G, t):
    ctx = G.ctx
    p = ctx.prime
    a1 = G.coefficients[1]
    r = G.degree
    one = ctx.one()
    ev, eu, ek = [INF_BOUND] * (t + 1), [0] * (t + 1), [0] * (t + 1)
    if t >= 1:
        ev[1], eu[1], ek[1] = one._v, one._u, one._k
    pows = {i: ([INF_BOUND] * (t + 1), [0] * (t + 1), [0] * (t + 1)) for i in range(2, r + 1)}
    a1pow = a1
    for n in range(2, t + 1):
        prev = (ev, eu, ek)
        for i in range(2, r + 1):
            pv, pu, pk = pows[i]
            pv[n], pu[n], pk[n] = _core.conv_at(p, ev, eu, ek, *prev, n, 1, n - i + 1)
            prev = pows[i]
        sv, su, sk = INF_BOUND, 0, 0
        for i in range(2, r + 1):
            ai = G.coefficients[i]
            if ai.is_exact_zero:
                continue
            pv, pu, pk = pows[i]
            wv, wu, wk = _core.tr_mul(p, ai._v, ai._u, ai._k, pv[n], pu[n], pk[n])
            sv, su, sk = _core.tr_add(p, sv, su, sk, wv, wu, wk)
        unit = a1pow - one
        v, u, k = _core.tr_div(p, sv, su, sk, a1._v, a1._u, a1._k)
        ev[n], eu[n], ek[n] = _core.tr_div(p, v, u, k, unit._v, unit._u, unit._k)
        a1pow = a1pow * a1
    s = a1.valuation + _integrality_defect(G) + 1
    return ev, eu, ek, TailBound(Fraction(-s), Fraction(0))


def reference_inverse_koenigs(G, t):
    ctx = G.ctx
    p = ctx.prime
    a1 = G.coefficients[1]
    one = ctx.one()
    gl = min(G.degree, t) + 1
    gv = [INF_BOUND] + [c._v for c in G.coefficients[1:gl]]
    gu = [0] + [c._u for c in G.coefficients[1:gl]]
    gk = [0] + [c._k for c in G.coefficients[1:gl]]
    pad = t + 1 - len(gv)
    gpow = [None, (gv + [INF_BOUND] * pad, gu + [0] * pad, gk + [0] * pad)]
    for m in range(2, t):
        gpow.append(_core.series_mul(p, *gpow[m - 1], gv, gu, gk, t))
    lv, lu, lk = [INF_BOUND] * (t + 1), [0] * (t + 1), [0] * (t + 1)
    if t >= 1:
        lv[1], lu[1], lk[1] = one._v, one._u, one._k
    a1pow = a1
    for n in range(2, t + 1):
        sv, su, sk = INF_BOUND, 0, 0
        for m in range(1, n):
            if lu[m] == 0 and lv[m] >= INF_BOUND:
                continue
            pv, pu, pk = gpow[m]
            if pu[n] == 0 and pv[n] >= INF_BOUND:
                continue
            wv, wu, wk = _core.tr_mul(p, lv[m], lu[m], lk[m], pv[n], pu[n], pk[n])
            sv, su, sk = _core.tr_add(p, sv, su, sk, wv, wu, wk)
        unit = a1pow - one
        v, u, k = _core.tr_div(p, sv, su, sk, a1._v, a1._u, a1._k)
        v, u, k = _core.tr_div(p, v, u, k, unit._v, unit._u, unit._k)
        lv[n], lu[n], lk[n] = _core.tr_neg(p, v, u, k)
        a1pow = a1pow * a1
    sigma = a1.valuation + _integrality_defect(G)
    return lv, lu, lk, TailBound(Fraction(-sigma), Fraction(sigma))


def random_conjugate(rng, p):
    """A map fixing 0 with multiplier p^v * unit and mixed higher coefficients:
    exact zeros, non-integral ones (p in the denominator) and p-adic units."""
    va1 = rng.randint(1, 2)
    t = rng.choice([1, 2, rng.randint(3, 24)])
    ctx = PadicContext(p, t * va1 + 8 + rng.randint(1, 24))
    unit = rng.randrange(1, p**3)
    while unit % p == 0:
        unit = rng.randrange(1, p**3)
    coeffs = [0, unit * p**va1]
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.2:
            coeffs.append(ctx.zero())
        elif kind < 0.5:
            coeffs.append(ctx.from_rational(rng.randint(1, 50), p ** rng.randint(1, 2)))
        else:
            coeffs.append(ctx.from_rational(rng.randint(-50, 50), rng.randint(1, 9)))
    if not coeffs[-1].is_certified_nonzero:
        coeffs[-1] = ctx.one()
    return Polynomial(ctx, coeffs), t


def edge_conjugate(rng, p, t, shape):
    """A map fixing 0 at order t in one of the shapes that bound L's power
    table: ``degree1`` (pX alone, so H = G/X has one entry), ``inexact``
    (higher coefficients known only to O(p^b)) or ``mixed``."""
    va1 = rng.randint(1, 2)
    ctx = PadicContext(p, t * va1 + 8 + rng.randint(1, 24))
    unit = rng.randrange(1, p**3)
    while unit % p == 0:
        unit = rng.randrange(1, p**3)
    coeffs = [0, unit * p**va1]
    if shape != "degree1":
        for _ in range(rng.randint(2, 5)):
            kind = rng.random()
            if shape == "inexact" and kind < 0.6:
                coeffs.append(ctx.zero(rng.randint(-3, 30)))
            elif kind < 0.2:
                coeffs.append(ctx.zero())
            elif kind < 0.5:
                coeffs.append(ctx.from_rational(rng.randint(1, 50), p ** rng.randint(1, 2)))
            else:
                coeffs.append(ctx.from_rational(rng.randint(-50, 50), rng.randint(1, 9)))
        if not coeffs[-1].is_certified_nonzero:
            coeffs[-1] = ctx.one()
    return Polynomial(ctx, coeffs)


EDGE_CASES = [(t, shape) for t in (1, 2, 3, 17, 40, 64) for shape in ("degree1", "inexact", "mixed")]


def assert_series_is(series, expected):
    v, u, k, tail = expected
    assert (series._v, series._u, series._k) == (v, u, k)
    assert series.tail == tail


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_recursions_match_reference_loops(p):
    rng = random.Random(8000 + p)
    for _ in range(25):
        G, t = random_conjugate(rng, p)
        e = koenigs_coefficients(G, t)
        lg = inverse_koenigs_coefficients(G, t)
        assert_series_is(e, reference_koenigs(G, t))
        assert_series_is(lg, reference_inverse_koenigs(G, t))
    for t, shape in EDGE_CASES:
        G = edge_conjugate(rng, p, t, shape)
        assert G.degree == 1 if shape == "degree1" else G.degree >= 2
        assert_series_is(koenigs_coefficients(G, t), reference_koenigs(G, t))
        assert_series_is(inverse_koenigs_coefficients(G, t), reference_inverse_koenigs(G, t))


def test_shared_divisor_gives_the_same_series():
    rng = random.Random(8200)
    for p in (2, 3, 5, 7):
        for t, shape in EDGE_CASES:
            G = edge_conjugate(rng, p, t, shape)
            divide = _koenigs_divisor(G.coefficients[1], t)
            for solve in (koenigs_coefficients, inverse_koenigs_coefficients):
                alone = solve(G, t)
                shared = solve(G, t, divide)
                assert (shared._v, shared._u, shared._k) == (alone._v, alone._u, alone._k)
                assert shared.tail == alone.tail


def test_linearize_builds_one_divisor(c3, monkeypatch):
    module = importlib.import_module("padicdyn.linearize")
    built = []

    def counting_divisor(a1, order):
        built.append(order)
        return _koenigs_divisor(a1, order)

    monkeypatch.setattr(module, "_koenigs_divisor", counting_divisor)
    P = Polynomial(c3, [0, 3, 2, 1])
    lin = linearize(P, c3.zero(), 24)
    assert built == [24]
    assert_series_is(lin.exp_series, reference_koenigs(lin.conjugate_poly, 24))
    assert_series_is(lin.log_series, reference_inverse_koenigs(lin.conjugate_poly, 24))


def test_recursions_match_reference_at_order_1_and_non_integral_a2(c3):
    G = Polynomial(c3, [0, 3, c3.from_rational(2, 9), 1])
    for t in (0, 1, 2, 12):
        assert_series_is(koenigs_coefficients(G, t), reference_koenigs(G, t))
        assert_series_is(inverse_koenigs_coefficients(G, t), reference_inverse_koenigs(G, t))
    e = koenigs_coefficients(G, 1)
    assert (e._v, e._u, e._k) == ([INF_BOUND, 0], [0, 1], [0, 64])


# -- isometry radius -----------------------------------------------------------


def reference_isometry_radius(exp_series, G):
    """``isometry_radius`` with its own loop over E's coefficients, kept as
    the oracle for the body that reads them through ``contraction_radius``."""
    m0 = 1
    for n in range(2, exp_series.order + 1):
        c = exp_series.coefficient(n)
        if c.is_exact_zero:
            continue
        lb = c.valuation_lower_bound
        need = -lb // (n - 1) + 1
        if need > m0:
            m0 = need
    tail = exp_series.tail
    if not tail.is_infinite:
        t = exp_series.order
        need = (-tail.slope * (t + 1) - tail.offset) // t + 1
        if need > m0:
            m0 = need
        if m0 + tail.slope <= 0:
            m0 = -tail.slope // 1 + 1
    return max(m0, contraction_radius(G.coefficients, G.coefficients[1].valuation))


@st.composite
def exp_series_and_conjugate(draw):
    """A series with c_1 = 1 whose other coefficients are exact zeros, zeros
    to O(p^b) or values of either sign of valuation, with a zero tail or an
    affine one, and a conjugate map fixing 0 with multiplier p^v * unit."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ctx = PadicContext(p, 32)
    t = draw(st.integers(1, 12))
    coeffs = [ctx.zero(), ctx.one()]
    for _ in range(2, t + 1):
        kind = draw(st.sampled_from(["exact", "inexact", "value"]))
        if kind == "exact":
            coeffs.append(ctx.zero())
        elif kind == "inexact":
            coeffs.append(ctx.zero(draw(st.integers(-40, 40))))
        else:
            v = draw(st.integers(-40, 40))
            unit = draw(st.integers(1, p**4).filter(lambda u: u % p))
            coeffs.append(ctx.from_rational(unit * p**max(v, 0), p**max(-v, 0)))
    if draw(st.booleans()):
        tail = ZERO_TAIL
    else:
        tail = TailBound(draw(st.integers(-12, 0)), draw(st.integers(-20, 60)))
    e = TruncatedSeries.from_coefficients(ctx, coeffs, order=t, tail=tail)
    b = [0, p ** draw(st.integers(1, 3))]
    b += [ctx.from_rational(draw(st.integers(-9, 9)), p ** draw(st.integers(0, 3)))
          for _ in range(draw(st.integers(0, 3)))]
    b.append(ctx.from_rational(1, p ** draw(st.integers(0, 3))))
    return e, Polynomial(ctx, b)


@settings(max_examples=300, deadline=None)
@given(exp_series_and_conjugate())
def test_isometry_radius_matches_reference_loop(case):
    e, G = case
    assert isometry_radius(e, G) == reference_isometry_radius(e, G)
