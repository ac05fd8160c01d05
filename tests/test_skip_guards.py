"""The work the hot loops skip is work that would have returned its operand.

``series_mul`` makes no ``_conv`` call above deg(a) + deg(b): every
coefficient there is an exact zero.  ``Polynomial.eval_triple``,
``MultivariatePoly.eval_triples`` and the collapse test of
``direct_orbit_scan`` skip a kernel call only when it would return its
operand: a product by exactly (0, 1, k) of a unit with at most k digits or of
a zero bounded at most at INF_BOUND, and the addition of an exact zero to a
value whose absolute precision is at most INF_BOUND.  The guards are tested on
every call, so hand-built values just beyond those limits (k above the working
precision, zero bounds above INF_BOUND, absolute precision above INF_BOUND)
must still give the triples of the object-level references kept in
``tests/test_triple_paths.py``.  So must generators with negative
coefficients, which ``MultivariatePoly`` stores as a sign and the smaller
unit, so that a coefficient -1 takes the skip for a coefficient 1.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import (
    MultivariatePoly,
    PadicContext,
    PadicNumber,
    Polynomial,
    SystemSpec,
    _core,
    direct_orbit_scan,
)
from padicdyn.linearize import inverse_koenigs_coefficients
from padicdyn.padic import INF_BOUND

from test_kernel import random_triple, schoolbook_series_mul
from test_linearize import reference_inverse_koenigs
from test_triple_paths import (
    numbers,
    reference_call,
    reference_direct_orbit_scan,
    reference_evaluate,
    scan_outcome,
)


def triple(x):
    return (x._v, x._u, x._k)


def degree(vals, units):
    """Largest index that is not an exact zero, -1 for none."""
    d = len(vals) - 1
    while d >= 0 and units[d] == 0 and vals[d] >= INF_BOUND:
        d -= 1
    return d


# -- series_mul stops at the product's degree ------------------------------------


@pytest.fixture
def conv_log(monkeypatch):
    """Per series_mul call: (deg(a) + deg(b), t_out, the n of each _conv call)."""
    log = []
    open_calls = []
    conv, mul = _core._conv, _core.series_mul

    def counting_conv(p, av, au, ak, bv, bu, bk, n, lo, hi):
        if open_calls:
            open_calls[-1].append(n)
        return conv(p, av, au, ak, bv, bu, bk, n, lo, hi)

    def logging_mul(p, av, au, ak, bv, bu, bk, t_out):
        da, db = degree(av, au), degree(bv, bu)
        open_calls.append([])
        try:
            return mul(p, av, au, ak, bv, bu, bk, t_out)
        finally:
            ns = open_calls.pop()
            log.append((da + db if da >= 0 and db >= 0 else -1, t_out, ns))

    monkeypatch.setattr(_core, "_conv", counting_conv)
    monkeypatch.setattr(_core, "series_mul", logging_mul)
    return log


def assert_stops_at_degree(log):
    for top, t_out, ns in log:
        assert ns == list(range(min(top, t_out) + 1)), (top, t_out)


def test_logarithm_of_a_map_with_gaps_forms_no_zeros_above_the_band(conv_log):
    """pX + X^3 gives H = p + X^2, so the row H^m has degree 2m and every row
    below T/3 is padded with exact zeros that must cost no _conv call."""
    ctx = PadicContext(3, 60)
    G = Polynomial(ctx, [0, 3, 0, 1])
    t = 24
    L = inverse_koenigs_coefficients(G, t)
    lv, lu, lk, _ = reference_inverse_koenigs(G, t)
    assert (L._v, L._u, L._k) == (lv, lu, lk)
    assert any(top < t_out for top, t_out, _ in conv_log), "no row was padded"
    assert_stops_at_degree(conv_log)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_padded_rows_match_schoolbook_with_no_call_above_the_degree(p, conv_log):
    rng = random.Random(9100 + p)
    for _ in range(80):
        a = [random_triple(rng, p, 12) for _ in range(rng.randint(0, 6))]
        b = [random_triple(rng, p, 12) for _ in range(rng.randint(0, 6))]
        # trailing exact zeros, and sometimes an inexact zero at the very end,
        # which is not an exact zero and so keeps the degree
        a += [(INF_BOUND, 0, 0)] * rng.randint(0, 6)
        b += [(INF_BOUND, 0, 0)] * rng.randint(0, 6)
        if rng.random() < 0.2:
            b.append((rng.randint(-5, 30), 0, 0))
        av, au, ak = (list(x) for x in zip(*a)) if a else ([], [], [])
        bv, bu, bk = (list(x) for x in zip(*b)) if b else ([], [], [])
        t = rng.randint(0, len(a) + len(b) + 2)
        got = _core.series_mul(p, av, au, ak, bv, bu, bk, t)
        assert got == schoolbook_series_mul(p, av, au, ak, bv, bu, bk, t)
        assert all(len(column) == t + 1 for column in got)
    assert_stops_at_degree(conv_log)


# -- skip guards against the references -------------------------------------------


def unit(ctx, v, k, rng):
    """A hand-built unit triple with k digits (k may exceed the working precision)."""
    p = ctx.prime
    u = rng.randrange(1, p**k)
    while u % p == 0:
        u = rng.randrange(1, p**k)
    return PadicNumber(ctx, v, u, k)


def edge_values(ctx, rng):
    """Values at and just beyond the guards' limits, and ordinary ones."""
    n = ctx.working_precision
    return [
        ctx.zero(),                                  # exact zero, bound INF_BOUND
        ctx.zero(INF_BOUND - 1),
        PadicNumber(ctx, INF_BOUND + 3, 0, 0),       # zero bound above INF_BOUND
        ctx.zero(4),
        ctx.one(),
        PadicNumber(ctx, 0, 1, 1),                   # one carrying a single digit
        PadicNumber(ctx, 0, 1, n + 5),               # one carrying more than N digits
        unit(ctx, 0, n, rng),
        unit(ctx, 2, n + 7, rng),                    # k above the working precision
        unit(ctx, -3, 1, rng),
        unit(ctx, INF_BOUND - 2, 5, rng),            # absolute precision above INF_BOUND
        unit(ctx, INF_BOUND - 6, 2, rng),
    ]


def edge_coefficients(ctx, rng):
    """Coefficients for the guarded slots: exact ones with any k, exact zeros."""
    n = ctx.working_precision
    return [
        ctx.one(),
        PadicNumber(ctx, 0, 1, 1),
        PadicNumber(ctx, 0, 1, max(1, n - 2)),
        PadicNumber(ctx, 0, 1, n + 3),
        ctx.zero(),
        PadicNumber(ctx, INF_BOUND + 9, 0, 0),
        ctx.zero(3),
        unit(ctx, 1, n, rng),
    ]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_polynomial_guards_match_reference_on_edge_values(p):
    rng = random.Random(9200 + p)
    for n in (1, 6, 20):
        ctx = PadicContext(p, n)
        values = edge_values(ctx, rng)
        coefficients = edge_coefficients(ctx, rng)
        tops = [c for c in coefficients if c.is_certified_nonzero]
        for top in tops:
            for c1 in coefficients:
                for c0 in coefficients:
                    P = Polynomial(ctx, [c0, c1, top])
                    for z in values:
                        assert triple(P(z)) == triple(reference_call(P, z)), (c0, c1, top, z)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_generator_guards_match_reference_on_edge_values(p):
    rng = random.Random(9300 + p)
    for n in (1, 6, 20):
        ctx = PadicContext(p, n)
        # points carry at most N digits, the domain of powers (padic.triple_pow)
        values = [x for x in edge_values(ctx, rng) if x._k <= n]
        for c in edge_coefficients(ctx, rng):
            if c.is_zero_to_precision and not c.is_exact_zero:
                continue  # generators refuse inexact coefficients
            f = MultivariatePoly(ctx, 2, {(1, 0): c, (0, 2): ctx.one(), (1, 1): c})
            for x in values:
                for y in values:
                    got = f.evaluate([x, y])
                    assert triple(got) == triple(reference_evaluate(f, [x, y])), (c, x, y)


def test_scan_guards_match_reference_at_an_exactly_zero_fixed_point():
    """alpha = 0 exactly, so the collapse test adds an exact zero; starts at
    alpha (never tested), beyond the working precision, at valuation
    INF_BOUND (which the kernel reads as zero), and ordinary."""
    rng = random.Random(9400)
    ctx = PadicContext(3, 12)
    P = Polynomial(ctx, [0, 3, 1])            # 3X + X^2 fixes 0
    Q = Polynomial(ctx, [0, PadicNumber(ctx, 1, 1, 4), 0, 1])
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    g = MultivariatePoly(ctx, 2, {(2, 0): 1, (0, 0): 0})
    starts = [ctx.zero(), ctx.integer(3), ctx.integer(9), unit(ctx, 1, 17, rng),
              unit(ctx, 2, 3, rng), ctx.zero(5), unit(ctx, INF_BOUND, 2, rng)]
    for x in starts:
        for y in starts:
            spec = SystemSpec(ctx, [P, Q], [ctx.zero(), ctx.zero()], [x, y], [f, g], 8, 40)
            validated = SimpleNamespace(spec=spec)
            got = scan_outcome(direct_orbit_scan, validated, 40)
            assert got == scan_outcome(reference_direct_orbit_scan, validated, 40), (x, y)


@st.composite
def signed_generator_cases(draw):
    """Generators whose coefficients are often negative (stored as a sign and
    the smaller unit): -1, -2, -p, -1/p, negated units with fewer digits than
    the point, and any unit; several variables, exponents up to 4, and points
    that may be exact or inexact zeros."""
    ctx = PadicContext(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 40)))
    p, n = ctx.prime, ctx.working_precision
    short = draw(st.integers(1, n))

    def coefficient(kind):
        if kind == "fixed":
            return draw(st.sampled_from([ctx.integer(-1), ctx.integer(-2), ctx.integer(-p),
                                         ctx.from_rational(-1, p), ctx.one()]))
        if kind == "short":  # minus a small unit, carrying `short` digits
            small = draw(st.sampled_from([1, p + 1, 2 * p + 1]))
            return PadicNumber(ctx, draw(st.integers(-3, 3)), -small % p**short, short)
        return draw(numbers(ctx, allow_zero=False))

    nvars = draw(st.integers(1, 3))
    expos = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars), min_size=1, max_size=4,
                          unique=True))
    terms = {e: coefficient(draw(st.sampled_from(["fixed", "fixed", "short", "any"])))
             for e in expos}
    return MultivariatePoly(ctx, nvars, terms), [draw(numbers(ctx)) for _ in range(nvars)]


@settings(max_examples=400, deadline=None)
@given(signed_generator_cases())
def test_signed_coefficients_match_reference(case):
    f, point = case
    assert triple(f.evaluate(point)) == triple(reference_evaluate(f, point)), (f.terms, point)


def test_a_difference_of_variables_makes_no_product(monkeypatch):
    """x1 - x2: both coefficients are (0, 1, N) up to sign, so the only kernel
    calls are one negation and one sum, at any precision."""
    rng = random.Random(9500)
    ctx = PadicContext(3, 2048)
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    point = [unit(ctx, 2, 2048, rng), unit(ctx, 1, 2048, rng)]
    want = triple(reference_evaluate(f, point))
    calls = []
    for name in ("tr_mul", "tr_neg", "tr_add"):
        real = getattr(_core, name)
        monkeypatch.setattr(_core, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    assert triple(f.evaluate(point)) == want
    assert sorted(calls) == ["tr_add", "tr_neg"]


@st.composite
def monic_cases(draw):
    """Monic maps with c0 = 0, the shape the guards target, on any argument."""
    ctx = PadicContext(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 12)))
    n = ctx.working_precision
    top = PadicNumber(ctx, 0, 1, draw(st.sampled_from([n, 1, n + 4, max(1, n - 1)])))
    middle = draw(st.lists(numbers(ctx), min_size=0, max_size=4))
    x = draw(numbers(ctx))
    if x.is_certified_nonzero and draw(st.booleans()):
        extra = draw(st.integers(0, 6))  # more digits, so k may exceed N
        x = PadicNumber(ctx, x._v, x._u + ctx.prime ** x._k * draw(
            st.integers(0, ctx.prime ** extra - 1)), x._k + extra)
    return ctx, Polynomial(ctx, [ctx.zero()] + middle + [top]), x


@settings(max_examples=300, deadline=None)
@given(monic_cases(), st.integers(1, 6))
def test_monic_maps_with_zero_constant_match_reference(case, steps):
    ctx, P, x = case
    f = MultivariatePoly(ctx, 1, {(1,): P.coefficients[-1], (2,): 1, (0,): 0})
    z = w = x
    for _ in range(steps):
        z, w = P(z), reference_call(P, w)
        assert triple(z) == triple(w)
        if z._k <= ctx.working_precision:  # the domain of powers (padic.triple_pow)
            assert triple(f.evaluate([z])) == triple(reference_evaluate(f, [z]))
