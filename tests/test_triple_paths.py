"""Bit identity of the triple-level scan paths with the object-level code they replaced.

``Polynomial.__call__``, ``PadicNumber.__pow__``, ``MultivariatePoly.evaluate``
and ``checker.direct_orbit_scan`` run on ``(v, u, k)`` triples through
``padicdyn._core``.  The ``PadicNumber``-level bodies they replaced are kept
below as references.  On every input the new code must return exactly their
triples, and the scan the same hits or the same failing index and message.
Every triple the new code returns must also be canonical (a unit below
``p**k``), which a kernel that skipped a reduction would break.  The scan
advances a settled coordinate only when a generator reads it; the reference
advances every coordinate every step.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import (
    MultivariatePoly,
    PadicContext,
    PadicNumber,
    Polynomial,
    PrecisionError,
    SystemSpec,
    direct_orbit_scan,
    validate,
)
from padicdyn.checker import ValidatedSystem
from padicdyn.padic import INF_BOUND

from corpus import build_corpus

PRIMES = [2, 3, 5, 7]


# -- reference copies of the replaced bodies ----------------------------------


def reference_call(P, z):
    """Polynomial.__call__ before the triple-level Horner loop."""
    acc = P.coefficients[-1]
    for c in reversed(P.coefficients[:-1]):
        acc = acc * z + c
    return acc


def reference_pow(x, n):
    """PadicNumber.__pow__ before it started from the base."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = x.ctx.one()
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def reference_evaluate(f, point):
    """MultivariatePoly.evaluate before it accumulated on triples."""
    if len(point) != f.nvars:
        raise ValueError("point has wrong arity")
    acc = f.ctx.zero()
    for expo, coeff in f.terms.items():
        term = coeff
        for x, e in zip(point, expo):
            if e:
                term = term * reference_pow(x, e)
        acc = acc + term
    return acc


def reference_direct_orbit_scan(validated, n_max=None):
    """checker.direct_orbit_scan before the collapse test ran on triples."""
    spec = validated.spec
    if n_max is None:
        n_max = spec.max_direct_iterations
    cur = list(spec.start)
    resolved = [
        (x - a).is_certified_nonzero for x, a in zip(spec.start, spec.fixed_points)
    ]
    hits = []
    for n in range(n_max + 1):
        if n > 0:
            cur = [reference_call(P, z) for P, z in zip(spec.maps, cur)]
        for i, (z, alpha) in enumerate(zip(cur, spec.fixed_points)):
            if resolved[i] and not (z - alpha).is_certified_nonzero:
                exc = PrecisionError(
                    f"orbit coordinate {i + 1} collapsed below working precision"
                    f" at index {n}: raise the precision to scan further"
                )
                exc.failing_index = n
                raise exc
        if all(reference_evaluate(f, cur).is_zero_to_precision for f in spec.variety):
            hits.append(n)
    return hits


# -- helpers -------------------------------------------------------------------


def triple(x):
    return (x._v, x._u, x._k)


def assert_same(new, ref):
    """Identical triples, and the new one in canonical form."""
    assert triple(new) == triple(ref)
    p = new.ctx.prime
    v, u, k = triple(new)
    if u == 0:
        assert k == 0 and v <= INF_BOUND
    else:
        assert 1 <= k <= new.ctx.working_precision
        assert 0 < u < p**k and u % p != 0


def scan_outcome(scan, validated, n_max):
    try:
        return ("hits", scan(validated, n_max))
    except PrecisionError as exc:
        return ("collapsed", exc.failing_index, str(exc))


def random_number(rng, ctx, allow_zero=True):
    """Exact zero, inexact zero, or a unit triple with any valuation and k <= N."""
    p = ctx.prime
    kind = rng.random() if allow_zero else 1.0
    if kind < 0.15:
        return ctx.zero()
    if kind < 0.3:
        return ctx.zero(rng.randint(-10, 40))
    k = rng.randint(1, ctx.working_precision)
    u = rng.randrange(1, p**k)
    while u % p == 0:
        u = rng.randrange(1, p**k)
    return PadicNumber(ctx, rng.randint(-10, 10), u, k)


def random_poly(rng, ctx):
    """Degree 1..5, any coefficients below a certified-nonzero, non-monic top one."""
    coeffs = [random_number(rng, ctx) for _ in range(rng.randint(1, 5))]
    coeffs.append(random_number(rng, ctx, allow_zero=False))
    return Polynomial(ctx, coeffs)


def random_generator(rng, ctx, nvars):
    """Up to five terms, exponents 0..6, exact-zero (dropped) or unit coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        expo = tuple(rng.randint(0, 6) for _ in range(nvars))
        terms[expo] = ctx.zero() if rng.random() < 0.15 else random_number(rng, ctx, False)
    return MultivariatePoly(ctx, nvars, terms)


# -- the 50-instance corpus ----------------------------------------------------


CORPUS = build_corpus(50)


@pytest.mark.parametrize("precision", [128, 320])
def test_corpus_scan_and_orbit_match_reference(precision):
    """Every corpus orbit to 100 steps: each map value, each generator value,
    and the scan's outcome, at working and at escalated precision."""
    for inst in CORPUS:
        spec = inst.build(precision)
        validated = validate(spec)
        new = scan_outcome(direct_orbit_scan, validated, 100)
        ref = scan_outcome(reference_direct_orbit_scan, validated, 100)
        assert new == ref, inst.name
        cur = list(spec.start)
        for _ in range(100):
            for f in spec.variety:
                assert_same(f.evaluate(cur), reference_evaluate(f, cur))
            nxt = [P(z) for P, z in zip(spec.maps, cur)]
            for P, z, w in zip(spec.maps, cur, nxt):
                assert_same(w, reference_call(P, z))
            cur = nxt


def test_collapsing_orbit_matches_reference():
    """X^2 + X - 1 fixes 1 with multiplier 3, so v(z_n - 1) grows by one per step
    from z_0 = 4 and, at N = 20, coordinate 1 collapses onto 1 before index 20."""
    ctx = PadicContext(3, 20)
    P = Polynomial(ctx, [-1, 1, 1])
    gen = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    spec = SystemSpec(ctx, [P, P], [ctx.one(), ctx.one()],
                      [ctx.integer(4), ctx.integer(10)], [gen], 4, 60)
    validated = validate(spec)
    new = scan_outcome(direct_orbit_scan, validated, 60)
    assert new == scan_outcome(reference_direct_orbit_scan, validated, 60)
    assert new[0] == "collapsed" and new[1] < 20


# -- seeded and hypothesis cases -----------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_seeded_cases_match_reference(p):
    rng = random.Random(6000 + p)
    for precision in (1, 7, 40):
        ctx = PadicContext(p, precision)
        for _ in range(60):
            x = random_number(rng, ctx)
            for n in range(10):
                assert_same(x**n, reference_pow(x, n))
            P = random_poly(rng, ctx)
            assert_same(P(x), reference_call(P, x))
            nvars = rng.randint(1, 3)
            f = random_generator(rng, ctx, nvars)
            point = [random_number(rng, ctx) for _ in range(nvars)]
            assert_same(f.evaluate(point), reference_evaluate(f, point))


@st.composite
def numbers(draw, ctx, allow_zero=True):
    p = ctx.prime
    kinds = ["exact", "inexact", "unit", "unit"] if allow_zero else ["unit"]
    kind = draw(st.sampled_from(kinds))
    if kind == "exact":
        return ctx.zero()
    v = draw(st.integers(-12, 12))
    if kind == "inexact":
        return ctx.zero(v)
    k = draw(st.integers(1, ctx.working_precision))
    u = p * draw(st.integers(0, p ** (k - 1) - 1)) + draw(st.integers(1, p - 1))
    return PadicNumber(ctx, v, u, k)


@st.composite
def cases(draw):
    ctx = PadicContext(draw(st.sampled_from(PRIMES)), draw(st.integers(1, 12)))
    x = draw(numbers(ctx))
    coeffs = draw(st.lists(numbers(ctx), min_size=1, max_size=5))
    coeffs.append(draw(numbers(ctx, allow_zero=False)))
    nvars = draw(st.integers(1, 3))
    expos = draw(st.lists(st.tuples(*[st.integers(0, 6)] * nvars), min_size=1, max_size=4))
    terms = {e: draw(st.one_of(st.just(ctx.zero()), numbers(ctx, allow_zero=False)))
             for e in expos}
    point = [draw(numbers(ctx)) for _ in range(nvars)]
    return ctx, x, Polynomial(ctx, coeffs), MultivariatePoly(ctx, nvars, terms), point


@settings(max_examples=300, deadline=None)
@given(cases(), st.integers(0, 9))
def test_hypothesis_cases_match_reference(case, n):
    ctx, x, P, f, point = case
    assert_same(x**n, reference_pow(x, n))
    assert_same(P(x), reference_call(P, x))
    assert_same(f.evaluate(point), reference_evaluate(f, point))


def test_constant_polynomial_and_other_contexts():
    ctx = PadicContext(3, 16)
    const = Polynomial(ctx, [ctx.integer(7)], allow_constant=True)
    assert triple(const(ctx.integer(5))) == triple(ctx.integer(7))
    P = Polynomial(ctx, [1, 3, 1])
    assert triple(P(4)) == triple(reference_call(P, ctx.integer(4)))
    other = PadicContext(3, 17)
    with pytest.raises(ValueError, match="different p-adic contexts"):
        P(other.integer(4))
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    with pytest.raises(ValueError, match="different p-adic contexts"):
        f.evaluate([other.integer(1), ctx.integer(1)])


# -- the scan's settling rule --------------------------------------------------


def settling_system(rng, p, precision):
    """alpha = 0 in every coordinate and one shared multiplier b1; P(0) an
    exact zero or O(p^M); higher coefficients exact or inexact zeros and units
    of any valuation, negative ones included; some starts unresolved; each
    generator reads a random subset of the coordinates, in random order."""
    ctx = PadicContext(p, precision)
    g = rng.randint(2, 4)
    b1 = PadicNumber(ctx, rng.randint(1, 3), rng.choice([1, p + 1, p - 1]), precision)
    maps, start = [], []
    for _ in range(g):
        b0 = ctx.zero() if rng.random() < 0.7 else ctx.zero(rng.randint(5, 40))
        higher = [random_number(rng, ctx) for _ in range(rng.randint(0, 3))]
        top = random_number(rng, ctx, allow_zero=False)
        maps.append(Polynomial(ctx, [b0, b1] + higher + [top]))
        kind = rng.random()
        if kind < 0.15:
            start.append(ctx.zero() if rng.random() < 0.5 else ctx.zero(rng.randint(1, 9)))
        else:
            k = rng.randint(1, precision)
            start.append(PadicNumber(ctx, rng.randint(1, 4), rng.randrange(1, p**k, p), k))
    variety = []
    for _ in range(rng.randint(1, 3)):
        read = rng.sample(range(g), rng.randint(1, g))
        terms = {}
        for i in read:
            expo = [0] * g
            expo[i] = rng.randint(1, 3)
            terms[tuple(expo)] = random_number(rng, ctx, allow_zero=False)
        if rng.random() < 0.5:
            terms[(0,) * g] = random_number(rng, ctx, allow_zero=False)
        variety.append(MultivariatePoly(ctx, g, terms))
    spec = SystemSpec(ctx, maps, [ctx.zero()] * g, start, variety, 4, 80)
    # the scan reads only the spec, so these systems need not pass validate
    return ValidatedSystem(spec, [], b1, 0, list(start), False)


@pytest.mark.parametrize("p", PRIMES)
def test_settling_systems_match_reference(p, monkeypatch):
    """Hits, or the collapse's failing index and message, equal the reference's;
    and the scan does skip map evaluations on some of these systems."""
    calls = [0]
    eval_triple = Polynomial.eval_triple

    def counted(self, *z):
        calls[0] += 1
        return eval_triple(self, *z)

    monkeypatch.setattr(Polynomial, "eval_triple", counted)
    rng = random.Random(7100 + p)
    outcomes = set()
    skipped = 0
    for _ in range(150):
        validated = settling_system(rng, p, rng.choice([8, 24, 60]))
        n_max = rng.choice([0, 1, 10, 40, 80])
        calls[0] = 0
        new = scan_outcome(direct_orbit_scan, validated, n_max)
        skipped += calls[0] < n_max * len(validated.spec.maps)
        assert new == scan_outcome(reference_direct_orbit_scan, validated, n_max)
        outcomes.add(new[0] if new[0] == "collapsed" else bool(new[1]))
    assert outcomes == {"collapsed", True, False}
    assert skipped >= 30


@pytest.mark.parametrize("case", ["expanding", "near_inf_bound", "inexact_alpha"])
def test_unread_coordinate_that_cannot_settle_still_collapses(case):
    """X2 is never read, and it collapses where the reference says.
    ``expanding``: X/3 - X^2 at p = 3 has v(b1) = -1, so the valuation falls
    to where b1 z and -z^2 cancel.  ``near_inf_bound``: 3X + X^2 from a start
    of valuation INF_BOUND - 20 reaches INF_BOUND, an exact zero's bound.
    ``inexact_alpha``: 3X + X^2 from 3 reaches alpha = O(3^12)."""
    ctx = PadicContext(3, 3)
    P, x2, alpha2 = Polynomial(ctx, [0, 3, 1]), ctx.integer(3), ctx.zero()
    if case == "expanding":
        P, x2 = Polynomial(ctx, [0, ctx.from_rational(1, 3), -1]), ctx.integer(27)
    elif case == "near_inf_bound":
        x2 = PadicNumber(ctx, INF_BOUND - 20, 1, 3)
    else:
        alpha2 = ctx.zero(12)
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 0): -1})
    spec = SystemSpec(ctx, [Polynomial(ctx, [0, 3, 1]), P], [ctx.zero(), alpha2],
                      [ctx.integer(3), x2], [f], 4, 40)
    validated = ValidatedSystem(spec, [], None, 0, list(spec.start), False)
    new = scan_outcome(direct_orbit_scan, validated, 40)
    assert new == scan_outcome(reference_direct_orbit_scan, validated, 40)
    assert new[0] == "collapsed"


def test_scan_advances_a_settled_coordinate_only_when_read(monkeypatch):
    """X1 - 1 never vanishes, so the second generator, the only one to read X2
    and X3, is never evaluated: their maps run only until they settle."""
    ctx = PadicContext(3, 200)
    maps = [Polynomial(ctx, [0, 3, 1]) for _ in range(3)]  # contraction radius 2
    f1 = MultivariatePoly(ctx, 3, {(1, 0, 0): 1, (0, 0, 0): -1})
    f2 = MultivariatePoly(ctx, 3, {(0, 1, 0): 1, (0, 0, 1): -1})
    # X2 starts at valuation 2 (settled at n = 0), X3 at 1 (settled at n = 1)
    start = [ctx.integer(3), ctx.integer(9), ctx.integer(3)]
    spec = SystemSpec(ctx, maps, [ctx.zero()] * 3, start, [f1, f2], 4, 40)
    validated = validate(spec)
    runs = {id(P): 0 for P in maps}
    eval_triple = Polynomial.eval_triple

    def counted(self, *z):
        runs[id(self)] += 1
        return eval_triple(self, *z)

    monkeypatch.setattr(Polynomial, "eval_triple", counted)
    assert direct_orbit_scan(validated, 40) == []
    assert [runs[id(P)] for P in maps] == [40, 0, 1]
    monkeypatch.undo()
    assert reference_direct_orbit_scan(validated, 40) == []
