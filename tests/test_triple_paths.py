"""Bit identity of the triple-level scan paths with the object-level code they replaced.

``Polynomial.__call__``, ``PadicNumber.__pow__``, ``MultivariatePoly.evaluate``
and ``checker.direct_orbit_scan`` run on ``(v, u, k)`` triples through
``padicdyn._core``.  The ``PadicNumber``-level bodies they replaced are kept
below as references.  On every input the new code must return exactly their
triples, and the scan the same hits or the same failing index and message.
Every triple the new code returns must also be canonical (a unit below
``p**k``), which a kernel that skipped a reduction would break.  The scan
advances a settled coordinate only when a generator reads it, decides a
generator from the orbit valuations when one term has the least, and decides
hits near a unit fixed point and ties between settled orbits by its lemmas
(A) and (B); the reference advances every coordinate and evaluates every
generator every step.
"""

import json
import random
import sys
from pathlib import Path

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
from padicdyn.dynamics import contraction_radius
from padicdyn.multipoly import TIE, UNIT
from padicdyn.padic import INF_BOUND
from padicdyn.problemfile import load_problem

from corpus import build_corpus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "checkbench"))
import workloads  # noqa: E402

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
    assert [runs[id(P)] for P in maps] == [1, 0, 1]
    monkeypatch.undo()
    assert reference_direct_orbit_scan(validated, 40) == []


# -- the scan's valuation test -------------------------------------------------


def unvalidated(ctx, maps, alphas, starts, variety):
    """A system the scan reads as given: these need not pass validate."""
    spec = SystemSpec(ctx, maps, alphas, starts, variety, 4, 80)
    return ValidatedSystem(spec, [], None, 0, list(starts), False)


def orbit_point(P, x, n):
    for _ in range(n):
        x = reference_call(P, x)
    return x


def unit_fixed_point_map(ctx, b1):
    """(X - 1)^2 + b1 (X - 1) + 1, which fixes 1 with multiplier b1: its
    coordinate stays eager, a unit of valuation 0, until it collapses."""
    b1 = ctx.element(b1)
    return Polynomial(ctx, [2 - b1, b1 - 2, 1])


def valuation_cases():
    """(name, system, n_max, expected outcome kind) for the valuation test."""
    out = []
    # X1 - X2 from 140 and 833 under X^2 + 7X (scan_long seed 0, slot 06): both
    # reach valuation 3 at n = 1 and then keep equal valuations, so every step ties
    ctx = PadicContext(7, 64)
    P = Polynomial(ctx, [0, 7, 1])
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    out.append(("ties", unvalidated(ctx, [P, P], [ctx.zero()] * 2,
                                    [ctx.integer(140), ctx.integer(833)], [f]), 50, False))
    # X1 - z_5: the constant has the valuation X1 reaches at n = 5; X1 - 4 z_5
    # ties there and is not a hit
    ctx = PadicContext(3, 60)
    P, Q = Polynomial(ctx, [0, 3, 1]), Polynomial(ctx, [0, 3, 2, 1])
    z5 = orbit_point(P, ctx.integer(15), 5)
    for name, c, hit in (("constant_hit", z5, True), ("constant_tie", z5 * 4, False)):
        f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 0): -c})
        out.append((name, unvalidated(ctx, [P, Q], [ctx.zero()] * 2,
                                      [ctx.integer(15), ctx.integer(12)], [f]), 40, hit))
    # X1^2 / 5 - 5 X2^3 + X1 X2 - c, c the first three terms at n = 4: exponents
    # above 1, coefficients of negative and positive valuation, and X1^2 / 5 and
    # X1 X2 tied at every step (v(X1) = v(X2) + 1)
    ctx = PadicContext(5, 40)
    P, Q = Polynomial(ctx, [0, 5, 1]), Polynomial(ctx, [0, 5, 1, 1])
    x1, x2 = ctx.integer(50), ctx.integer(10)
    fifth = ctx.from_rational(1, 5)
    terms = {(2, 0): fifth, (0, 3): -5, (1, 1): 1}
    z1, z2 = orbit_point(P, x1, 4), orbit_point(Q, x2, 4)
    c = fifth * z1 * z1 - 5 * z2 * z2 * z2 + z1 * z2
    f = MultivariatePoly(ctx, 2, {**terms, (0, 0): -c})
    out.append(("exponents", unvalidated(ctx, [P, Q], [ctx.zero()] * 2, [x1, x2], [f]), 30, True))
    # X1 X2 - c and X1 - X2 with X1 eager at the unit fixed point 1 and X2
    # settled at n = 1: the product ties with c at n = 3 only, and X1 - X2,
    # put first, never vanishes
    ctx = PadicContext(3, 40)
    P, Q = unit_fixed_point_map(ctx, 3), Polynomial(ctx, [0, 3, 1])
    x1, x2 = ctx.integer(4), ctx.integer(3)
    c = orbit_point(P, x1, 3) * orbit_point(Q, x2, 3)
    f1 = MultivariatePoly(ctx, 2, {(1, 1): 1, (0, 0): -c})
    f2 = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    for name, variety, hit in (("eager_and_settled", [f1], True),
                               ("eager_and_settled_apart", [f2, f1], False)):
        out.append((name, unvalidated(ctx, [P, Q], [ctx.one(), ctx.zero()], [x1, x2], variety),
                    30, hit))
    # an eager coordinate that starts as O(3^2) at alpha = 1, so it is bounded as
    # a zero: X1 X2 - c is O(3^3) at n = 0, a hit
    out.append(("eager_zero_bound", unvalidated(ctx, [P, Q], [ctx.one(), ctx.zero()],
                                                [ctx.zero(2), x2], [f1]), 30, True))
    # X1 starts as O(3^2) at alpha = 0, so it is settled without the lemma and
    # is no unit: X1 - 3^5 and X1 vanish from n = 3 on.  From an exact zero,
    # X1 X2 and X1 vanish at every index.
    f_x1 = MultivariatePoly(ctx, 2, {(1, 0): 1})
    for name, x1, f1 in (
        ("indistinguishable", ctx.zero(2), MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 0): -243})),
        ("exact_zero", ctx.zero(), MultivariatePoly(ctx, 2, {(1, 1): 1})),
    ):
        out.append((name, unvalidated(ctx, [Q, Q], [ctx.zero()] * 2, [x1, x2], [f1, f_x1]),
                    20, True))
    # a constant generator, and one whose terms are all exactly zero
    for name, terms, hit in (("constant", {(0, 0): 5}, False), ("empty", {(0, 0): 0}, True)):
        f = MultivariatePoly(ctx, 2, terms)
        out.append((name, unvalidated(ctx, [Q, Q], [ctx.zero()] * 2, [x2, x2], [f]), 10, hit))
    return out


@pytest.mark.parametrize("validated,n_max,hit",
                         [pytest.param(*case[1:], id=case[0]) for case in valuation_cases()])
def test_valuation_test_cases_match_reference(validated, n_max, hit):
    new = scan_outcome(direct_orbit_scan, validated, n_max)
    assert new == scan_outcome(reference_direct_orbit_scan, validated, n_max)
    assert new[0] == "hits" and bool(new[1]) == hit


@pytest.mark.parametrize("dominant", [False, True])
def test_term_past_inf_bound_still_raises(dominant):
    """X1^78,536,549 at v(X1) = 14,000 lies past INF_BOUND.  With + X2 the
    least term is X2 alone, yet the scan must evaluate and raise as
    ``eval_triples`` does (the reference predates that error)."""
    ctx = PadicContext(2, 40)
    P = Polynomial(ctx, [0, 2, 1])
    terms = {(78_536_549, 0): 1}
    if dominant:
        terms[(0, 1)] = 1
    f = MultivariatePoly(ctx, 2, terms)
    validated = unvalidated(ctx, [P, P], [ctx.zero()] * 2,
                            [ctx.integer(2**14000), ctx.integer(4)], [f])
    with pytest.raises(PrecisionError, match="not below INF_BOUND") as exc:
        direct_orbit_scan(validated, 5)
    with pytest.raises(PrecisionError) as direct:
        f.evaluate(validated.spec.start)
    assert str(exc.value) == str(direct.value)


def valuation_system(rng, p, precision):
    """Coordinates of three kinds: at alpha = 0 with multiplier b1 (the lemma
    settles them), at the unit fixed point 1 (always eager), and starting
    indistinguishable from alpha = 0.  Each generator is up to three random
    monomials (exponents 0-3, coefficient valuations -3 to 3) minus, half the
    time, their value at a random orbit index, which puts a constant at an
    orbit valuation and a hit there."""
    ctx = PadicContext(p, precision)
    g = rng.randint(2, 3)
    b1 = PadicNumber(ctx, rng.randint(1, 2), rng.choice([1, p + 1, p - 1]), precision)
    maps, alphas, start = [], [], []
    for _ in range(g):
        kind = rng.random()
        if kind < 0.2:
            maps.append(unit_fixed_point_map(ctx, b1))
            alphas.append(ctx.one())
            start.append(1 + PadicNumber(ctx, rng.randint(1, 3), rng.randrange(1, p**4, p), 4))
            continue
        higher = [random_number(rng, ctx) for _ in range(rng.randint(0, 2))]
        maps.append(Polynomial(ctx, [ctx.zero(), b1] + higher
                               + [random_number(rng, ctx, allow_zero=False)]))
        alphas.append(ctx.zero())
        if kind < 0.35:
            start.append(ctx.zero() if rng.random() < 0.5 else ctx.zero(rng.randint(1, 9)))
        else:
            k = rng.randint(1, precision)
            start.append(PadicNumber(ctx, rng.randint(1, 4), rng.randrange(1, p**k, p), k))
    n_max = rng.choice([5, 20, 40])
    variety = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            expo = tuple(rng.randint(0, 3) for _ in range(g))
            k = rng.randint(1, precision)
            terms[expo] = PadicNumber(ctx, rng.randint(-3, 3), rng.randrange(1, p**k, p), k)
        if rng.random() < 0.5:
            cur = [orbit_point(P, x, rng.randint(0, n_max)) for P, x in zip(maps, start)]
            value = reference_evaluate(MultivariatePoly(ctx, g, terms), cur)
            if value.is_certified_nonzero and (0,) * g not in terms:
                terms[(0,) * g] = -value
        variety.append(MultivariatePoly(ctx, g, terms))
    return unvalidated(ctx, maps, alphas, start, variety), n_max


@pytest.mark.parametrize("p", PRIMES)
def test_valuation_systems_match_reference(p, monkeypatch):
    """Hits, or the collapse's failing index and message, equal the reference's,
    and the valuation test decides many of the generator values."""
    evaluated = [0]
    eval_triples = MultivariatePoly.eval_triples

    def counted(self, xs):
        evaluated[0] += 1
        return eval_triples(self, xs)

    monkeypatch.setattr(MultivariatePoly, "eval_triples", counted)
    rng = random.Random(7300 + p)
    outcomes = set()
    decided = 0
    for _ in range(120):
        validated, n_max = valuation_system(rng, p, rng.choice([8, 24, 60]))
        evaluated[0] = 0
        new = scan_outcome(direct_orbit_scan, validated, n_max)
        decided += new[0] == "hits" and evaluated[0] <= n_max
        assert new == scan_outcome(reference_direct_orbit_scan, validated, n_max)
        outcomes.add(new[0] if new[0] == "collapsed" else bool(new[1]))
    assert outcomes == {"collapsed", True, False}
    assert decided >= 20


@pytest.mark.parametrize("seed", [0, 1])
def test_scan_long_instances_match_reference(seed):
    """The benchmark's long scans, N up to 2048 and up to 700 steps."""
    for inst in workloads.generate("scan_long", seed):
        spec = load_problem(json.dumps(inst.doc))
        validated = validate(spec)
        n_max = spec.max_direct_iterations
        new = scan_outcome(direct_orbit_scan, validated, n_max)
        assert new == scan_outcome(reference_direct_orbit_scan, validated, n_max), inst.name


def counted_runs(monkeypatch, maps):
    """Per map, the count of its evaluations, and the count of generator evaluations."""
    runs = {id(P): 0 for P in maps}
    evaluated = [0]
    eval_triple, eval_triples = Polynomial.eval_triple, MultivariatePoly.eval_triples

    def counted_map(self, *z):
        runs[id(self)] += 1
        return eval_triple(self, *z)

    def counted_generator(self, xs):
        evaluated[0] += 1
        return eval_triples(self, xs)

    monkeypatch.setattr(Polynomial, "eval_triple", counted_map)
    monkeypatch.setattr(MultivariatePoly, "eval_triples", counted_generator)
    return lambda: ([runs[id(P)] for P in maps], evaluated[0])


def test_scan_catches_up_a_settled_coordinate_only_at_a_tie(monkeypatch):
    """X1 - z_6 from X1 = 3 under 3X + X^2: X1 runs once to settle (valuation 2
    at n = 1), and five more times at n = 6, the only index where X1 and the
    constant tie.  That is the hit and the only generator evaluation."""
    ctx = PadicContext(3, 200)
    maps = [Polynomial(ctx, [0, 3, 1]), Polynomial(ctx, [0, 3, 1])]
    x1 = ctx.integer(3)
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 0): -orbit_point(maps[0], x1, 6)})
    spec = SystemSpec(ctx, maps, [ctx.zero()] * 2, [x1, ctx.integer(9)], [f], 4, 40)
    validated = validate(spec)
    counts = counted_runs(monkeypatch, maps)
    assert direct_orbit_scan(validated, 40) == [6]
    assert counts() == ([6, 0], 1)
    monkeypatch.undo()
    assert reference_direct_orbit_scan(validated, 40) == [6]


def test_scan_with_a_tie_at_every_step_evaluates_once(monkeypatch):
    """X1 - X2 from 140 and 833 under X^2 + 7X: tied from n = 1 on.  At n = 1
    X1 settles after one step, X2's copy is stepped once, and the generator is
    evaluated there once; lemma (B) then decides every later index."""
    ctx = PadicContext(7, 64)
    maps = [Polynomial(ctx, [0, 7, 1]), Polynomial(ctx, [0, 7, 1])]
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    validated = unvalidated(ctx, maps, [ctx.zero()] * 2,
                            [ctx.integer(140), ctx.integer(833)], [f])
    counts = counted_runs(monkeypatch, maps)
    assert direct_orbit_scan(validated, 30) == []
    assert counts() == ([1, 1], 1)


# -- the scan's cut copies -----------------------------------------------------


def counted_widths(monkeypatch):
    """The digits k of the argument of every map evaluation, in call order."""
    widths = []
    eval_triple = Polynomial.eval_triple

    def counted(self, *z):
        widths.append(z[2])
        return eval_triple(self, *z)

    monkeypatch.setattr(Polynomial, "eval_triple", counted)
    return widths


def test_a_tie_between_coordinates_steps_only_cut_copies(monkeypatch):
    """X1 - X2 from 140 and 833 under X^2 + 7X at N = 400: X2 settles at n = 0
    and X1 at n = 1, after one full-width step; then only a cut copy of X2,
    64 digits, is stepped once, and lemma (B) decides every later index."""
    ctx = PadicContext(7, 400)
    P = Polynomial(ctx, [0, 7, 1])
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    validated = unvalidated(ctx, [P, P], [ctx.zero()] * 2,
                            [ctx.integer(140), ctx.integer(833)], [f])
    widths = counted_widths(monkeypatch)
    assert direct_orbit_scan(validated, 30) == []
    assert widths == [400, 64]
    monkeypatch.undo()
    assert reference_direct_orbit_scan(validated, 30) == []


@pytest.mark.parametrize("depth,hits,widths", [
    (None, list(range(31)), [200] * 60),
    (20, [], [64] * 60),
    (100, [], [64, 64, 200, 200] * 30),
])
def test_cut_copies_fall_back_below_their_digits(depth, hits, widths, monkeypatch):
    """X1 + X2 under the odd map 3X + X^3 from 6 and -6 + 3^(1 + depth): the
    sum keeps depth more digits of cancellation than its terms at every index,
    and both coordinates settle at n = 0.  A depth of 20 is decided by the
    64-digit copies; at a depth of 100 the copies vanish, so both coordinates
    are caught up at full width every step.  Exactly opposite starts hit
    everywhere: the generator vanishes at n = 0, so no copies are tried."""
    ctx = PadicContext(3, 200)
    P = Polynomial(ctx, [0, 3, 0, 1])
    x2 = -6 if depth is None else -6 + 3 ** (1 + depth)
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): 1})
    validated = unvalidated(ctx, [P, P], [ctx.zero()] * 2, [ctx.integer(6), ctx.integer(x2)], [f])
    counted = counted_widths(monkeypatch)
    assert direct_orbit_scan(validated, 30) == hits
    assert counted == widths
    monkeypatch.undo()
    assert reference_direct_orbit_scan(validated, 30) == hits


def test_cut_copies_do_not_hide_a_hit_between_coordinates():
    """X1 - X2 from 9 under 3X + X^2 and 63 under 3X - X^2 / 49: both settle at
    n = 0 and tie at every index, and both orbits reach 108 at n = 1.  The
    copies vanish there, so the scan evaluates the full values and finds the
    hit; at later ties the copies decide."""
    ctx = PadicContext(3, 200)
    P = Polynomial(ctx, [0, 3, 1])
    Q = Polynomial(ctx, [0, 3, ctx.from_rational(-1, 49)])
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    validated = unvalidated(ctx, [P, Q], [ctx.zero()] * 2, [ctx.integer(9), ctx.integer(63)], [f])
    assert direct_orbit_scan(validated, 30) == [1]
    assert reference_direct_orbit_scan(validated, 30) == [1]


@pytest.mark.parametrize("v,cut", [(2**38, True), (2**39, False)])
def test_cut_copies_follow_the_settle_rule(v, cut, monkeypatch):
    """X1 - X2 from 2^v and 3 * 2^v under X^2 + 2X at N = 100, tied at every
    step.  At v = 2^38 both settle at n = 0, where the generator is a unit,
    and lemma (B) decides every later index: nothing is stepped.  At
    v = 2^39, C + D c = 101 + 2 (2^39 + 100 + 10) reaches INF_BOUND, so the
    settle rule leaves both coordinates eager: they are stepped at full
    width every step."""
    ctx = PadicContext(2, 100)
    P = Polynomial(ctx, [0, 2, 1])
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    starts = [PadicNumber(ctx, v, 1, 100), PadicNumber(ctx, v, 3, 100)]
    validated = unvalidated(ctx, [P, P], [ctx.zero()] * 2, starts, [f])
    widths = counted_widths(monkeypatch)
    assert direct_orbit_scan(validated, 10) == []
    assert widths == ([] if cut else [100] * 20)
    monkeypatch.undo()
    assert reference_direct_orbit_scan(validated, 10) == []


def test_term_test_outcomes():
    ctx = PadicContext(3, 40)
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1, (0, 0): 27})
    assert f.term_test([2, 2]) is TIE
    assert f.term_test([3, 5]) is None  # the constant ties X1 at 3
    assert f.term_test([5, 5]) is UNIT  # the constant lies below the tie
    g = MultivariatePoly(ctx, 2, {(2, 0): ctx.from_rational(1, 3), (0, 1): -1})
    assert g.term_test([INF_BOUND // 2 - 21, INF_BOUND - 41]) is UNIT
    assert g.term_test([INF_BOUND // 2 - 20, INF_BOUND - 41]) is None  # tied, bound + N too wide
    assert g.term_test([0, INF_BOUND - 40]) is UNIT
    assert g.term_test([0, INF_BOUND]) is None  # a unique least term, another past INF_BOUND
    h = MultivariatePoly(ctx, 2, {(2, 0): 1, (0, 1): -1})
    assert h.term_test([INF_BOUND // 2 - 21, INF_BOUND - 42]) is TIE
    assert h.term_test([INF_BOUND // 2 - 20, INF_BOUND - 40]) is None
    assert MultivariatePoly(ctx, 2, {(0, 0): 5}).term_test([1, 1]) is UNIT
    assert MultivariatePoly(ctx, 2, {}).term_test([1, 1]) is None


# -- the scan's lemmas (A) and (B) ----------------------------------------------


def unit(draw, p, k):
    """A unit below p^k, drawn."""
    return p * draw(st.integers(0, p ** (k - 1) - 1)) + draw(st.integers(1, p - 1))


@st.composite
def fixed_point_hit_systems(draw):
    """X1 at a unit fixed point c under (X - c)^2 + b1 (X - c) + c, which stays
    eager; X2 under b1 X + X^2 at alpha = 0.  Each generator is c1 X1 + c0 with
    c0 = -c1 z_k plus, half the time, a perturbation p^j u: a hit at k, a
    constant whose distance to c equals z_k's (so delta = w - v(c1) at k), or
    one farther away.  Half the time X2 - z2_k comes first."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(6, 30))
    ctx = PadicContext(p, n)
    c = ctx.integer(draw(st.integers(1, p - 1)) + p * draw(st.integers(0, 3)))
    b1 = PadicNumber(ctx, draw(st.integers(1, 2)), unit(draw, p, 2), n)
    P = Polynomial(ctx, [c * c - b1 * c + c, b1 - 2 * c, 1])
    Q = Polynomial(ctx, [0, b1, 1])
    x1 = c + PadicNumber(ctx, draw(st.integers(1, 3)), unit(draw, p, n), n)
    x2 = PadicNumber(ctx, draw(st.integers(2, 3)), unit(draw, p, n), n)
    n_max = draw(st.integers(0, 25))
    variety = []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, n_max))
        c1 = PadicNumber(ctx, draw(st.integers(-2, 2)), unit(draw, p, n), draw(st.integers(1, n)))
        c0 = -(c1 * orbit_point(P, x1, k))
        if draw(st.booleans()):
            c0 = c0 + PadicNumber(ctx, draw(st.integers(0, n + 3)), unit(draw, p, n), n)
        if not c0.is_certified_nonzero:
            c0 = ctx.one()
        variety.append(MultivariatePoly(ctx, 2, {(1, 0): c1, (0, 0): c0}))
    if draw(st.booleans()):
        z2 = orbit_point(Q, x2, draw(st.integers(0, n_max)))
        variety.insert(0, MultivariatePoly(ctx, 2, {(0, 1): 1, (0, 0): -z2}))
    return unvalidated(ctx, [P, Q], [c, ctx.zero()], [x1, x2], variety), n_max


@settings(max_examples=150, deadline=None)
@given(fixed_point_hit_systems())
def test_fixed_point_hits_match_reference(case):
    validated, n_max = case
    assert scan_outcome(direct_orbit_scan, validated, n_max) == scan_outcome(
        reference_direct_orbit_scan, validated, n_max)


@st.composite
def settled_tie_systems(draw):
    """X1 and X2 at alpha = 0, settled from n = 0, with equal start valuations
    and x - y of any relative valuation.  The maps are equal, or the second
    one's coefficients differ from the first's by p^d u; coefficients may
    carry few digits.  The generator is c X1 + c' X2 with c' = -c, or -c plus
    p^e u, which may leave c + c' certified nonzero."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(8, 40))
    ctx = PadicContext(p, n)
    s = draw(st.integers(1, 2))

    def number(v):
        return PadicNumber(ctx, v, unit(draw, p, n), draw(st.sampled_from([n, n, 1, 2, 3, 5])))

    first = [ctx.zero(), number(s)] + [number(draw(st.integers(0, 2)))
                                        for _ in range(draw(st.integers(1, 2)))]
    second = list(first)
    if draw(st.booleans()):
        for r in range(1, len(second)):
            if draw(st.booleans()):
                nudged = second[r] + PadicNumber(ctx, draw(st.integers(0, 6)), 1, n)
                if nudged.is_certified_nonzero:
                    second[r] = nudged
    P, Q = Polynomial(ctx, first), Polynomial(ctx, second)
    v0 = max(contraction_radius(first, s), contraction_radius(second, s)) + draw(st.integers(0, 2))
    x = PadicNumber(ctx, v0, unit(draw, p, n), n)
    y = x + PadicNumber(ctx, v0 + draw(st.integers(1, n + 2)), unit(draw, p, n), n)
    if y.valuation != v0:
        y = x
    c = PadicNumber(ctx, draw(st.integers(-2, 2)), unit(draw, p, n), draw(st.sampled_from([n, 2])))
    other = -c
    if draw(st.booleans()):
        other = other + PadicNumber(ctx, c.valuation + draw(st.integers(0, 4)), 1, n)
    if not other.is_certified_nonzero:
        other = -c
    variety = [MultivariatePoly(ctx, 2, {(1, 0): c, (0, 1): other})]
    n_max = draw(st.integers(0, 30))
    return unvalidated(ctx, [P, Q], [ctx.zero()] * 2, [x, y], variety), n_max


@settings(max_examples=200, deadline=None)
@given(settled_tie_systems())
def test_settled_ties_match_reference(case):
    validated, n_max = case
    assert scan_outcome(direct_orbit_scan, validated, n_max) == scan_outcome(
        reference_direct_orbit_scan, validated, n_max)


def collapse_system(constant, c1=1):
    """c1 X1 - constant with X1 from 4 under X^2 + X - 1, which fixes 1 with
    multiplier 3, so v(z_n - 1) = n + 1; X2 is never read."""
    ctx = PadicContext(3, 40)
    maps = [Polynomial(ctx, [-1, 1, 1]), Polynomial(ctx, [-1, 1, 1])]
    gen = MultivariatePoly(ctx, 2, {(1, 0): c1, (0, 0): -c1 * ctx.element(constant)})
    return unvalidated(ctx, maps, [ctx.one()] * 2, [ctx.integer(4), ctx.integer(10)], [gen])


@pytest.mark.parametrize("shift,c1,hits", [(0, 1, [3]), (0, 5, [3]), (3**10, 1, []),
                                           (3**2, 1, [])])
def test_a_hit_at_a_unit_fixed_point_is_evaluated_once(shift, c1, hits, monkeypatch):
    """c1 X1 - c1 (z_3 + shift): e = c1 (1 - z_3 - shift) has valuation w = 4
    unless the shift is 3^2.  Lemma (A) decides every index but the one where
    v(z_n - 1) + v(c1) = w, n = 3, where the generator is evaluated once: it
    vanishes there when the shift is 0 and is a unit of valuation 10 when it is
    3^10.  With the shift 3^2, w = 2 and n = 1 is evaluated instead."""
    P = collapse_system(0).spec.maps[0]
    validated = collapse_system(orbit_point(P, P.ctx.integer(4), 3) + shift, c1)
    counts = counted_runs(monkeypatch, validated.spec.maps)
    assert direct_orbit_scan(validated, 30) == hits
    assert counts() == ([30, 30], 1)
    monkeypatch.undo()
    assert reference_direct_orbit_scan(validated, 30) == hits


def test_a_constant_of_few_digits_is_evaluated_every_step(monkeypatch):
    """X1 (1 + O(3^5)) - 1: e = O(3^5) is no unit, so lemma (A) does not apply,
    and the generator vanishes to precision from n = 4 on."""
    ctx = PadicContext(3, 20)
    P = Polynomial(ctx, [-1, 1, 1])
    gen = MultivariatePoly(ctx, 2, {(1, 0): PadicNumber(ctx, 0, 1, 5), (0, 0): -1})
    validated = unvalidated(ctx, [P, P], [ctx.one()] * 2, [ctx.integer(4), ctx.integer(10)],
                            [gen])
    counts = counted_runs(monkeypatch, [P])
    assert direct_orbit_scan(validated, 12) == list(range(4, 13))
    assert counts()[1] == 13
    monkeypatch.undo()
    assert reference_direct_orbit_scan(validated, 12) == list(range(4, 13))


@pytest.mark.parametrize("short", ["b1", "b2"])
def test_a_tie_is_not_settled_while_digits_may_run_short(short, monkeypatch):
    """X1 - X2 from 9 and 9 + 3^6 under 3X + X^2, with b1 = 3 + O(3^4) or
    b2 = 1 + O(3^2): t = 4 at n = 0, and k(b1) = 3 or A(2) - s = 3 is no
    more, so lambda_1 = 4 or lambda_2 = 2 (b - b is zero to its absolute
    precision) fails its bound.  So lemma (B) does not apply, and from n = 1
    on the difference is lost below the next values' digits: the generator
    vanishes to precision.  It is
    evaluated at n = 0, at the copies and the full values at n = 1, and once
    at each later index."""
    ctx = PadicContext(3, 40)
    b1 = PadicNumber(ctx, 1, 1, 3) if short == "b1" else 3
    b2 = PadicNumber(ctx, 0, 1, 2) if short == "b2" else 1
    P = Polynomial(ctx, [0, b1, b2])
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    validated = unvalidated(ctx, [P, P], [ctx.zero()] * 2,
                            [ctx.integer(9), ctx.integer(9 + 3**6)], [f])
    counts = counted_runs(monkeypatch, [P])
    assert direct_orbit_scan(validated, 10) == list(range(1, 11))
    assert counts()[1] == 12
    monkeypatch.undo()
    assert reference_direct_orbit_scan(validated, 10) == list(range(1, 11))


def test_a_tie_is_not_settled_between_maps_that_differ_in_b1(monkeypatch):
    """X1 - X2 from 9 under 3X + X^2 and 36 under -33X + X^2: t = 1 at n = 0 and
    lambda_1 = v(3 + 33) = 2 = t + s, so lemma (B) does not apply; both orbits
    reach 108 at n = 1, a hit.  The generator is evaluated at n = 0, at the
    copies and the full values at n = 1, and once at each later index, where
    lambda_1 = t + s again."""
    ctx = PadicContext(3, 40)
    P, Q = Polynomial(ctx, [0, 3, 1]), Polynomial(ctx, [0, -33, 1])
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
    validated = unvalidated(ctx, [P, Q], [ctx.zero()] * 2, [ctx.integer(9), ctx.integer(36)], [f])
    counts = counted_runs(monkeypatch, [P, Q])
    assert direct_orbit_scan(validated, 10) == [1]
    assert counts()[1] == 12
    monkeypatch.undo()
    assert reference_direct_orbit_scan(validated, 10) == [1]


def test_a_tie_is_not_settled_where_a_later_term_reaches_inf_bound():
    """c (X1 - X2) with v(c) = 10 * 2^36, from 2^(2^38) and 3 * 2^(2^38) under
    2^(2^36) X + X^2 at p = 2: the generator is a unit at n = 0, but at n = 2
    its terms reach INF_BOUND = 2^40 and it reads as an exact zero, as in the
    reference.  Lemma (B) must not engage before that."""
    ctx = PadicContext(2, 20)
    s, v = 2**36, 2**38
    P = Polynomial(ctx, [0, PadicNumber(ctx, s, 1, 20), 1])
    c = PadicNumber(ctx, 10 * s, 1, 20)
    f = MultivariatePoly(ctx, 2, {(1, 0): c, (0, 1): -c})
    starts = [PadicNumber(ctx, v, 1, 20), PadicNumber(ctx, v, 3, 20)]
    validated = unvalidated(ctx, [P, P], [ctx.zero()] * 2, starts, [f])
    assert scan_outcome(direct_orbit_scan, validated, 3) == scan_outcome(
        reference_direct_orbit_scan, validated, 3) == ("hits", [2, 3])
