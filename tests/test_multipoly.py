"""Multivariate generators: exact evaluation and series substitution.

``evaluate_series`` builds each power by square and multiply.  The loop that
multiplied by the series one factor at a time is kept below as
``reference_evaluate_series``: exponents 1 to 3 must give its exact
coefficients and tails, and higher ones values that agree with it to the
lesser precision.
"""

import contextlib
import io
import json
import random
import time
from pathlib import Path

import pytest

from padicdyn import (
    MultivariatePoly,
    PadicContext,
    PadicNumber,
    TruncatedSeries,
    compute_lambdas,
    validate,
)
from padicdyn import cli
from padicdyn.problemfile import load_problem
from padicdyn.series import ZERO_TAIL, TailBound

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def ctx():
    return PadicContext(3, 32)


def test_evaluate_point(ctx):
    f = MultivariatePoly(ctx, 2, {(2, 0): 1, (0, 1): -1})  # X^2 - Y
    val = f.evaluate([ctx.integer(4), ctx.integer(16)])
    assert val.is_zero_to_precision
    val2 = f.evaluate([ctx.integer(4), ctx.integer(15)])
    assert val2.is_certified_nonzero


def test_exact_zero_coefficients_dropped(ctx):
    f = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): 0})
    assert len(f.terms) == 1


def test_inexact_zero_coefficient_rejected(ctx):
    fuzz = ctx.integer(5) - ctx.integer(5)
    with pytest.raises(ValueError):
        MultivariatePoly(ctx, 2, {(1, 0): fuzz})


def test_arity_checked(ctx):
    f = MultivariatePoly(ctx, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        f.evaluate([ctx.one()])


def test_evaluate_series_matches_pointwise(ctx):
    # substitute series, then evaluate; compare against evaluating first
    f = MultivariatePoly(ctx, 2, {(2, 1): 2, (1, 0): -3, (0, 0): 5})
    t = 10
    s1 = TruncatedSeries.from_coefficients(ctx, [0, 1, 1], order=t)
    s2 = TruncatedSeries.from_coefficients(ctx, [0, 2, 0, 1], order=t)
    composed = f.evaluate_series([s1, s2], t)
    z = ctx.integer(9)
    lhs = composed.evaluate(z)
    rhs = f.evaluate([s1.evaluate(z), s2.evaluate(z)])
    assert (lhs - rhs).is_zero_to_precision


def reference_evaluate_series(f, series_list, order):
    """MultivariatePoly.evaluate_series before square and multiply."""
    one = TruncatedSeries.constant(f.ctx, f.ctx.one(), order)
    powers = []
    for i, s in enumerate(series_list):
        max_e = max((expo[i] for expo in f.terms), default=0)
        table = [one]
        for _ in range(max_e):
            table.append(table[-1] * s.truncate(order))
        powers.append(table)
    acc = TruncatedSeries.zero(f.ctx, order)
    for expo, coeff in f.terms.items():
        term = TruncatedSeries.constant(f.ctx, coeff, order)
        for i, e in enumerate(expo):
            if e:
                term = term * powers[i][e]
        acc = acc + term
    return acc


def series_triples(s):
    return s._v, s._u, s._k


def random_series(rng, ctx, t):
    """Inexact coefficients of mixed valuation (the constant may be nonzero),
    with a tail bound or none, truncated at an order that may exceed t."""
    p, n = ctx.prime, ctx.working_precision
    coeffs = []
    for _ in range(rng.randint(1, t + 3)):
        k = rng.randint(1, n)
        u = p * rng.randrange(p ** (k - 1)) + rng.randrange(1, p)
        coeffs.append(ctx.zero(rng.randint(0, 8)) if rng.random() < 0.15
                      else PadicNumber(ctx, rng.randint(0, 3), u, k))
    tail = TailBound(rng.randint(0, 2), rng.randint(0, 6)) if rng.random() < 0.5 else ZERO_TAIL
    return TruncatedSeries.from_coefficients(ctx, coeffs, order=max(t, len(coeffs) - 1), tail=tail)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_powers_up_to_three_match_repeated_products(p):
    rng = random.Random(9600 + p)
    ctx = PadicContext(p, 24)
    for _ in range(25):
        t = rng.randint(0, 10)
        xs = [random_series(rng, ctx, t), random_series(rng, ctx, t)]
        terms = {(rng.randint(0, 3), rng.randint(0, 3)): rng.choice([1, -1, 2, ctx.integer(p)])
                 for _ in range(rng.randint(1, 4))}
        f = MultivariatePoly(ctx, 2, terms)
        got, want = f.evaluate_series(xs, t), reference_evaluate_series(f, xs, t)
        assert series_triples(got) == series_triples(want), terms
        assert got.tail == want.tail, terms


@pytest.mark.parametrize("p", [2, 3, 5])
def test_higher_powers_agree_with_repeated_products(p):
    """For e >= 4 the products associate differently, so a coefficient may
    carry other digits, but never a value the repeated product excludes."""
    rng = random.Random(9700 + p)
    ctx = PadicContext(p, 24)
    for _ in range(10):
        t = rng.randint(0, 10)
        xs = [random_series(rng, ctx, t)]
        f = MultivariatePoly(ctx, 1, {(e,): 1 for e in rng.sample(range(4, 12), 2)})
        got, want = f.evaluate_series(xs, t), reference_evaluate_series(f, xs, t)
        for n in range(t + 1):
            assert (got.coefficient(n) - want.coefficient(n)).is_zero_to_precision, (f.terms, n)


def diagonal_coordinates():
    """The coordinate series that build_F substitutes for tests/golden/diagonal.json."""
    spec = load_problem((GOLDEN / "diagonal.json").read_text(encoding="utf-8"))
    validated = validate(spec)
    perm, lambdas = compute_lambdas(validated)
    lead, t = perm[0], spec.truncation
    log_lead = validated.linearizations[lead].log_series
    coords = []
    for i, lin in enumerate(validated.linearizations):
        if i == lead:
            coords.append(TruncatedSeries.from_coefficients(
                spec.ctx, [lin.fixed_point, spec.ctx.one()], order=t))
        else:
            coords.append(lin.exp_series.compose(log_lead.scale(lambdas[i])) + lin.fixed_point)
    return spec.ctx, coords, t


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_diagonal_golden_powers_match_repeated_products(e):
    """On the diagonal golden's coordinates no coefficient or tail of
    X1^e - X2^e differs from the repeated product, for e up to 5."""
    ctx, coords, t = diagonal_coordinates()
    f = MultivariatePoly(ctx, 2, {(e, 0): 1, (0, e): -1})
    got, want = f.evaluate_series(coords, t), reference_evaluate_series(f, coords, t)
    assert series_triples(got) == series_triples(want)
    assert got.tail == want.tail


def test_huge_exponent_ends_in_a_verdict_within_budget(tmp_path):
    """X1^(10^6) - X2^(10^6) on the diagonal map from two different starts:
    square and multiply needs about 40 series products per power, where one
    product per unit of exponent would run for minutes."""
    doc = json.loads((GOLDEN / "diagonal.json").read_text(encoding="utf-8"))
    e = 10**6
    doc["start"] = ["9", "18"]
    doc["variety"] = [[{"exponents": [e, 0], "coefficient": "1"},
                       {"exponents": [0, e], "coefficient": "-1"}]]
    path = tmp_path / "huge_exponent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["check", str(path)])
    assert code in (0, 1, 2)
    assert time.perf_counter() - start < 5.0
