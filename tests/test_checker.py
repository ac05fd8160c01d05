"""The intersection analysis: validation, scanning, lambdas, F-series, verdicts."""

import ast
import copy
import json
import re
from pathlib import Path

import pytest

from padicdyn import (
    MultivariatePoly,
    PadicContext,
    PadicNumber,
    Polynomial,
    PrecisionError,
    SystemSpec,
    TruncatedSeries,
    ValidationError,
    analyze,
    build_F,
    compute_lambdas,
    direct_orbit_scan,
    linearize,
    validate,
)
from padicdyn import checker, scan
from padicdyn.padic import INF_BOUND


@pytest.fixture(scope="module")
def ctx():
    return PadicContext(3, 128)


@pytest.fixture(scope="module")
def P(ctx):
    return Polynomial(ctx, [0, 3, 1])


def diag_generator(ctx):
    return MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})


def make_spec(ctx, P, start, variety, t=32, n_max=60):
    return SystemSpec(ctx, [P, P], [ctx.zero(), ctx.zero()], start, variety, t, n_max)


class TestValidate:
    def test_valid_p2_p2(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.integer(9), ctx.integer(9)], [diag_generator(ctx)])
        v = validate(spec)
        assert not v.degenerate
        # start valuation 2; orbit enters the isometry ball after at most one step
        assert v.n0 <= max(0, v.linearizations[0].isometry_radius_valuation - 2)

    def test_degenerate(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.zero(), ctx.zero()], [diag_generator(ctx)])
        assert validate(spec).degenerate

    def test_unequal_multipliers_rejected(self, ctx, P):
        P2 = Polynomial(ctx, [0, 9, 1])
        spec = SystemSpec(
            ctx, [P, P2], [ctx.zero(), ctx.zero()],
            [ctx.integer(3), ctx.integer(3)], [diag_generator(ctx)], 16, 10,
        )
        with pytest.raises(ValidationError, match="multiplier"):
            validate(spec)

    def test_non_attracting_rejected(self, ctx):
        P2 = Polynomial(ctx, [0, 2, 1])
        spec = SystemSpec(
            ctx, [P2, P2], [ctx.zero(), ctx.zero()],
            [ctx.integer(3), ctx.integer(3)], [diag_generator(ctx)], 16, 10,
        )
        with pytest.raises(ValidationError):
            validate(spec)

    def test_unreachable_start_rejected(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.integer(1), ctx.integer(3)], [diag_generator(ctx)], n_max=5)
        with pytest.raises(ValidationError, match="isometry"):
            validate(spec)

    def test_needs_two_coordinates(self, ctx, P):
        spec = SystemSpec(ctx, [P], [ctx.zero()], [ctx.integer(3)],
                          [MultivariatePoly(ctx, 1, {(1,): 1})], 16, 10)
        with pytest.raises(ValidationError):
            validate(spec)


@pytest.mark.parametrize("field, make, message", [
    ("truncation", lambda c: {"t": 0}, "truncation must be >= 1, got 0"),
    ("truncation", lambda c: {"t": -1}, "truncation must be >= 1, got -1"),
    ("max_direct_iterations", lambda c: {"n_max": -1},
     "max_direct_iterations must be >= 0, got -1"),
    ("start", lambda c: {"start": [PadicNumber(c, 1, 1, 40), c.integer(9)]},
     "start[1] carries 40 digits, more than the working precision 32"),
    ("start", lambda c: {"start": [c.integer(3), PadicNumber(c, 1, 3, 10)]},
     "start[2] has a unit outside 1 <= u < p^10 with p not dividing u"),
    ("start", lambda c: {"start": [c.integer(3), PadicNumber(c, 1, 3**10 + 1, 10)]},
     "start[2] has a unit outside 1 <= u < p^10 with p not dividing u"),
    ("fixed_points", lambda c: {"fixed_points": [c.zero(), PadicNumber(c, 0, 1, 33)]},
     "fixed_points[2] carries 33 digits"),
    ("maps", lambda c: {"maps": [Polynomial(c, [0, 3, PadicNumber(c, 0, 1, 64)])] * 2},
     "maps[1] coefficient of X^2 carries 64 digits"),
    # absolute precision 20 digits short of INF_BOUND, the exact-zero valuation
    ("start", lambda c: {"start": [c.integer(3), PadicNumber(c, INF_BOUND - 20, 1, 32)]},
     f"start[2] has valuation {INF_BOUND - 20}, beyond the bound"
     f" |v| <= {checker.VALUATION_BOUND}"),
    ("maps", lambda c: {"maps": [
        Polynomial(c, [0, 3, PadicNumber(c, -checker.VALUATION_BOUND - 1, 1, 8)])] * 2},
     f"maps[1] coefficient of X^2 has valuation {-checker.VALUATION_BOUND - 1}"),
], ids=["truncation-0", "truncation-negative", "iterations-negative", "start-long",
        "start-unit-divisible", "start-unit-too-large", "fixed-point-long", "map-long",
        "start-valuation-near-inf-bound", "map-valuation-below-bound"])
def test_validate_names_the_field_out_of_range(field, make, message):
    """validate names the field of a truncation, iteration cap or value out of
    range.  Unchecked, truncation 0 and -1 end in a bare ZeroDivisionError or
    ValueError, and a start value of 40 digits at N = 32 ends in a verdict."""
    c = PadicContext(3, 32)
    P = Polynomial(c, [0, 3, 1])
    args = {"maps": [P, P], "fixed_points": [c.zero(), c.zero()],
            "start": [c.integer(3), c.integer(9)], "t": 8, "n_max": 40}
    args.update(make(c))
    spec = SystemSpec(c, args["maps"], args["fixed_points"], args["start"],
                      [diag_generator(c)], args["t"], args["n_max"])
    with pytest.raises(ValidationError, match=re.escape(message)) as info:
        validate(spec)
    assert str(info.value).startswith(field)
    with pytest.raises(ValidationError, match=re.escape(message)):
        analyze(spec)


@pytest.mark.parametrize("coefficient, message", [
    (lambda c: PadicNumber(c, 0, 1, 40),
     "variety[2] coefficient of exponents (1, 0) carries 40 digits, more than the"
     " working precision 32"),
    (lambda c: PadicNumber(c, 0, 3, 8),
     "variety[2] coefficient of exponents (1, 0) has a unit outside 1 <= u < p^8"),
    (lambda c: PadicNumber(c, checker.VALUATION_BOUND + 1, 1, 8),
     f"variety[2] coefficient of exponents (1, 0) has valuation {checker.VALUATION_BOUND + 1}"),
], ids=["long", "unit-divisible", "valuation"])
def test_validate_names_the_generator_coefficient_out_of_range(coefficient, message):
    """A generator coefficient is checked like every other value: unchecked,
    one of 40 digits at N = 32 ends in the verdict ``finite`` with bound 1."""
    c = PadicContext(3, 32)
    P = Polynomial(c, [0, 3, 1])
    variety = [diag_generator(c), MultivariatePoly(c, 2, {(1, 0): coefficient(c), (0, 1): -1})]
    spec = SystemSpec(c, [P, P], [c.zero(), c.zero()], [c.integer(3), c.integer(9)], variety, 8, 40)
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate(spec)
    with pytest.raises(ValidationError, match=re.escape(message)):
        analyze(spec)


OTHER = PadicContext(3, 64)


@pytest.mark.parametrize("make, message", [
    (lambda c: {"start": [3, c.integer(9)]}, "start[1] is not a PadicNumber: got int"),
    (lambda c: {"fixed_points": [c.zero(), 0]}, "fixed_points[2] is not a PadicNumber: got int"),
    (lambda c: {"start": [c.integer(3), OTHER.integer(9)]},
     "start[2] is over p = 3, N = 64, not the problem's p = 3, N = 32"),
    (lambda c: {"fixed_points": [c.zero(), PadicContext(5, 32).zero()]},
     "fixed_points[2] is over p = 5, N = 32, not the problem's p = 3, N = 32"),
    (lambda c: {"maps": [Polynomial(c, [0, 3, 1]), Polynomial(OTHER, [0, 3, 1])]},
     "maps[2] is over p = 3, N = 64, not the problem's p = 3, N = 32"),
    (lambda c: {"variety": [diag_generator(OTHER)]},
     "variety[1] is over p = 3, N = 64, not the problem's p = 3, N = 32"),
], ids=["start-int", "fixed-point-int", "start-other-context", "fixed-point-other-context",
        "map-other-context", "generator-other-context"])
def test_validate_refuses_foreign_inputs(make, message):
    """A value that is no PadicNumber, and a value, map or generator over
    another context, is refused with the field named.  Unchecked, an int
    ends in an AttributeError, a start or fixed point of another context in
    a ValueError of the arithmetic, and a generator of another context
    passes the whole scan and then raises a ValueError in ``build_F``."""
    c = PadicContext(3, 32)
    P = Polynomial(c, [0, 3, 1])
    args = {"maps": [P, P], "fixed_points": [c.zero(), c.zero()],
            "start": [c.integer(3), c.integer(9)], "variety": [diag_generator(c)]}
    args.update(make(c))
    spec = SystemSpec(c, args["maps"], args["fixed_points"], args["start"], args["variety"], 8, 40)
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate(spec)
    with pytest.raises(ValidationError, match=re.escape(message)):
        analyze(spec)


def test_validate_refuses_a_fixed_point_read_problem_left_out():
    """``read_problem`` leaves each omitted fixed point None, and ``analyze``
    of its spec refuses the first one by name instead of ending in an
    AttributeError; ``load_problem`` discovers them."""
    from padicdyn.problemfile import read_problem

    from test_cli import DIAG

    doc = json.dumps({key: value for key, value in DIAG.items() if key != "fixed_points"})
    with pytest.raises(ValidationError, match=re.escape(
            "fixed_points[1] is not a PadicNumber: got None; load_problem discovers it")):
        analyze(read_problem(doc))


class TestSharedLinearizations:
    def test_equal_maps_share_one_linearization(self, ctx):
        P1 = Polynomial(ctx, [0, 3, 1])
        P2 = Polynomial(ctx, [0, 3, 1])
        P3 = Polynomial(ctx, [0, 3, 2, 1])
        spec = SystemSpec(ctx, [P1, P3, P2], [ctx.zero(), ctx.zero(), ctx.zero()],
                          [ctx.integer(3), ctx.integer(9), ctx.integer(27)],
                          [MultivariatePoly(ctx, 3, {(1, 0, 0): 1, (0, 0, 1): -1})], 16, 20)
        lins = validate(spec).linearizations
        assert lins[0] is lins[2]
        assert lins[1] is not lins[0]

    def test_lower_precision_coefficient_does_not_share(self, ctx):
        P1 = Polynomial(ctx, [0, 3, 1])
        P2 = Polynomial(ctx, [0, 3, PadicNumber(ctx, 0, 1, 100)])
        assert (P2.coefficients[2] - P1.coefficients[2]).is_zero_to_precision
        spec = make_spec(ctx, P1, [ctx.integer(9), ctx.integer(9)], [diag_generator(ctx)])
        spec.maps = [P1, P2]
        lins = validate(spec).linearizations
        assert lins[0] is not lins[1]

    def test_shared_series_are_not_mutated_by_analyze(self, ctx, P, monkeypatch):
        P2 = Polynomial(ctx, [0, 3, 2, 1])
        gen = MultivariatePoly(ctx, 4, {(1, 0, 0, 0): 2, (0, 1, 0, 0): -5, (0, 0, 1, 1): 1,
                                        (0, 0, 0, 0): 21})
        diag = MultivariatePoly(ctx, 4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1})
        spec = SystemSpec(ctx, [P, P, P2, Polynomial(ctx, [0, 3, 2, 1])], [ctx.zero()] * 4,
                          [ctx.integer(3), ctx.integer(9), ctx.integer(9), ctx.integer(27)],
                          [gen, diag], 32, 30)
        seen = []
        real_validate = checker.validate
        monkeypatch.setattr(checker, "validate", lambda s: seen.append(real_validate(s)) or seen[-1])
        assert analyze(spec).verdict in ("finite", "inconclusive")
        lins = seen[0].linearizations
        assert lins[0] is lins[1] and lins[2] is lins[3]
        for lin, Pi, alpha in zip(lins, spec.maps, spec.fixed_points):
            fresh = linearize(Pi, alpha, spec.truncation)
            for got, want in ((lin.exp_series, fresh.exp_series), (lin.log_series, fresh.log_series)):
                assert (got._v, got._u, got._k) == (want._v, want._u, want._k)
                assert got.tail == want.tail

    def test_shared_failure_names_first_coordinate(self):
        # N = 40, T = 16: v(a1) = 1 needs N > 24, v(a1) = 2 needs N > 40
        ctx40 = PadicContext(3, 40)
        P1 = Polynomial(ctx40, [0, 3, 1])
        P2 = Polynomial(ctx40, [0, 9, 1])
        spec = SystemSpec(ctx40, [P1, P2, Polynomial(ctx40, [0, 9, 1])], [ctx40.zero()] * 3,
                          [ctx40.integer(3)] * 3,
                          [MultivariatePoly(ctx40, 3, {(1, 0, 0): 1, (0, 1, 0): -1})], 16, 10)
        with pytest.raises(ValidationError, match=r"^coordinate 2: working precision 40 too small"):
            validate(spec)


class TestDirectScan:
    def test_diagonal_all_hits(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.integer(9), ctx.integer(9)], [diag_generator(ctx)], n_max=25)
        v = validate(spec)
        assert direct_orbit_scan(v) == list(range(26))

    def test_split_valuations_no_hits(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.integer(3), ctx.integer(9)], [diag_generator(ctx)], n_max=25)
        assert direct_orbit_scan(validate(spec)) == []

    def test_constructed_hit(self, ctx, P):
        x1 = ctx.integer(3)
        c = x1
        for _ in range(3):
            c = P(c)
        gen = MultivariatePoly(ctx, 2, {(1, 0): ctx.one(), (0, 0): -c})
        spec = make_spec(ctx, P, [x1, ctx.integer(9)], [gen], n_max=25)
        assert direct_orbit_scan(validate(spec)) == [3]

    def test_the_oracle_imports_nothing_of_the_f_side(self):
        """``scan.py``'s own imports, wherever they stand, name none of the
        modules the pullback F is built from."""
        tree = ast.parse(Path(scan.__file__).read_text())
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                named.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                named.update((node.module or "").split("."))
                named.update(alias.name for alias in node.names)
        assert "_core" in named  # the walk sees the module's imports
        assert not named & {"linearize", "series", "checker"}

    def test_analyze_calls_the_scan_through_the_checker_name(self):
        """``checker`` binds the scan module's function, and ``analyze`` looks
        it up there at call time, where the benchmark's span wraps it."""
        assert checker.direct_orbit_scan is scan.direct_orbit_scan is direct_orbit_scan


class TestLambdas:
    def test_equal_coordinates(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.integer(9), ctx.integer(9)], [diag_generator(ctx)])
        perm, lams = compute_lambdas(validate(spec))
        assert perm == [0, 1]
        assert (lams[1] - ctx.one()).is_zero_to_precision

    def test_coordinate_at_fixed_point(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.integer(9), ctx.zero()], [diag_generator(ctx)])
        perm, lams = compute_lambdas(validate(spec))
        assert lams[1].is_exact_zero

    def test_reindexing_picks_largest_log(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.integer(9), ctx.integer(3)], [diag_generator(ctx)])
        perm, lams = compute_lambdas(validate(spec))
        assert perm == [1, 0]  # second coordinate has the smaller valuation
        assert lams[0].valuation == 1
        assert (lams[1] - ctx.one()).is_zero_to_precision

    def test_independence_of_orbit_index(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.integer(3), ctx.integer(9)], [diag_generator(ctx)])
        v = validate(spec)
        perm, lams = compute_lambdas(v)
        for shift in (1, 2, 5):
            v2 = copy.copy(v)
            adv = list(v.advanced_start)
            for _ in range(shift):
                adv = [Pm(z) for Pm, z in zip(v.spec.maps, adv)]
            v2.advanced_start = adv
            perm2, lams2 = compute_lambdas(v2)
            assert perm2 == perm
            assert all((a - b).is_zero_to_precision for a, b in zip(lams, lams2))


class TestBuildF:
    def test_diagonal_F_vanishes(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.integer(9), ctx.integer(9)], [diag_generator(ctx)])
        v = validate(spec)
        perm, lams = compute_lambdas(v)
        F = build_F(v, perm[0], lams)[0]
        assert F.is_certified_zero_through_order()

    def test_projection_generator(self, ctx, P):
        # f = X_1 alone: F = alpha_1 + w = w here
        gen = MultivariatePoly(ctx, 2, {(1, 0): 1})
        spec = make_spec(ctx, P, [ctx.integer(9), ctx.integer(9)], [gen])
        v = validate(spec)
        perm, lams = compute_lambdas(v)
        F = build_F(v, perm[0], lams)[0]
        assert F.coefficient(0).is_zero_to_precision
        assert (F.coefficient(1) - ctx.one()).is_zero_to_precision

    def test_F_matches_orbit_values(self, ctx, P):
        # F(P_lead^n(x) - alpha) = f(orbit point) for n0 <= n <= n0 + 10
        P2 = Polynomial(ctx, [0, 3, 2, 1])
        gen = MultivariatePoly(ctx, 2, {(1, 0): 2, (0, 1): -5, (0, 0): 21})
        spec = SystemSpec(ctx, [P, P2], [ctx.zero(), ctx.zero()],
                          [ctx.integer(3), ctx.integer(9)], [gen], 32, 40)
        v = validate(spec)
        perm, lams = compute_lambdas(v)
        F = build_F(v, perm[0], lams)[0]
        lead = perm[0]
        alpha = v.linearizations[lead].fixed_point
        pts = list(v.advanced_start)
        for n in range(v.n0, v.n0 + 11):
            lhs = F.evaluate(pts[lead] - alpha)
            rhs = gen.evaluate(pts)
            assert (lhs - rhs).is_zero_to_precision, n
            pts = [Pm(z) for Pm, z in zip(spec.maps, pts)]

    def test_unread_coordinate_is_not_composed(self, ctx, P, monkeypatch):
        # no generator reads X3: its series is never built, and every F equals
        # the one built from all three coordinate series
        P2 = Polynomial(ctx, [0, 3, 2, 1])
        P3 = Polynomial(ctx, [0, 3, 0, 0, 1])
        gens = [MultivariatePoly(ctx, 3, {(1, 0, 0): 2, (0, 1, 0): -5, (0, 0, 0): 21}),
                MultivariatePoly(ctx, 3, {(0, 2, 0): 1, (1, 0, 0): -1})]
        spec = SystemSpec(ctx, [P, P2, P3], [ctx.zero()] * 3,
                          [ctx.integer(3), ctx.integer(9), ctx.integer(27)], gens, 32, 30)
        v = validate(spec)
        perm, lams = compute_lambdas(v)
        assert perm[0] == 0 and not lams[2].is_zero_to_precision
        t = spec.truncation
        log_lead = v.linearizations[0].log_series
        alpha_lead = v.linearizations[0].fixed_point
        every = [TruncatedSeries.from_coefficients(ctx, [alpha_lead, ctx.one()], order=t)] + [
            lin.exp_series.compose(log_lead.scale(lam)) + lin.fixed_point
            for lin, lam in zip(v.linearizations[1:], lams[1:])
        ]
        composed = []
        real_compose = TruncatedSeries.compose
        monkeypatch.setattr(TruncatedSeries, "compose",
                            lambda s, inner: composed.append(s) or real_compose(s, inner))
        Fs = build_F(v, 0, lams)
        assert composed == [v.linearizations[1].exp_series]
        for F, f in zip(Fs, gens, strict=True):
            want = f.evaluate_series(every, t)
            assert (F._v, F._u, F._k) == (want._v, want._u, want._k)
            assert F.tail == want.tail


class TestAnalyze:
    def test_diagonal_invariant_candidate(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.integer(9), ctx.integer(9)], [diag_generator(ctx)], n_max=30)
        r = analyze(spec)
        assert r.verdict == "invariant_candidate"
        assert r.direct_hits == list(range(31))

    def test_hyperplane_through_orbit_point(self, ctx, P):
        x1 = ctx.integer(3)
        c = x1
        for _ in range(3):
            c = P(c)
        gen = MultivariatePoly(ctx, 2, {(1, 0): ctx.one(), (0, 0): -c})
        spec = make_spec(ctx, P, [x1, ctx.integer(9)], [gen], n_max=30)
        r = analyze(spec)
        assert r.verdict == "finite"
        assert r.direct_hits == [3]
        assert r.bound_certified and r.bound >= 1
        assert r.complete

    def test_split_valuations_finite_no_hits(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.integer(3), ctx.integer(9)], [diag_generator(ctx)], n_max=30)
        r = analyze(spec)
        assert r.verdict == "finite"
        assert r.direct_hits == []
        assert r.bound_certified

    def test_degenerate_membership(self, ctx, P):
        spec = make_spec(ctx, P, [ctx.zero(), ctx.zero()], [diag_generator(ctx)], n_max=12)
        r = analyze(spec)
        assert r.verdict == "finite" and r.degenerate
        assert r.bound == 1 and r.direct_hits == list(range(13))
        gen_off = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 0): 7})
        spec2 = make_spec(ctx, P, [ctx.zero(), ctx.zero()], [gen_off], n_max=12)
        r2 = analyze(spec2)
        assert r2.bound == 0 and r2.direct_hits == []

    def test_coordinate_at_its_fixed_point(self, ctx, P):
        # x2 starts at its fixed point: lambda_2 is exactly 0, so build_F
        # substitutes the constant alpha_2 and F = x2 vanishes identically
        gen = MultivariatePoly(ctx, 2, {(0, 1): 1})
        spec = make_spec(ctx, P, [ctx.integer(9), ctx.zero()], [gen], n_max=30)
        v = validate(spec)
        assert compute_lambdas(v)[1][1].is_exact_zero
        r = analyze(spec)
        assert r.verdict == "invariant_candidate"
        assert r.direct_hits == direct_orbit_scan(v, 30) == list(range(31))

    def test_reindexing_invariance(self, ctx, P):
        P2 = Polynomial(ctx, [0, 3, 2, 1])
        gen = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 1): -1})
        gen_swapped = MultivariatePoly(ctx, 2, {(0, 1): 1, (1, 0): -1})
        spec = SystemSpec(ctx, [P, P2], [ctx.zero(), ctx.zero()],
                          [ctx.integer(3), ctx.integer(9)], [gen], 32, 30)
        spec_swapped = SystemSpec(ctx, [P2, P], [ctx.zero(), ctx.zero()],
                                  [ctx.integer(9), ctx.integer(3)], [gen_swapped], 32, 30)
        r1, r2 = analyze(spec), analyze(spec_swapped)
        assert r1.verdict == r2.verdict
        assert r1.direct_hits == r2.direct_hits
        assert r1.reindexing == [0, 1] and r2.reindexing == [1, 0]

    def test_three_coordinates(self, ctx, P):
        P2 = Polynomial(ctx, [0, 3, 2, 1])
        P3 = Polynomial(ctx, [0, 3, 0, 0, 1])
        gen = MultivariatePoly(ctx, 3, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 1})
        spec = SystemSpec(
            ctx, [P, P2, P3], [ctx.zero()] * 3,
            [ctx.integer(3), ctx.integer(9), ctx.integer(27)], [gen], 32, 30,
        )
        r = analyze(spec)
        assert r.verdict in ("finite", "inconclusive")
        hits = direct_orbit_scan(validate(spec), 30)
        assert r.direct_hits == hits

    def test_generator_power_past_inf_bound_is_not_a_hit(self):
        # X1^78,536,549 at v(x1) = 14,000 has valuation just above INF_BOUND = 2^40:
        # read as an exact zero, it made every index a direct hit
        c = PadicContext(2, 40)
        P = Polynomial(c, [0, 2, 1])
        f = MultivariatePoly(c, 2, {(78_536_549, 0): 1})
        spec = SystemSpec(c, [P, P], [c.zero(), c.zero()], [c.integer(2**14000), c.integer(4)],
                          [f], 8, 5)
        with pytest.raises(PrecisionError, match="not below INF_BOUND"):
            f.evaluate(spec.start)
        report = analyze(spec)
        assert report.verdict == "inconclusive" and report.direct_hits == []
        assert report.detail.startswith("a generator term has valuation 1099511686000")

    def test_determinism(self, ctx, P):
        from padicdyn import render_report

        spec = make_spec(ctx, P, [ctx.integer(3), ctx.integer(9)], [diag_generator(ctx)], n_max=20)
        assert render_report(analyze(spec), spec) == render_report(analyze(spec), spec)
