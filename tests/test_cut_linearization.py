"""The check path's cut linearization against the full-precision reference.

When 16T <= N, ``validate`` builds E and L from G cut to 4T digits
(``checker._linearization_digits``).  Check (a) in ``validate``, (b) in
``compute_lambdas`` and (c) in ``build_F`` fall back to full precision where
they fail.  The reference is the same check with the cut off: the private
digit rule monkeypatched to N, so every map is linearized by ``linearize``.
Every rendered report must be the reference's byte for byte, and each
check must fire on some document with a fallback that reproduces it.

The direct scan's collapse test, which decides a unit z against a unit alpha
of the same valuation by one sum instead of ``tr_add``, is checked at the end.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import (
    MultivariatePoly,
    PadicContext,
    PadicNumber,
    PrecisionError,
    Polynomial,
    SystemSpec,
    analyze,
    build_F,
    compute_lambdas,
    direct_orbit_scan,
    linearize,
    validate,
)
from padicdyn import _core, checker
from padicdyn.linearize import _cut
from padicdyn.problemfile import load_problem, render_report

from corpus import build_corpus
from test_triple_paths import reference_direct_orbit_scan, scan_outcome

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "checkbench"))
import workloads  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"


def full_digits(spec):
    return spec.ctx.working_precision


def rendered(spec, monkeypatch, reference):
    """The report of ``analyze`` as ``padicdyn check`` prints it, or the
    refusal's type and message; with the cut off when ``reference``."""
    with monkeypatch.context() as m:
        if reference:
            m.setattr(checker, "_linearization_digits", full_digits)
        try:
            return render_report(analyze(spec), spec)
        except (ValueError, PrecisionError) as exc:  # ValidationError is a ValueError
            return f"{type(exc).__name__}: {exc}"


def assert_matches_reference(text, monkeypatch):
    spec = load_problem(text)
    assert rendered(spec, monkeypatch, False) == rendered(load_problem(text), monkeypatch, True)


def series_triples(s):
    return s.order, list(s._v), list(s._u), list(s._k), s.tail


def triple(x):
    return x._v, x._u, x._k


def assert_full(lin, spec):
    """``lin`` is ``linearize``'s, triple for triple."""
    ref = linearize(lin.base_poly, lin.fixed_point, spec.truncation)
    assert series_triples(lin.exp_series) == series_triples(ref.exp_series)
    assert series_triples(lin.log_series) == series_triples(ref.log_series)
    assert lin.isometry_radius_valuation == ref.isometry_radius_valuation
    assert lin.convergence_radius_valuation == ref.convergence_radius_valuation


def document(name):
    return (DATA / name).read_text(encoding="utf-8")


# -- the gate --------------------------------------------------------------


@pytest.mark.parametrize("t,n,digits", [(8, 128, 32), (8, 127, 127), (16, 128, 128), (1, 16, 4)])
def test_the_digit_rule_cuts_to_4t_only_when_16t_fits(t, n, digits):
    spec = SystemSpec(PadicContext(3, n), [], [], [], [], t)
    assert checker._linearization_digits(spec) == digits


def test_corpus_mixed_takes_the_full_path():
    """N = 128 and T >= 16 on every slot: nothing is cut."""
    for inst in workloads.generate("corpus_mixed", 0):
        validated = validate(load_problem(inst.problem_json()))
        assert validated._cut == ()


def test_the_cut_keeps_every_valuation_and_cuts_units_only():
    ctx = PadicContext(5, 64)
    G = Polynomial(ctx, [0, ctx.from_rational(5, 7), ctx.zero(9), PadicNumber(ctx, -1, 3, 4),
                         ctx.from_rational(1, 3)])
    H = _cut(G, 8)
    for c, h in zip(G.coefficients, H.coefficients):
        assert triple(h) == ((c._v, c._u % 5**8, min(c._k, 8)) if c._u else triple(c))


# -- reports equal the reference's ---------------------------------------------


@pytest.mark.parametrize("seed", range(16))
def test_scan_long_reports_match_reference(seed, monkeypatch):
    cut_any = False
    for inst in workloads.generate("scan_long", seed):
        text = inst.problem_json()
        cut_any = cut_any or bool(validate(load_problem(text))._cut)
        assert_matches_reference(text, monkeypatch)
    assert cut_any


def test_corpus_reports_match_reference_at_t8_n512(monkeypatch):
    instances = build_corpus(50, truncation=8, n_max=40)
    cut = 0
    for inst in instances:
        text = inst.problem_json(512)
        cut += bool(validate(load_problem(text))._cut)
        assert_matches_reference(text, monkeypatch)
    assert cut >= 40


@st.composite
def systems(draw):
    """Maps with multiplier p at the fixed point 0, starts p^v times a unit,
    generators X_i - X_j or X_i - c, and N >= 16T."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    t = draw(st.integers(1, 8))
    n = 16 * t * draw(st.sampled_from([1, 2, 4]))
    g = draw(st.integers(2, 3))
    small = st.integers(-9, 9)
    maps = [["0", str(p)] + [str(draw(small)) for _ in range(draw(st.integers(0, 2)))]
            + [str(draw(st.sampled_from([1, -1, 2, p])))] for _ in range(g)]
    start = [str(draw(st.integers(1, p - 1)) * p ** draw(st.integers(1, 9))) for _ in range(g)]
    i = draw(st.integers(0, g - 1))
    if draw(st.booleans()):
        j = (i + draw(st.integers(1, g - 1))) % g
        other = {"exponents": [int(k == j) for k in range(g)], "coefficient": "-1"}
    else:
        other = {"exponents": [0] * g, "coefficient": str(-draw(st.integers(1, 50)) * p)}
    gen = [{"exponents": [int(k == i) for k in range(g)], "coefficient": "1"}, other]
    return json.dumps({"prime": p, "precision": n, "truncation": t, "max_iterations": 20,
                       "polynomials": maps, "fixed_points": ["0"] * g, "start": start,
                       "variety": [gen]})


@settings(max_examples=60, deadline=None)
@given(systems())
def test_hypothesis_reports_match_reference(text):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_reference(text, monkeypatch)


# -- each check fires, and its fallback is the reference -------------------------


def test_check_a_linearizes_a_vanishing_coefficient_at_full_precision(monkeypatch):
    """l3.json: l_3 vanishes identically for X^3 + X^2 + 3X at p = 3, so the
    cut L holds O(3^31) there: that map is linearized by ``linearize``, and
    X^2 + 3X keeps its cut series."""
    text = document("l3.json")
    spec = load_problem(text)
    validated = validate(spec)
    assert validated._cut == (1,)
    first, second = validated.linearizations
    assert not checker._units_or_exact_zeros(
        checker._linearize_cut(first.base_poly, first.fixed_point, 8, 32).log_series)
    assert_full(first, spec)
    # c_1 = l_1 = 1 with N digits; every higher coefficient has at most 4T
    assert max(second.exp_series._k[2:]) <= 32 and max(second.log_series._k[2:]) <= 32
    assert_matches_reference(text, monkeypatch)


def test_check_b_falls_back_when_the_lead_log_stops_short(monkeypatch):
    """deep.json: v(d_lead) = 10, so the lead log carries 72 digits at T = 8,
    more than 4T digits of L reach.  The fallback relinearizes both maps and
    lambda_2 keeps its 72 digits."""
    text = document("deep.json")
    spec = load_problem(text)
    validated = validate(spec)
    assert validated._cut == (0, 1)
    assert not checker._logs_settle(validated, checker._logs(validated))
    perm, lambdas = compute_lambdas(validated)
    assert validated._cut == ()
    for lin in validated.linearizations:
        assert_full(lin, spec)
    assert lambdas[1].relative_precision == 72
    with monkeypatch.context() as m:
        m.setattr(checker, "_linearization_digits", full_digits)
        reference = compute_lambdas(validate(load_problem(text)))
    assert perm == reference[0]
    assert [triple(x) for x in lambdas] == [triple(x) for x in reference[1]]
    assert_matches_reference(text, monkeypatch)


def test_without_check_b_deep_reports_fewer_digits(monkeypatch):
    """Why (b) is needed: with it forced to pass, lambda_2 of deep.json
    prints 41 digits instead of 72."""
    spec = load_problem(document("deep.json"))
    monkeypatch.setattr(checker, "_logs_settle", lambda validated, logs: True)
    assert analyze(spec).lambdas[1].relative_precision == 41


# maps X^3 - 5X^2 + 3X and 2X^4 + 5X^3 - 4X^2 + 3X at p = 3 from 486 and 729
# at T = 8, N = 512: both pass (a) and the logs pass (b), and lambda_2 carries
# 32 digits, but partial cancellation in the cut recursions leaves E_2 with
# coefficients of 26 and 31 digits and L_1 with one of 31
CHECK_C = json.dumps({
    "prime": 3, "precision": 512, "truncation": 8, "max_iterations": 50,
    "polynomials": [["0", "3", "-5", "1"], ["0", "3", "-4", "5", "2"]],
    "fixed_points": ["0", "0"], "start": ["486", "729"],
    "variety": [[{"exponents": [1, 0], "coefficient": "1"},
                 {"exponents": [0, 1], "coefficient": "-1"}]],
})


def test_check_c_falls_back_when_a_composed_series_has_too_few_digits(monkeypatch):
    """(c) fails after (b) held, so ``build_F`` relinearizes both maps and
    returns the reference's F series."""
    spec = load_problem(CHECK_C)
    validated = validate(spec)
    assert validated._cut == (0, 1)
    perm, lambdas = compute_lambdas(validated)
    assert validated._cut == (0, 1)  # (b) held
    assert not checker._series_settle(validated, perm[0], lambdas, {0, 1})
    shared = build_F(validated, perm[0], lambdas)
    assert validated._cut == ()
    for lin in validated.linearizations:
        assert_full(lin, spec)
    with monkeypatch.context() as m:
        m.setattr(checker, "_linearization_digits", full_digits)
        ref = validate(load_problem(CHECK_C))
        perm_ref, lambdas_ref = compute_lambdas(ref)
        ref_F = build_F(ref, perm_ref[0], lambdas_ref)
    assert [series_triples(F) for F in shared] == [series_triples(F) for F in ref_F]
    assert_matches_reference(CHECK_C, monkeypatch)


def test_check_c_reads_only_composed_coordinates():
    """(c) asks k(lambda_i) digits of E_i for each composed i and the greatest
    of them of L_lead; a coordinate at lambda = 0 or unread asks nothing."""
    validated = validate(load_problem(CHECK_C))
    ctx = validated.spec.ctx
    one, wide, narrow = ctx.one(), PadicNumber(ctx, 0, 1, 512), PadicNumber(ctx, 0, 1, 1)
    assert max(validated.linearizations[1].exp_series._k[2:]) < 512
    assert not checker._series_settle(validated, 0, [one, wide], {0, 1})
    assert checker._series_settle(validated, 0, [one, wide], {0})
    assert checker._series_settle(validated, 0, [one, ctx.zero()], {0, 1})
    assert checker._series_settle(validated, 0, [one, narrow], {0, 1})


def test_a_precision_error_on_the_cut_path_falls_back(monkeypatch):
    """A PrecisionError from the cut series relinearizes and retries at full
    precision: the F series are the reference's."""
    spec = load_problem(document("l3.json"))
    validated = validate(spec)
    perm, lambdas = compute_lambdas(validated)
    pullbacks = checker._pullbacks

    def refuse_cut(v, *args):
        if v._cut:
            raise PrecisionError("refused on the cut path")
        return pullbacks(v, *args)

    monkeypatch.setattr(checker, "_pullbacks", refuse_cut)
    Fs = build_F(validated, perm[0], lambdas)
    assert validated._cut == ()
    monkeypatch.undo()
    with monkeypatch.context() as m:
        m.setattr(checker, "_linearization_digits", full_digits)
        ref = validate(load_problem(document("l3.json")))
        perm_ref, lambdas_ref = compute_lambdas(ref)
        ref_F = build_F(ref, perm_ref[0], lambdas_ref)
    assert [series_triples(F) for F in Fs] == [series_triples(F) for F in ref_F]


def test_the_fallback_keeps_shared_linearizations_shared():
    """deep.json with X^2 + 3X in both coordinates: (b) fails, and the two
    coordinates still share one full linearization."""
    doc = json.loads(document("deep.json"))
    doc["polynomials"] = [["0", "3", "1"], ["0", "3", "1"]]
    validated = validate(load_problem(json.dumps(doc)))
    assert validated._cut == (0, 1)
    assert validated.linearizations[0] is validated.linearizations[1]
    compute_lambdas(validated)
    assert validated._cut == ()
    assert validated.linearizations[0] is validated.linearizations[1]
    assert_full(validated.linearizations[0], validated.spec)


# -- the collapse test ---------------------------------------------------------


def test_collapse_at_a_unit_fixed_point_needs_no_tr_add(monkeypatch):
    """X^2 + X - 1 fixes 1 with multiplier 3: z_n and -1 are units of valuation
    0 at every step, so the collapse test is one sum.  X1 - 3 is decided from
    the valuations, so the scan calls ``tr_add`` nowhere; the failing index
    and message are the reference's."""
    ctx = PadicContext(3, 40)
    P = Polynomial(ctx, [-1, 1, 1])
    gen = MultivariatePoly(ctx, 2, {(1, 0): 1, (0, 0): -3})
    spec = SystemSpec(ctx, [P, P], [ctx.one(), ctx.one()],
                      [ctx.integer(4), ctx.integer(10)], [gen], 4, 60)
    validated = validate(spec)
    calls = []
    tr_add = _core.tr_add

    def counted(*args):
        calls.append(args)
        return tr_add(*args)

    monkeypatch.setattr(_core, "tr_add", counted)
    new = scan_outcome(direct_orbit_scan, validated, 60)
    scan_calls = len(calls)
    monkeypatch.undo()
    assert new == scan_outcome(reference_direct_orbit_scan, validated, 60)
    assert new[0] == "collapsed"
    assert scan_calls == 0
