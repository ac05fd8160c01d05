"""The check path's cut linearization against the full-precision reference.

When 16T <= N, ``validate`` builds E and L from G cut to 4T digits
(``checker._linearization_digits``).  Check (a) runs per map; checks (b) and
(c) are one check on the logs (``checker._cut_settles``), and when it fails
``validate`` returns the system validated again at full precision.  The
reference is the same check with the cut off: the private digit rule
monkeypatched to N, so every map is linearized by ``linearize``.  Every
rendered report must be the reference's byte for byte, each clause of the
checks must fire on some document or constructed series, and no stage after
``validate`` may change the linearizations it returned.

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
    TruncatedSeries,
    analyze,
    build_F,
    compute_lambdas,
    direct_orbit_scan,
    linearize,
    validate,
)
from padicdyn import _core, checker
from padicdyn.checker import ValidatedSystem
from padicdyn.linearize import Linearization, _cut
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


def is_cut(lin, spec):
    """Whether every coefficient of E and L above degree 1 has at most 4T digits."""
    return max(lin.exp_series._k[2:] + lin.log_series._k[2:], default=0) <= 4 * spec.truncation


def document(name):
    return (DATA / name).read_text(encoding="utf-8")


def with_generator(name, terms):
    """Document ``name`` with its one generator replaced by ``terms``, a list
    of (exponents, coefficient)."""
    doc = json.loads(document(name))
    doc["variety"] = [[{"exponents": e, "coefficient": c} for e, c in terms]]
    return json.dumps(doc)


def reference_pullbacks(text, monkeypatch):
    """The lambdas and F series of the check with the cut off."""
    with monkeypatch.context() as m:
        m.setattr(checker, "_linearization_digits", full_digits)
        ref = validate(load_problem(text))
        perm, lambdas = compute_lambdas(ref)
        return perm, lambdas, build_F(ref, perm[0], lambdas)


# -- the gate --------------------------------------------------------------


@pytest.mark.parametrize("t,n,digits", [(8, 128, 32), (8, 127, 127), (16, 128, 128), (1, 16, 4)])
def test_the_digit_rule_cuts_to_4t_only_when_16t_fits(t, n, digits):
    spec = SystemSpec(PadicContext(3, n), [], [], [], [], t)
    assert checker._linearization_digits(spec) == digits


def test_corpus_mixed_takes_the_full_path(monkeypatch):
    """N = 128 and T >= 16 on every slot: nothing is cut, and each distinct
    map is linearized once, by ``linearize``."""
    calls = []
    full = checker.linearize

    def counted(*args):
        calls.append(args)
        return full(*args)

    def refuse(*args):
        raise AssertionError("cut linearization on the full path")

    monkeypatch.setattr(checker, "linearize", counted)
    monkeypatch.setattr(checker, "_linearize_cut", refuse)
    for inst in workloads.generate("corpus_mixed", 0):
        del calls[:]
        validated = validate(load_problem(inst.problem_json()))
        assert len(calls) == len({id(lin) for lin in validated.linearizations})


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
        spec = load_problem(text)
        cut_any = cut_any or any(is_cut(lin, spec) for lin in validate(spec).linearizations)
        assert_matches_reference(text, monkeypatch)
    assert cut_any


def test_corpus_reports_match_reference_at_t8_n512(monkeypatch):
    instances = build_corpus(50, truncation=8, n_max=40)
    cut = 0
    for inst in instances:
        text = inst.problem_json(512)
        spec = load_problem(text)
        cut += any(is_cut(lin, spec) for lin in validate(spec).linearizations)
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


# -- each check fires, and validate returns the reference's linearizations --------


def test_check_a_linearizes_a_vanishing_coefficient_at_full_precision(monkeypatch):
    """l3.json: l_3 vanishes identically for X^3 + X^2 + 3X at p = 3, so the
    cut L holds O(3^31) there: that map is linearized by ``linearize``, and
    X^2 + 3X keeps its cut series."""
    text = document("l3.json")
    spec = load_problem(text)
    first, second = validate(spec).linearizations
    assert not checker._units_or_exact_zeros(
        checker._linearize_cut(first.base_poly, first.fixed_point, 8, 32).log_series)
    assert_full(first, spec)
    # c_1 = l_1 = 1 with N digits; every higher coefficient has at most 4T
    assert is_cut(second, spec)
    assert_matches_reference(text, monkeypatch)


def test_check_b_falls_back_when_the_lead_log_stops_short(monkeypatch):
    """deep.json: v(d_lead) = 10, so the lead log carries 72 digits at T = 8,
    more than 4T digits of L reach: the cut lead log stops at 41.  ``validate``
    returns both maps linearized at full precision, and lambda_2 keeps its 72
    digits."""
    text = document("deep.json")
    spec = load_problem(text)
    cut = checker._validate_at(spec, 32)
    assert all(is_cut(lin, spec) for lin in cut.linearizations)
    assert checker._logs(cut)[0].relative_precision == 41
    assert not checker._cut_settles(cut)
    validated = validate(spec)
    for lin in validated.linearizations:
        assert_full(lin, spec)
    perm, lambdas = compute_lambdas(validated)
    assert lambdas[1].relative_precision == 72
    reference = reference_pullbacks(text, monkeypatch)
    assert perm == reference[0]
    assert [triple(x) for x in lambdas] == [triple(x) for x in reference[1]]
    assert_matches_reference(text, monkeypatch)
    # a generator that reads only the lead composes nothing, so (c) holds and
    # only the lead log's error valuation sees the short lambda_2
    lead_only = with_generator("deep.json", [([1, 0], "1"), ([0, 0], "-3")])
    spec = load_problem(lead_only)
    assert not checker._cut_settles(checker._validate_at(spec, 32))
    assert not any(is_cut(lin, spec) for lin in validate(spec).linearizations)
    assert_matches_reference(lead_only, monkeypatch)


def test_without_check_b_deep_reports_fewer_digits(monkeypatch):
    """Why (b) is needed: with the check forced to pass, lambda_2 of
    deep.json prints 41 digits instead of 72."""
    spec = load_problem(document("deep.json"))
    monkeypatch.setattr(checker, "_cut_settles", lambda validated: True)
    assert analyze(spec).lambdas[1].relative_precision == 41


def test_check_c_falls_back_when_a_composed_series_has_too_few_digits(monkeypatch):
    """check_c.json: maps X^3 - 5X^2 + 3X and 2X^4 + 5X^3 - 4X^2 + 3X at p = 3
    from 486 and 729 at T = 8, N = 512.  Both pass (a) and the logs pass (b),
    and lambda_2 would carry 32 digits, but partial cancellation in the cut
    recursions leaves E_2 with coefficients of 26 and 31 digits and L_1 with
    one of 31.  ``validate`` returns full linearizations, whose F series are
    the reference's."""
    text = document("check_c.json")
    spec = load_problem(text)
    cut = checker._validate_at(spec, 32)
    assert [(L._v, L._k) for L in checker._logs(cut)] == [(5, 32), (6, 37)]
    assert sorted(cut.linearizations[1].exp_series._k[2:])[:2] == [26, 31]
    assert min(cut.linearizations[0].log_series._k[2:]) == 31
    assert not checker._cut_settles(cut)
    validated = validate(spec)
    for lin in validated.linearizations:
        assert_full(lin, spec)
    perm, lambdas = compute_lambdas(validated)
    Fs = build_F(validated, perm[0], lambdas)
    ref_F = reference_pullbacks(text, monkeypatch)[2]
    assert [series_triples(F) for F in Fs] == [series_triples(F) for F in ref_F]
    assert_matches_reference(text, monkeypatch)


def test_check_c_reads_only_composed_coordinates(monkeypatch):
    """(c) asks k_lead digits of E_i for each composed i, and of L_lead when
    there is one.  With a generator that reads only the lead X1, or with X2
    at its fixed point (lambda_2 = 0), nothing is composed, so check_c.json
    keeps E_2 cut; a generator that reads X2 away from its fixed point
    composes it, and the system falls back."""
    lead_only = with_generator("check_c.json", [([1, 0], "1"), ([0, 0], "-3")])
    at_alpha = json.loads(document("check_c.json"))
    at_alpha["start"][1] = "0"
    for text in (lead_only, json.dumps(at_alpha)):
        spec = load_problem(text)
        validated = validate(spec)
        assert max(validated.linearizations[1].exp_series._k[2:]) == 32
        assert all(is_cut(lin, spec) for lin in validated.linearizations)
        assert_matches_reference(text, monkeypatch)
    for terms in ([([0, 1], "1"), ([0, 0], "-3")], [([1, 0], "1"), ([0, 1], "-1")]):
        text = with_generator("check_c.json", terms)
        spec = load_problem(text)
        assert max(validate(spec).linearizations[1].exp_series._k[2:]) == 512
        assert_matches_reference(text, monkeypatch)


def test_a_precision_error_on_the_cut_path_falls_back(monkeypatch):
    """A PrecisionError from the cut path's logs makes ``validate`` return
    the system at full precision: l3.json, whose X^2 + 3X otherwise stays cut."""
    text = document("l3.json")
    spec = load_problem(text)
    assert is_cut(validate(spec).linearizations[1], spec)
    logs = checker._logs

    def refuse_cut(validated):
        if any(is_cut(lin, validated.spec) for lin in validated.linearizations):
            raise PrecisionError("refused on the cut path")
        return logs(validated)

    monkeypatch.setattr(checker, "_logs", refuse_cut)
    spec = load_problem(text)
    validated = validate(spec)
    for lin in validated.linearizations:
        assert_full(lin, spec)
    assert_matches_reference(text, monkeypatch)


def test_the_fallback_keeps_shared_linearizations_shared():
    """deep.json with X^2 + 3X in both coordinates: (b) fails, and the two
    coordinates still share one full linearization."""
    doc = json.loads(document("deep.json"))
    doc["polynomials"] = [["0", "3", "1"], ["0", "3", "1"]]
    spec = load_problem(json.dumps(doc))
    assert not checker._cut_settles(checker._validate_at(spec, 32))
    validated = validate(spec)
    assert validated.linearizations[0] is validated.linearizations[1]
    assert_full(validated.linearizations[0], spec)


@pytest.mark.parametrize("name", ["deep.json", "l3.json", "check_c.json"])
def test_later_stages_leave_the_linearizations_as_validate_returned_them(name):
    spec = load_problem(document(name))
    validated = validate(spec)
    lins = validated.linearizations
    each = list(lins)
    perm, lambdas = compute_lambdas(validated)
    build_F(validated, perm[0], lambdas)
    analyze(spec)
    assert validated.linearizations is lins
    assert all(a is b for a, b in zip(validated.linearizations, each))


def test_an_orbit_that_lands_on_its_fixed_points_is_refused_as_before(monkeypatch):
    """X^2 + 3X maps -3 to 0 exactly: the start is not degenerate, but every
    log at n0 = 1 is None, and the check leaves the refusal to
    ``compute_lambdas``."""
    text = with_generator("deep.json", [([1, 0], "1"), ([0, 1], "-1")])
    doc = json.loads(text)
    doc["polynomials"] = [["0", "3", "1"], ["0", "3", "1"]]
    doc["start"] = ["-3", "-3"]
    text = json.dumps(doc)
    assert checker._cut_settles(checker._validate_at(load_problem(text), 32))
    assert rendered(load_problem(text), monkeypatch, False) == (
        "ValidationError: all coordinates are at their fixed points"
    )
    assert_matches_reference(text, monkeypatch)


# -- each clause of the check on the logs, on constructed series -----------------


def with_series(validated, i, exp_series=None, log_series=None):
    """``validated`` with coordinate i's E or L replaced."""
    lins = list(validated.linearizations)
    lin = lins[i]
    lins[i] = Linearization(
        lin.base_poly, lin.fixed_point, lin.multiplier, lin.conjugate_poly,
        exp_series or lin.exp_series, log_series or lin.log_series,
        lin.convergence_radius_valuation, lin.isometry_radius_valuation,
    )
    return ValidatedSystem(validated.spec, lins, validated.multiplier, validated.n0,
                           validated.advanced_start, validated.degenerate)


def cut_above_degree_1(s, digits):
    """``s`` with every unit coefficient above degree 1 cut to ``digits`` digits."""
    p = s.ctx.prime
    k = [kk if j < 2 or not u else min(kk, digits) for j, (u, kk) in enumerate(zip(s._u, s._k))]
    return TruncatedSeries(s.ctx, s.order, list(s._v), [u % p**kk if u else 0 for u, kk in zip(s._u, k)],
                           k, s.tail)


def exact_zeros(s):
    """A series of exact zeros with the tail of ``s``."""
    n = s.order + 1
    return TruncatedSeries(s.ctx, s.order, [_core.INF_BOUND] * n, [0] * n, [0] * n, s.tail)


def test_each_clause_of_the_check_fails_alone():
    """check_c.json at full precision passes the check.  Changing one piece
    fails exactly one clause: a non-lead log with fewer digits than the lead
    log, logs that are zeros (at the lead's error valuation, so no other
    clause sees them), a composed E_i short of k_lead digits, or an L_lead
    short of them.  The cut system passes once E_2 and L_1 are the full ones."""
    spec = load_problem(document("check_c.json"))
    full = validate(spec)
    cut = checker._validate_at(spec, 32)
    assert checker._cut_settles(full)
    (full_1, full_2), (cut_1, cut_2) = full.linearizations, cut.linearizations
    short_log = with_series(full, 1, log_series=cut_above_degree_1(full_2.log_series, 4))
    assert checker._logs(short_log)[1].relative_precision < 32
    assert not checker._cut_settles(short_log)
    zero_logs = with_series(with_series(full, 0, log_series=exact_zeros(full_1.log_series)),
                            1, log_series=exact_zeros(full_2.log_series))
    assert [L._u for L in checker._logs(zero_logs)] == [0, 0]
    assert not checker._cut_settles(zero_logs)
    assert not checker._cut_settles(with_series(full, 1, exp_series=cut_2.exp_series))
    assert not checker._cut_settles(with_series(cut, 1, exp_series=full_2.exp_series))
    assert checker._cut_settles(
        with_series(with_series(cut, 1, exp_series=full_2.exp_series), 0, log_series=full_1.log_series))


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
