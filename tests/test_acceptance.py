"""Acceptance suite: ten criteria, each printed as one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import random
import time

import pytest

from padicdyn import (
    PadicContext,
    Polynomial,
    TruncatedSeries,
    build_F,
    compute_lambdas,
    direct_orbit_scan,
    find_fixed_points,
    linearize,
    mutual_inversion_residual,
    validate,
    verify_functional_equation,
)
from padicdyn.cli import main as cli_main

from corpus import build_corpus

PRIMES = (3, 5, 7)
ESCALATED_PRECISION = 1100


def _random_attracting_poly(ctx, rng):
    """v(a1) = 1 exactly, integral higher coefficients, fixed point 0."""
    p = ctx.prime
    deg = rng.randint(2, 5)
    a1 = p * _unit(rng, p)
    coeffs = [0, a1] + [rng.randint(-9, 9) for _ in range(deg - 2)] + [rng.randint(1, 9)]
    return Polynomial(ctx, coeffs)


def _unit(rng, p):
    u = rng.randint(1, 4 * p)
    while u % p == 0:
        u = rng.randint(1, 4 * p)
    return u


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.fixture(scope="module")
def koenigs_runs():
    """Criterion 2 workload: 20 linearizations per prime at T=48, N=128."""
    rng = random.Random(481)
    runs = []
    t0 = time.monotonic()
    for p in PRIMES:
        ctx = PadicContext(p, 128)
        for _ in range(20):
            P = _random_attracting_poly(ctx, rng)
            lin = linearize(P, ctx.zero(), 48)
            residual = verify_functional_equation(lin)
            runs.append((P, lin, residual))
    elapsed = time.monotonic() - t0
    return runs, elapsed


@pytest.fixture(scope="module")
def corpus_with_reports():
    from padicdyn import analyze

    corpus = build_corpus(50)
    pairs = []
    for inst in corpus:
        spec = inst.build(128)
        pairs.append((inst, spec, analyze(spec)))
    return pairs


def test_criterion_01_norm_identity_suite():
    rng = random.Random(101)
    t0 = time.monotonic()
    checked = 0
    for p in PRIMES:
        ctx = PadicContext(p, 128)
        one = ctx.one()
        for _ in range(300):
            v = rng.randint(2, 6)
            beta = one + ctx.integer(_unit(rng, p) * p**v)
            n = rng.randint(1, 10**5)
            assert (beta**n - one).valuation == (beta - one).valuation + _vp(n, p)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 900
    assert elapsed < 5.0, f"norm-identity suite took {elapsed:.2f}s >= 5s"
    print(f"\nACCEPTANCE 1: PASS - 900/900 norm identities hold ({elapsed:.2f}s < 5s)")


def test_criterion_02_functional_equation(koenigs_runs):
    runs, elapsed = koenigs_runs
    assert len(runs) == 60
    for P, lin, residual in runs:
        assert residual.is_certified_zero_through_order(), P.coefficients
    assert elapsed < 30.0, f"criterion-2 workload took {elapsed:.2f}s >= 30s"
    print(
        f"\nACCEPTANCE 2: PASS - 60/60 functional-equation residuals certified"
        f" zero at T=48, N=128 ({elapsed:.2f}s < 30s)"
    )


def test_criterion_03_coefficient_bound(koenigs_runs):
    runs, _ = koenigs_runs
    checked = 0
    for _, lin, _ in runs:
        s = lin.multiplier.valuation + 1  # v(a1) = 1 and integral coefficients
        for n in range(2, lin.exp_series.order + 1):
            c = lin.exp_series.coefficient(n)
            if c.is_certified_nonzero:
                assert c.valuation >= -n * s, (n, c.valuation)
            else:
                assert c.valuation_lower_bound >= -n * s
            checked += 1
    print(f"\nACCEPTANCE 3: PASS - v(c_n) >= -n*(v(a1)+1) for {checked} coefficients")


def test_criterion_04_inverse_and_isometry(koenigs_runs):
    runs, _ = koenigs_runs
    rng = random.Random(404)
    for _, lin, _ in runs:
        assert mutual_inversion_residual(lin).is_certified_zero_through_order()
    samples = 0
    while samples < 500:
        _, lin, _ = runs[samples % len(runs)]
        ctx = lin.base_poly.ctx
        p = ctx.prime
        m0 = lin.isometry_radius_valuation
        v = rng.randint(m0, m0 + 8)
        z = ctx.integer(_unit(rng, p) * p**v)
        w = lin.log_series.evaluate(z)
        assert w.valuation == v
        back = lin.exp_series.evaluate(w)
        assert back.valuation == v
        samples += 1
    print(
        "\nACCEPTANCE 4: PASS - compose(log, exp) = X in all 60 runs;"
        f" {samples} sampled points preserve valuation under both maps"
    )


def test_criterion_05_conjugation_identity():
    rng = random.Random(505)
    pairs = 0
    while pairs < 50:
        p = PRIMES[pairs % len(PRIMES)]
        ctx = PadicContext(p, 128)
        P = _random_attracting_poly(ctx, rng)
        lin = linearize(P, ctx.zero(), 32)
        m0 = lin.isometry_radius_valuation
        z = ctx.integer(_unit(rng, p) * p ** rng.randint(m0, m0 + 3))
        w = lin.log_of(z)
        cur = z
        for n in range(1, 21):
            cur = P(cur)
            lhs = lin.log_of(cur)
            rhs = lin.multiplier**n * w
            assert (lhs - rhs).is_zero_to_precision, (P.coefficients, n)
        pairs += 1
    print(
        "\nACCEPTANCE 5: PASS - log(P^n(z)) = a1^n log(z) for n <= 20 on"
        f" {pairs} random (P, z) pairs"
    )


def test_criterion_06_oracle_equivalence(corpus_with_reports):
    disagreements = 0
    comparisons = 0
    for inst, spec, report in corpus_with_reports:
        assert report.verdict == inst.expected, (inst.name, report.verdict, report.detail)
        v = validate(spec)
        hits = set(direct_orbit_scan(v, 100))
        assert sorted(hits) == report.direct_hits
        if v.degenerate:
            continue
        perm, lams = compute_lambdas(v)
        lead = perm[0]
        lead_map = spec.maps[lead]
        alpha = v.linearizations[lead].fixed_point
        for F in build_F(v, lead, lams):
            z = v.advanced_start[lead]
            for n in range(v.n0, 101):
                val = F.evaluate(z - alpha)
                f_zero = val.is_zero_to_precision
                if f_zero != (n in hits):
                    disagreements += 1
                comparisons += 1
                z = lead_map(z)
    assert disagreements == 0
    print(
        f"\nACCEPTANCE 6: PASS - F-series and direct scan agree on {comparisons}"
        " (generator, index) evaluations across 50 instances, 0 disagreements"
    )


def test_criterion_07_bound_soundness(corpus_with_reports):
    escalated = 0
    for inst, spec, report in corpus_with_reports:
        if report.verdict != "finite" or not report.bound_certified or report.degenerate:
            continue
        high = inst.build(ESCALATED_PRECISION)
        v = validate(high)
        assert v.n0 == report.n0
        hits = direct_orbit_scan(v, 1000)
        late = [n for n in hits if n >= v.n0]
        assert len(late) <= report.bound, (inst.name, late, report.bound)
        escalated += 1
    assert escalated >= 20
    print(
        f"\nACCEPTANCE 7: PASS - {escalated} certified Finite instances scanned"
        " to N_max=1000 at elevated precision; no bound exceeded"
    )


def test_criterion_08_newton_polygon_counting():
    rng = random.Random(808)
    ctx = PadicContext(3, 96)
    checked = 0
    for _ in range(200):
        deg = rng.randint(1, 12)
        vals = [rng.randint(0, 5) for _ in range(deg)]
        roots = []
        for v in vals:
            roots.append(rng.choice([1, -1]) * _unit(rng, 3) * 3**v)
        acc = [1]
        for r in roots:
            nxt = [0] * (len(acc) + 1)
            for i, c in enumerate(acc):
                nxt[i] += -r * c
                nxt[i + 1] += c
            acc = nxt
        f = TruncatedSeries.from_coefficients(ctx, acc)
        for m in range(6):
            zc = f.count_zeros_in_ball(m)
            expected = sum(1 for v in vals if v >= m)
            assert zc.certified, zc.reason
            assert zc.count == expected, (roots, m)
            checked += 1
    print(
        f"\nACCEPTANCE 8: PASS - {checked} ball counts on 200 root-constructed"
        " polynomials (deg <= 12, m in 0..5) all match"
    )


def test_criterion_09_hensel_fixed_points():
    rng = random.Random(909)
    checked = 0
    for i in range(100):
        p = PRIMES[i % len(PRIMES)]
        ctx = PadicContext(p, 128)
        n_prec = ctx.working_precision
        coeffs = [rng.randint(-30, 30) for _ in range(3)] + [rng.randint(1, 30)]
        P = Polynomial(ctx, coeffs)
        scan = find_fixed_points(P)
        for fp in scan.points:
            r = P(fp.point) - fp.point
            assert r.is_zero_to_precision and r.zero_bound >= n_prec - 8
            m = fp.multiplier
            if m.is_zero_to_precision:
                assert fp.classification == "superattracting"
            elif m.valuation >= 1:
                assert fp.classification == "attracting"
            else:
                assert fp.classification == "indifferent"
            checked += 1
    # the two analytic fixed points of pX + X^2: 0 and 1 - p
    for p in PRIMES:
        ctx = PadicContext(p, 128)
        scan = find_fixed_points(Polynomial(ctx, [0, p, 1]))
        assert len(scan.points) == 2 and not scan.unresolved_residues
        for fp in scan.points:
            if fp.classification == "attracting":
                assert fp.point.is_zero_to_precision
            else:
                assert (fp.point - ctx.integer(1 - p)).is_zero_to_precision
    print(
        f"\nACCEPTANCE 9: PASS - {checked} Hensel-lifted fixed points at"
        " v(P(a)-a) >= N-8 with matching classifications; pX+X^2 roots recovered"
    )


def test_criterion_10_cli_determinism(corpus_with_reports, tmp_path):
    identical = 0
    for inst, _, _ in corpus_with_reports:
        problem = tmp_path / f"{inst.name}.json"
        problem.write_text(inst.problem_json(128))
        out1 = tmp_path / f"{inst.name}.r1.json"
        out2 = tmp_path / f"{inst.name}.r2.json"
        code1 = cli_main(["check", str(problem), "--report", str(out1)])
        code2 = cli_main(["check", str(problem), "--report", str(out2)])
        assert code1 == code2
        assert code1 in (0, 1, 2)
        assert out1.read_bytes() == out2.read_bytes()
        identical += 1
    assert identical == 50
    print(
        "\nACCEPTANCE 10: PASS - CLI reports byte-identical across two runs on"
        f" all {identical} corpus instances"
    )
