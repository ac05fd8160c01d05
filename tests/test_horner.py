"""``_core.horner`` returns exactly the triples of the loops it replaced.

``Polynomial.eval_triple`` and ``TruncatedSeries.evaluate`` both run
``_core.horner``.  Their earlier bodies are kept below: ``reference_horner``
(the Horner loop of ``eval_triple``, with its two skips) and ``plain_horner``
(the loop of ``evaluate``, one ``tr_mul`` and one ``tr_add`` per step).
``horner`` must give their triples for every prime, coefficient form (short,
-1 and -2, long), zero kind, digit count and valuation gap, and on every step
of the long orbits of the ``scan_long`` benchmark slots.
"""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import PadicContext, PadicNumber, Polynomial, _core
from padicdyn.problemfile import load_problem
from padicdyn.series import TruncatedSeries

from test_kernel import random_triple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "checkbench"))
import workloads  # noqa: E402

INF = _core.INF_BOUND
PRIMES = [2, 3, 5, 7]


def reference_horner(p, top, below, zv, zu, zk):
    """Polynomial.eval_triple before the kernel's horner: the skips, no fusing."""
    v, u, k = top
    for cv, cu, ck in below:
        if u == 1 and v == 0 and (zk <= k if zu else zv <= INF):
            v, u, k = zv, zu, zk
        else:
            v, u, k = _core.tr_mul(p, v, u, k, zv, zu, zk)
        if cu or cv < INF or v + k > INF:
            v, u, k = _core.tr_add(p, v, u, k, cv, cu, ck)
    return v, u, k


def plain_horner(p, top, below, zv, zu, zk):
    """TruncatedSeries.evaluate's loop before the kernel's horner."""
    v, u, k = top
    for cv, cu, ck in below:
        v, u, k = _core.tr_mul(p, v, u, k, zv, zu, zk)
        v, u, k = _core.tr_add(p, v, u, k, cv, cu, ck)
    return v, u, k


def unit(p, k, form, rng):
    """A unit modulo p**k: short, -1, -2 or long (random over all k digits)."""
    pk = p**k
    if form == "short":
        u = rng.randrange(1, min(pk, p * p))
    elif form in ("-1", "-2"):
        u = pk + int(form)
    else:
        u = rng.randrange(1, pk)
    while u % p == 0:  # -2 at p = 2, or a random multiple of p
        u = (u + 1) % pk or 1
    return u


def coefficient(p, rng, zv, kmax):
    """A coefficient triple: a zero, or a unit whose valuation sits a gap of
    1 to past its k below what a product by z reaches."""
    kind = rng.random()
    if kind < 0.1:
        return (INF, 0, 0)
    if kind < 0.2:
        return (rng.randint(-5, zv + 30), 0, 0)
    k = rng.randint(1, kmax)
    form = rng.choice(("short", "-1", "-2", "long"))
    v = zv + rng.randint(-3, 3) - rng.randint(1, k + 3)
    return (v, unit(p, k, form, rng), k)


@settings(max_examples=400, deadline=None)
@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 2**32 - 1),
       degree=st.integers(1, 6), kmax=st.integers(1, 40))
def test_horner_matches_the_loops_it_replaced(p, seed, degree, kmax):
    rng = random.Random(seed)
    z_kind = rng.random()
    zv = rng.randint(-2, 12)
    if z_kind < 0.1:
        z = (INF, 0, 0)
    elif z_kind < 0.2:
        z = (zv, 0, 0)
    else:
        zk = rng.randint(1, kmax + 4)  # k above the coefficients' digit counts too
        z = (zv, unit(p, zk, rng.choice(("short", "-1", "long", "long")), rng), zk)
    if rng.random() < 0.5:
        top = (0, 1, rng.randint(1, kmax + 4))  # an exact one leaves z as the accumulator
    else:
        top = coefficient(p, rng, zv, kmax)
    below = [coefficient(p, rng, zv, kmax) for _ in range(degree)]
    got = _core.horner(p, top, below, *z)
    assert got == reference_horner(p, top, below, *z), (p, top, below, z)
    assert got == plain_horner(p, top, below, *z), (p, top, below, z)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
def test_polynomial_values_with_k_above_the_working_precision(p, seed, n):
    """Polynomial.__call__ and eval_triple, with coefficients and points that
    carry up to N + 6 digits, give reference_horner's triples."""
    rng = random.Random(seed)
    ctx = PadicContext(p, n)
    zv = rng.randint(0, 8)
    coeffs = [coefficient(p, rng, zv, n + 6) for _ in range(rng.randint(1, 4))]
    coeffs.append((rng.randint(-2, 2), unit(p, rng.randint(1, n + 6), "short", rng), n + 6))
    P = Polynomial(ctx, [PadicNumber(ctx, *c) for c in coeffs])
    zk = rng.randint(1, n + 6)
    z = (zv, unit(p, zk, rng.choice(("short", "-1", "long")), rng), zk)
    want = reference_horner(p, P._top, P._below, *z)
    got = P(PadicNumber(ctx, *z))
    assert P.eval_triple(*z) == (got._v, got._u, got._k) == want


@pytest.mark.parametrize("p", PRIMES)
def test_every_gap_and_coefficient_form(p):
    """X^2 + c X + c0 and X^3 + c X^2 + b X at z with valuation 6 and k digits,
    with c exactly d digits below z for d = 1 up to past k."""
    rng = random.Random(7700 + p)
    for k in (1, 2, 5, 12):
        zv = 6
        for _ in range(4):
            z = (zv, unit(p, k, "long", rng), k)
            for d in range(1, k + 4):
                for form in ("short", "-1", "-2", "long"):
                    for kc in (k - 1, k, k + 3):
                        if kc < 1:
                            continue
                        c = (zv - d, unit(p, kc, form, rng), kc)
                        for c0 in ((INF, 0, 0), (zv - d - 1, 0, 0), (0, unit(p, kc, form, rng), kc)):
                            for top, below in (((0, 1, k), [c, c0]),
                                               ((0, 1, k + 2), [c, (1, 1, kc), c0]),
                                               ((0, 1, k), [(0, unit(p, kc, form, rng), kc), c, c0])):
                                got = _core.horner(p, top, below, *z)
                                want = reference_horner(p, top, below, *z)
                                assert got == want, (p, z, top, below)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 2**32 - 1), t=st.integers(0, 8))
def test_series_evaluate_is_the_plain_loop(p, seed, t):
    rng = random.Random(seed)
    ctx = PadicContext(p, 24)
    coeffs = [random_triple(rng, p, 24) for _ in range(t + 1)]
    vals, units, precs = (list(x) for x in zip(*coeffs))
    series = TruncatedSeries(ctx, t, vals, units, precs)  # a polynomial: no tail
    z = random_triple(rng, p, 24)
    got = series.evaluate(PadicNumber(ctx, *z))
    want = plain_horner(p, coeffs[t], coeffs[t - 1::-1] if t else [], *z)
    assert (got._v, got._u, got._k) == want


def test_horner_reaches_no_public_kernel_name(monkeypatch):
    """X^2 + 3X, X^3 - X^2 + 3X, X^3 - 2X^2 + 3X and X^2 + 3X + 1 near 0 give
    reference_horner's triples while the public tr_* names, which a tracing
    wrapper may replace, refuse every call: horner reaches only _mul and _add."""

    def refuse(*args):
        raise AssertionError("horner called a public kernel function")

    ctx = PadicContext(3, 64)
    maps = [Polynomial(ctx, c) for c in ([0, 3, 1], [0, 3, -1, 1], [0, 3, -2, 1], [1, 3, 1])]
    z = (5, 2 + 3 * 7, 60)
    want = [reference_horner(3, P._top, P._below, *z) for P in maps]
    for name in ("tr_mul", "tr_add", "tr_neg", "tr_div"):
        monkeypatch.setattr(_core, name, refuse)
    for P, w in zip(maps, want):
        assert P.eval_triple(*z) == w, P.coefficients


def test_powers_stay_within_operand_precision():
    # a valuation spread of 10**4 must not build powers past the largest k
    p = 11
    _core._POW_CACHE.pop(p, None)
    k_max = 6
    top = (0, 1, k_max)
    below = [(-10_000, 7, 2), (10_000, 5, k_max), (0, p**k_max - 1, k_max), (INF, 0, 0)]
    for z in ((3, 4, 5), (10_000, 2, k_max), (-10_000, 3, 4)):
        assert _core.horner(p, top, below, *z) == reference_horner(p, top, below, *z)
    assert len(_core._POW_CACHE[p]) <= k_max + 1


@pytest.mark.parametrize("p", [13, 17])
def test_horner_on_a_cold_power_cache(p):
    # the first Horner step of a process may need powers nothing has built yet
    top, below, z = (0, 1, 60), [(1, 1, 60), (0, p**50 - 2, 50), (INF, 0, 0)], (5, 7, 60)
    _core._POW_CACHE.pop(p, None)
    got = _core.horner(p, top, below, *z)
    assert got == reference_horner(p, top, below, *z)


@pytest.mark.parametrize("seed", [0, 1])
def test_scan_long_orbits_step_for_step(seed):
    """Every orbit step of every scan_long slot, up to its scan cap."""
    steps = 0
    for inst in workloads.generate("scan_long", seed):
        spec = load_problem(inst.problem_json())
        p = spec.ctx.prime
        for P, x in zip(spec.maps, spec.start):
            z = (x._v, x._u, x._k)
            for _ in range(spec.max_direct_iterations):
                want = reference_horner(p, P._top, P._below, *z)
                assert P.eval_triple(*z) == want, (inst.name, steps)
                z = want
                steps += 1
                if not z[1]:
                    break
    assert steps > 10_000
