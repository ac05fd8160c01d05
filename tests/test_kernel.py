"""Soundness and bit-identity of the coefficient kernel.

A triple ``(v, u, k)`` stands for a ball of p-adic numbers: ``p**v * (u +
O(p**k))`` when ``u != 0``, ``O(p**v)`` when ``u == 0``, and ``{0}`` for an
exact zero.  For random operands, and random exact rationals drawn from their
balls, the exact result of every kernel operation must lie in the ball of the
triple the kernel returns.  Every certificate downstream assumes this.

The closed-form convolution behind ``series_mul``, ``conv_at`` and ``dot``
must also return exactly the triples of the schoolbook loops kept below, which
add the ``tr_mul`` products one by one with ``tr_add``, and ``tr_add`` exactly
those of its earlier body, kept below as ``reference_tr_add``.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicdyn
from padicdyn import _core
from padicdyn import _core as arith

INF = _core.INF_BOUND
PRIMES = [2, 3, 5, 7]


def random_triple(rng, p, cap):
    kind = rng.random()
    if kind < 0.15:
        return (INF, 0, 0)  # exact zero
    if kind < 0.3:
        return (rng.randint(-10, 40), 0, 0)  # inexact zero
    k = rng.randint(1, cap)
    u = rng.randrange(1, p**k)
    while u % p == 0:
        u = rng.randrange(1, p**k)
    return (rng.randint(-10, 10), u, k)


def cancelling_partner(rng, p, triple):
    """A unit triple agreeing with -triple to a random number of digits."""
    v, u, k = triple
    k2 = rng.randint(1, k)
    return (v, -u % p**k2, k2)


def sample(rng, p, triple):
    """A random exact rational inside the ball of ``triple``."""
    v, u, k = triple
    if u == 0 and v >= INF:
        return Fraction(0)
    return Fraction(p) ** v * (u + p**k * rng.randint(-(p**4), p**4))


def vp(x, p):
    if x == 0:
        return math.inf
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def in_ball(x, p, triple):
    v, u, k = triple
    if u == 0:
        return k == 0 and vp(x, p) >= v
    assert k >= 1 and 0 < u < p**k and u % p != 0, f"malformed unit triple {triple}"
    return vp(x - Fraction(p) ** v * u, p) >= v + k


@pytest.mark.parametrize("p", PRIMES)
def test_scalar_ops_sound(p):
    rng = random.Random(1000 + p)
    for _ in range(500):
        a = random_triple(rng, p, 24)
        if a[1] != 0 and rng.random() < 0.25:
            b = cancelling_partner(rng, p, a)
        else:
            b = random_triple(rng, p, 24)
        added = _core.tr_add(p, *a, *b)
        multiplied = _core.tr_mul(p, *a, *b)
        negated = _core.tr_neg(p, *a)
        if b[1] != 0:
            divided = _core.tr_div(p, *a, *b)
        else:
            with pytest.raises(ZeroDivisionError):
                _core.tr_div(p, *a, *b)
        for _ in range(4):
            x, y = sample(rng, p, a), sample(rng, p, b)
            assert in_ball(x + y, p, added), (a, b, added)
            assert in_ball(x * y, p, multiplied), (a, b, multiplied)
            assert in_ball(-x, p, negated), (a, negated)
            if b[1] != 0:
                assert in_ball(x / y, p, divided), (a, b, divided)


# -- tr_add against the body it replaced -------------------------------------

_POW_CACHE = arith._POW_CACHE
_grow = arith._grow


def reference_tr_add(p, v1, u1, k1, v2, u2, k2):
    """_core.tr_add before it reduced only the digits that reach a shifted
    sum and found a cancelled sum's valuation by doubling and halving."""
    if u1 == 0 and u2 == 0:
        return (v1 if v1 < v2 else v2, 0, 0)
    if u1 == 0:
        v1, u1, k1, v2, u2, k2 = v2, u2, k2, v1, u1, k1
    if u2 == 0:
        m = v2
        if v1 >= m:
            return (m, 0, 0)
        if v1 + k1 <= m:
            return (v1, u1, k1)
        k = m - v1
        try:
            pk = _POW_CACHE[p][k]
        except (KeyError, IndexError):
            pk = _grow(p, k)[k]
        return (v1, u1 % pk, k)
    if v1 > v2:
        v1, u1, k1, v2, u2, k2 = v2, u2, k2, v1, u1, k1
    if v1 < v2:
        a1 = v1 + k1
        a2 = v2 + k2
        k = (a1 if a1 < a2 else a2) - v1
        try:
            pw = _POW_CACHE[p]
            pk = pw[k]
        except (KeyError, IndexError):
            pw = _grow(p, k)
            pk = pw[k]
        d = v2 - v1
        if d < k:
            return (v1, (u1 + u2 * pw[d]) % pk, k)
        return (v1, u1 % pk, k)
    k = k1 if k1 < k2 else k2
    try:
        pk = _POW_CACHE[p][k]
    except (KeyError, IndexError):
        pk = _grow(p, k)[k]
    s = (u1 + u2) % pk
    if s == 0:
        return (v1 + k, 0, 0)
    t = 0
    while s % p == 0:
        s //= p
        t += 1
    return (v1 + t, s, k - t)


def big_unit(rng, p, k):
    """A unit with k digits (0 < u < p**k, p does not divide u)."""
    return p * rng.randrange(p ** (k - 1)) + rng.randrange(1, p)


@st.composite
def tr_add_cases(draw):
    """Cancelled sums of every depth, shifted sums with and without a reduced
    u1 and with u2 on either side of p**(k - d), and zeros near INF_BOUND."""
    p = draw(st.sampled_from(PRIMES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["cancel", "shift_edge", "shift_short", "shift_any", "zero"]))
    if kind == "cancel":
        k = draw(st.integers(2, 2100))
        k2 = k + draw(st.integers(0, 4))
        depth = draw(st.integers(1, k))  # depth k cancels every known digit
        u1 = big_unit(rng, p, k)
        u2 = (-u1 + rng.randrange(1, p) * p**depth) % p**k2
        v = draw(st.integers(-20, 20))
        a, b = (v, u1, k), (v, u2, k2)
    elif kind == "zero":
        a = (INF + draw(st.integers(-3, 3)), 0, 0)
        if draw(st.booleans()):
            b = (INF + draw(st.integers(-3, 3)), 0, 0)
        else:
            k = draw(st.integers(1, 40))
            b = (INF - k + draw(st.integers(-3, 3)), big_unit(rng, p, k), k)
    else:
        k1 = draw(st.integers(2, 2100))
        if kind == "shift_edge":  # d = k - 1 with k = k1
            d, k2 = k1 - 1, draw(st.integers(1, 2100))
        elif kind == "shift_short":  # k = d + k2 < k1, so u1 is reduced
            d = draw(st.integers(1, k1 - 1))
            k2 = draw(st.integers(1, max(1, k1 - d - 1)))
        else:
            d, k2 = draw(st.integers(1, k1 + 3)), draw(st.integers(1, 2100))
        k = min(k1, d + k2)
        u1, u2 = big_unit(rng, p, k1), big_unit(rng, p, k2)
        if k > d and draw(st.booleans()):
            u2 %= p ** (k - d)  # u2 already below p**(k - d)
        v = draw(st.integers(-20, 20))
        a, b = (v, u1, k1), (v + d, u2, k2)
    return p, a, b


@settings(max_examples=400, deadline=None)
@given(tr_add_cases())
def test_tr_add_matches_reference(case):
    p, a, b = case
    assert _core.tr_add(p, *a, *b) == reference_tr_add(p, *a, *b), case
    assert _core.tr_add(p, *b, *a) == reference_tr_add(p, *b, *a), case


@pytest.mark.parametrize("p", PRIMES)
def test_series_kernels_sound(p):
    rng = random.Random(2000 + p)
    for _ in range(30):
        a = [random_triple(rng, p, 20) for _ in range(rng.randint(1, 12))]
        b = [random_triple(rng, p, 20) for _ in range(rng.randint(1, 12))]
        av, au, ak = map(list, zip(*a))
        bv, bu, bk = map(list, zip(*b))
        t = rng.randint(0, 16)
        product = list(zip(*_core.series_mul(p, av, au, ak, bv, bu, bk, t)))
        assert len(product) == t + 1
        n = rng.randint(0, t)
        lo = rng.randint(0, t)
        hi = rng.randint(lo, t)
        single = _core.conv_at(p, av, au, ak, bv, bu, bk, n, lo, hi)
        window = range(max(lo, n - len(b) + 1), min(hi, n, len(a) - 1) + 1)
        for _ in range(3):
            xs = [sample(rng, p, c) for c in a]
            ys = [sample(rng, p, c) for c in b]
            for m, c in enumerate(product):
                exact = sum((xs[i] * ys[m - i] for i in range(len(xs)) if 0 <= m - i < len(ys)),
                            Fraction(0))
                assert in_ball(exact, p, c), (a, b, m, c)
            exact = sum((xs[i] * ys[n - i] for i in window), Fraction(0))
            assert in_ball(exact, p, single), (a, b, n, lo, hi, single)


def schoolbook_series_mul(p, av, au, ak, bv, bu, bk, t_out):
    """Reference product: ascending-index accumulation of tr_mul terms."""
    out = []
    for n in range(t_out + 1):
        lo = 0 if n < len(bv) else n - len(bv) + 1
        out.append(_schoolbook_sum(p, av, au, ak, bv, bu, bk, n, lo, min(n, len(av) - 1)))
    return tuple(map(list, zip(*out)))


def schoolbook_conv_at(p, av, au, ak, bv, bu, bk, n, imin, imax):
    lo = max(imin, 0, n - (len(bv) - 1))
    hi = min(imax, n, len(av) - 1)
    return _schoolbook_sum(p, av, au, ak, bv, bu, bk, n, lo, hi)


def _schoolbook_sum(p, av, au, ak, bv, bu, bk, n, lo, hi):
    v, u, k = INF, 0, 0
    for i in range(lo, hi + 1):
        if au[i] == 0 and av[i] >= INF:
            continue
        j = n - i
        wv, wu, wk = arith.tr_mul(p, av[i], au[i], ak[i], bv[j], bu[j], bk[j])
        v, u, k = arith.tr_add(p, v, u, k, wv, wu, wk)
    return (v, u, k)


def random_operands(rng, p):
    """Two coefficient lists with exact and inexact zeros, negative valuations
    and, often, pairs of products at one degree that cancel to some digits."""
    cap = rng.choice([1, 3, 20])
    a = [random_triple(rng, p, cap) for _ in range(rng.randint(1, 14))]
    b = [random_triple(rng, p, cap) for _ in range(rng.randint(1, 14))]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(len(a)), rng.randrange(len(b))
        i2 = rng.randrange(len(a))
        j2 = i + j - i2
        if i2 != i and 0 <= j2 < len(b) and b[j][1] != 0:
            a[i2] = a[i]  # a_i2 * b_j2 cancels a_i * b_j to some digits
            b[j2] = cancelling_partner(rng, p, b[j])
    return a, b


def assert_kernel_matches_schoolbook(p, a, b, t, n, imin, imax):
    av, au, ak = map(list, zip(*a))
    bv, bu, bk = map(list, zip(*b))
    got = _core.series_mul(p, av, au, ak, bv, bu, bk, t)
    assert got == schoolbook_series_mul(p, av, au, ak, bv, bu, bk, t), (p, a, b, t)
    got = _core.conv_at(p, av, au, ak, bv, bu, bk, n, imin, imax)
    assert got == schoolbook_conv_at(p, av, au, ak, bv, bu, bk, n, imin, imax), (p, a, b, n, imin, imax)


@pytest.mark.parametrize("p", PRIMES)
def test_series_kernels_match_schoolbook(p):
    rng = random.Random(3000 + p)
    for _ in range(400):
        a, b = random_operands(rng, p)
        t = rng.randint(0, len(a) + len(b) + 3)  # often past the product degree
        n = rng.randint(0, t)
        imin = rng.randint(-2, n + 1)
        imax = rng.randint(imin - 1, n + 2)
        assert_kernel_matches_schoolbook(p, a, b, t, n, imin, imax)


@st.composite
def triples(draw, p):
    kind = draw(st.sampled_from(["exact", "inexact", "unit", "unit"]))
    if kind == "exact":
        return (INF, 0, 0)
    v = draw(st.integers(-12, 12))
    if kind == "inexact":
        return (v, 0, 0)
    k = draw(st.integers(1, 12))
    u = p * draw(st.integers(0, p ** (k - 1) - 1)) + draw(st.integers(1, p - 1))
    return (v, u, k)


@st.composite
def kernel_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    a = draw(st.lists(triples(p), min_size=1, max_size=8))
    b = draw(st.lists(triples(p), min_size=1, max_size=8))
    if draw(st.booleans()) and b[0][1] != 0 and len(a) > 1 and len(b) > 1:
        # a_0*b_1 + a_1*b_0 with a_1 = a_0 and b_1 close to -b_0
        v, u, k = b[0]
        keep = draw(st.integers(1, k))
        a[1] = a[0]
        b[1] = (v, -u % p**keep, keep)
    t = draw(st.integers(0, len(a) + len(b) + 2))
    n = draw(st.integers(0, t))
    imin = draw(st.integers(-2, n + 1))
    imax = draw(st.integers(-1, n + 2))
    return p, a, b, t, n, imin, imax


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_series_kernels_match_schoolbook_hypothesis(case):
    assert_kernel_matches_schoolbook(*case)


def schoolbook_dot(p, av, au, ak, bv, bu, bk, order=1):
    """Reference inner product: tr_add fold of the tr_mul terms, ascending
    (order=1) or descending (order=-1) over the common indices."""
    v, u, k = INF, 0, 0
    for i in range(min(len(av), len(bv)))[::order]:
        wv, wu, wk = arith.tr_mul(p, av[i], au[i], ak[i], bv[i], bu[i], bk[i])
        v, u, k = arith.tr_add(p, v, u, k, wv, wu, wk)
    return (v, u, k)


def assert_dot_matches_schoolbook(p, a, b):
    av, au, ak = (list(x) for x in zip(*a)) if a else ([], [], [])
    bv, bu, bk = (list(x) for x in zip(*b)) if b else ([], [], [])
    got = _core.dot(p, av, au, ak, bv, bu, bk)
    assert got == schoolbook_dot(p, av, au, ak, bv, bu, bk), (p, a, b)
    assert got == schoolbook_dot(p, av, au, ak, bv, bu, bk, order=-1), (p, a, b)
    assert got == _core.dot(p, bv, bu, bk, av, au, ak), (p, a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_dot_matches_schoolbook(p):
    rng = random.Random(4000 + p)
    for _ in range(600):
        cap = rng.choice([1, 3, 20])
        a = [random_triple(rng, p, cap) for _ in range(rng.randint(0, 12))]
        b = [random_triple(rng, p, cap) for _ in range(rng.randint(0, 12))]
        common = min(len(a), len(b))
        for _ in range(rng.randint(0, 3) if common >= 2 else 0):
            i, i2 = rng.sample(range(common), 2)
            if b[i][1] != 0:
                a[i2] = a[i]  # a_i2 * b_i2 cancels a_i * b_i to some digits
                b[i2] = cancelling_partner(rng, p, b[i])
        assert_dot_matches_schoolbook(p, a, b)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(triples(p), max_size=8), st.lists(triples(p), max_size=8))
))
def test_dot_matches_schoolbook_hypothesis(case):
    assert_dot_matches_schoolbook(*case)


def test_dot_of_nothing_is_exact_zero():
    assert _core.dot(3, [], [], [], [0], [1], [5]) == (INF, 0, 0)
    assert _core.dot(3, [4], [0], [0], [INF], [0], [0]) == (INF, 0, 0)
    assert _core.dot(3, [4], [0], [0], [-1], [2], [5]) == (3, 0, 0)


def test_powers_stay_within_operand_precision():
    # a valuation spread of 10**4 must not build powers past the largest k
    p = 11
    arith._POW_CACHE.pop(p, None)
    k_max = 6
    a = [(0, 3, 4), (10_000, 5, k_max), (-10_000, 7, 2)]
    b = [(10_000, 2, 5), (0, 9, 3), (INF, 0, 0), (-10_000, 4, k_max)]
    av, au, ak = map(list, zip(*a))
    bv, bu, bk = map(list, zip(*b))
    product = _core.series_mul(p, av, au, ak, bv, bu, bk, 6)
    for n in range(6):
        _core.conv_at(p, av, au, ak, bv, bu, bk, n, 0, n)
        _core.conv_at(p, bv, bu, bk, av, au, ak, n, 0, n)
    assert len(arith._POW_CACHE[p]) <= k_max + 1
    assert product == schoolbook_series_mul(p, av, au, ak, bv, bu, bk, 6)
    # nor may a cancellation of any depth when it looks for the valuation
    u = 3
    for depth in range(1, k_max + 1):
        partner = (-u + p**depth) % p**k_max  # depth k_max cancels every digit
        _core.tr_add(p, 0, u, k_max, 0, partner, k_max)
        _core.dot(p, [0, 0], [u, partner], [k_max, k_max], [0, 0], [1, 1], [k_max, k_max])
    assert len(arith._POW_CACHE[p]) <= k_max + 1


def test_backend_name_is_pure():
    # run metadata records padicdyn.BACKEND; there is one kernel
    assert padicdyn.BACKEND == _core.BACKEND == "pure"
