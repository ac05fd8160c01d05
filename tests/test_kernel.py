"""Soundness of the coefficient kernel: precision is never over-claimed.

A triple ``(v, u, k)`` stands for a ball of p-adic numbers: ``p**v * (u +
O(p**k))`` when ``u != 0``, ``O(p**v)`` when ``u == 0``, and ``{0}`` for an
exact zero.  For random operands, and random exact rationals drawn from their
balls, the exact result of every kernel operation must lie in the ball of the
triple the kernel returns.  Every certificate downstream assumes this.
"""

import math
import random
from fractions import Fraction

import pytest

import padicdyn
from padicdyn import _core

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


def test_backend_name_is_pure():
    # run metadata records padicdyn.BACKEND; there is one kernel
    assert padicdyn.BACKEND == _core.BACKEND == "pure"
