"""The coefficient kernel: exact arithmetic on (valuation, unit, precision)
triples, in pure Python on CPython's big-integer arithmetic.

A coefficient is a triple ``(v, u, k)`` over a fixed prime ``p``:

* ``u != 0`` -- the value ``p**v * (u + O(p**k))``: valuation ``v`` is exact and
  ``u`` is a unit modulo ``p**k`` (``1 <= u < p**k``, ``u % p != 0``) carrying
  ``k`` known digits.  The absolute precision is ``v + k``.
* ``u == 0`` -- a value known only to be ``O(p**v)`` ("zero to absolute
  precision ``v``"); ``k`` is 0.  Bounds at or above ``INF_BOUND`` mean an
  exact zero.

Precision propagation is pessimistic: a result never claims more digits than
its operands guarantee, and additive cancellation converts a would-be unit into
a zero triple carrying the surviving absolute-precision bound.

A sum of products (a convolution coefficient) has a closed form: its absolute
precision ``A`` is the least absolute precision of its terms, and its value is
the exact sum of the products reduced modulo ``p**A``.  Adding the terms one
by one with ``tr_add`` gives the same triple in any order, so ``series_mul``,
``conv_at`` and ``dot`` compute the closed form directly.

Callers look the public functions up as ``_core.<name>`` at call time, so a
wrapper installed on this module (``checkbench/tracing.py``) sees every call
from outside the kernel.  It sees none of the kernel's own inner calls because
no public function calls another: ``series_mul``, ``conv_at`` and ``dot`` call
the private ``_conv``, and the ``tr_*`` functions call ``_ppow``.  Besides the
``PadicNumber`` operators and the series code, the direct orbit scan's scalar
work calls the ``tr_*`` functions directly: ``Polynomial.__call__``
(``dynamics``), ``MultivariatePoly.evaluate`` (``multipoly``, with
``padic.triple_pow`` for its powers) and the collapse test of
``checker.direct_orbit_scan``.  The traced counts include every one of those
calls.
"""

BACKEND = "pure"
INF_BOUND = 1 << 40

_POW_CACHE = {}


def _powers(p, e):
    """The cached list [1, p, p**2, ...], extended through p**e.

    Exponents are bounded by the operands' precision, so the cache stays as
    long as the largest ``k`` in use plus one.
    """
    cache = _POW_CACHE.get(p)
    if cache is None:
        cache = [1]
        _POW_CACHE[p] = cache
    while len(cache) <= e:
        cache.append(cache[-1] * p)
    return cache


def _ppow(p, e):
    """p**e from the per-prime cache."""
    return _powers(p, e)[e]


def tr_mul(p, v1, u1, k1, v2, u2, k2):
    if u1 == 0 or u2 == 0:
        if (u1 == 0 and v1 >= INF_BOUND) or (u2 == 0 and v2 >= INF_BOUND):
            return (INF_BOUND, 0, 0)
        b = v1 + v2
        return (b if b < INF_BOUND else INF_BOUND, 0, 0)
    k = k1 if k1 < k2 else k2
    u = (u1 * u2) % _ppow(p, k)
    return (v1 + v2, u, k)


def tr_neg(p, v, u, k):
    if u == 0:
        return (v, 0, 0)
    return (v, _ppow(p, k) - u, k)


def tr_add(p, v1, u1, k1, v2, u2, k2):
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
        return (v1, u1 % _ppow(p, k), k)
    if v1 > v2:
        v1, u1, k1, v2, u2, k2 = v2, u2, k2, v1, u1, k1
    if v1 < v2:
        a1 = v1 + k1
        a2 = v2 + k2
        a = a1 if a1 < a2 else a2
        k = a - v1
        pk = _ppow(p, k)
        if v2 - v1 >= k:
            u = u1 % pk
        else:
            u = (u1 + u2 * _ppow(p, v2 - v1)) % pk
        return (v1, u, k)
    k = k1 if k1 < k2 else k2
    s = (u1 + u2) % _ppow(p, k)
    if s == 0:
        return (v1 + k, 0, 0)
    t = 0
    while s % p == 0:
        s //= p
        t += 1
    return (v1 + t, s, k - t)


def tr_div(p, v1, u1, k1, v2, u2, k2):
    if u2 == 0:
        raise ZeroDivisionError("division by a value indistinguishable from zero")
    if u1 == 0:
        if v1 >= INF_BOUND:
            return (INF_BOUND, 0, 0)
        b = v1 - v2
        return (b if b < INF_BOUND else INF_BOUND, 0, 0)
    k = k1 if k1 < k2 else k2
    pk = _ppow(p, k)
    u = (u1 * pow(u2, -1, pk)) % pk
    return (v1 - v2, u, k)


def _conv(p, av, au, ak, bv, bu, bk, n, lo, hi):
    """Sum of a[i]*b[n-i] for lo <= i <= hi, in closed form (indices in range).

    A first pass finds the absolute precision ``A`` of the sum (the least
    absolute precision of its terms) and the least valuation ``m`` of a
    unit*unit term; a second pass adds the unit*unit terms below ``A`` as one
    exact integer scaled by ``p**-m`` and reduces it once modulo ``p**(A - m)``.
    Every power used has exponent below ``A - m``, which is at most the largest
    ``k`` among the operands.
    """
    a = INF_BOUND
    m = INF_BOUND
    for i in range(lo, hi + 1):
        ui = au[i]
        vi = av[i]
        if ui == 0 and vi >= INF_BOUND:
            continue
        j = n - i
        uj = bu[j]
        vj = bv[j]
        if uj == 0 and vj >= INF_BOUND:
            continue
        vi += vj  # the term's valuation, or its bound if a factor is an inexact zero
        if ui != 0 and uj != 0:
            if vi < m:
                m = vi
            ki = ak[i]
            kj = bk[j]
            vi += ki if ki < kj else kj
        if vi < a:
            a = vi
    if m >= a:
        return (a, 0, 0)
    e = a - m
    pw = _powers(p, e)
    s = 0
    for i in range(lo, hi + 1):
        ui = au[i]
        if ui == 0:
            continue
        j = n - i
        uj = bu[j]
        if uj == 0:
            continue
        d = av[i] + bv[j] - m
        if d == 0:
            s += ui * uj
        elif d < e:
            s += ui * uj * pw[d]
    s %= pw[e]
    if s == 0:
        return (a, 0, 0)
    while s % p == 0:
        s //= p
        m += 1
        e -= 1
    return (m, s, e)


def series_mul(p, av, au, ak, bv, bu, bk, t_out):
    """Cauchy product of two coefficient arrays, truncated at degree t_out.

    Coefficient n is the closed form of ``_conv``: its absolute precision is
    ``A_n = min over i+j=n of min(abs(a_i) + v(b_j), v(a_i) + abs(b_j))``
    (an inexact zero contributes its bound as both valuation and absolute
    precision; exact zeros contribute nothing), and its value is the exact sum
    of the products reduced modulo ``p**A_n``.  A sum that vanishes modulo
    ``p**A_n`` is the zero triple ``(A_n, 0, 0)``.  The result equals adding
    the ``tr_mul`` products one by one with ``tr_add``, in any order.
    """
    n_a = len(av)
    n_b = len(bv)
    cv = []
    cu = []
    ck = []
    for n in range(t_out + 1):
        lo = 0 if n < n_b else n - n_b + 1
        hi = n if n < n_a else n_a - 1
        v, u, k = _conv(p, av, au, ak, bv, bu, bk, n, lo, hi)
        cv.append(v)
        cu.append(u)
        ck.append(k)
    return cv, cu, ck


def conv_at(p, av, au, ak, bv, bu, bk, n, imin, imax):
    """Single Cauchy-product coefficient: sum of a[i]*b[n-i] for imin <= i <= imax."""
    lo = imin if imin > 0 else 0
    if n - lo > len(bv) - 1:
        lo = n - (len(bv) - 1)
    hi = imax if imax < n else n
    if hi > len(av) - 1:
        hi = len(av) - 1
    return _conv(p, av, au, ak, bv, bu, bk, n, lo, hi)


def dot(p, av, au, ak, bv, bu, bk):
    """Inner product: sum of a[i]*b[i] over the indices both arrays have.

    The closed form of ``_conv`` with ``b`` reversed, so it equals adding the
    ``tr_mul`` products one by one with ``tr_add``; an empty sum is an exact zero.
    """
    n = min(len(av), len(bv)) - 1
    if n < 0:
        return (INF_BOUND, 0, 0)
    return _conv(p, av, au, ak, bv[n::-1], bu[n::-1], bk[n::-1], n, 0, n)
