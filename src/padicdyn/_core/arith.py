"""Pure-Python coefficient kernels, built on CPython's big-integer arithmetic.

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
"""

INF_BOUND = 1 << 40

_POW_CACHE = {}


def _ppow(p, e):
    """p**e via a per-prime cache (exponents are bounded by the precision cap)."""
    cache = _POW_CACHE.get(p)
    if cache is None:
        cache = [1]
        _POW_CACHE[p] = cache
    while len(cache) <= e:
        cache.append(cache[-1] * p)
    return cache[e]


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


def series_mul(p, av, au, ak, bv, bu, bk, t_out):
    """Cauchy product of two coefficient arrays, truncated at degree t_out.

    Accumulation runs in ascending index order: precision tracking is not
    associative, so the order is part of the result.
    """
    n_a = len(av)
    n_b = len(bv)
    cv = []
    cu = []
    ck = []
    for n in range(t_out + 1):
        v, u, k = INF_BOUND, 0, 0
        lo = 0 if n < n_b else n - n_b + 1
        hi = n if n < n_a else n_a - 1
        for i in range(lo, hi + 1):
            ui = au[i]
            if ui == 0 and av[i] >= INF_BOUND:
                continue
            j = n - i
            wv, wu, wk = tr_mul(p, av[i], ui, ak[i], bv[j], bu[j], bk[j])
            v, u, k = tr_add(p, v, u, k, wv, wu, wk)
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
    v, u, k = INF_BOUND, 0, 0
    for i in range(lo, hi + 1):
        ui = au[i]
        if ui == 0 and av[i] >= INF_BOUND:
            continue
        j = n - i
        wv, wu, wk = tr_mul(p, av[i], ui, ak[i], bv[j], bu[j], bk[j])
        v, u, k = tr_add(p, v, u, k, wv, wu, wk)
    return (v, u, k)
