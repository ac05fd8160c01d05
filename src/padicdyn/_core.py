"""The coefficient kernel: exact arithmetic on (valuation, unit, precision)
triples, in pure Python on CPython's big-integer arithmetic.

A coefficient is a triple ``(v, u, k)`` over a fixed prime ``p``:

* ``u != 0`` -- the value ``p**v * (u + O(p**k))``: valuation ``v`` is exact and
  ``u`` is a unit modulo ``p**k`` (``1 <= u < p**k``, ``u % p != 0``) carrying
  ``k`` known digits.  The absolute precision is ``v + k``.
* ``u == 0`` -- a value known only to be ``O(p**v)`` ("zero to absolute
  precision ``v``"); ``k`` is 0.  Bounds at or above ``INF_BOUND`` mean an
  exact zero.

A triple stands for a set of values: a unit for ``p**v * (u + p**k Z_p)``, a
zero bounded at ``m`` for ``p**m Z_p``, an exact zero for ``{0}``; a unit cut
to fewer digits stands for a superset.  ``tr_mul``, ``tr_neg``, ``tr_add`` and
``tr_div`` by a unit return exactly the set of the products, negations, sums
or quotients of their operands' values, and so claim no digit they do not know:
a product of units keeps the lesser ``k``, and a sum keeps the digits below the
lesser absolute precision, and is the zero bounded there when they cancel.  So
larger operand sets give a larger result set, through any chain of these calls,
``horner`` and the closed-form sums included.  The one exception: a result
bounded at or past ``INF_BOUND`` becomes an exact zero, whose set ``{0}`` is
smaller.  Every proof that reads triples as sets (``checker``, ``linearize``,
``scan``) cites this.

A sum of products (a convolution coefficient) has a closed form: its absolute
precision ``A`` is the least absolute precision of its terms, and its value is
the exact sum of the products reduced modulo ``p**A``.  Adding the terms one
by one with ``tr_add`` gives the same triple in any order, so ``series_mul``,
``conv_at`` and ``dot`` compute the closed form directly, in one pass of
``_conv``.

``tr_add`` computes only the digits that reach its result.  In a shifted sum
(valuations ``v1 < v2``, ``d = v2 - v1 < k`` for the result's ``k``) only the
low ``k - d`` digits of ``u2`` survive, so ``u2`` is reduced modulo
``p**(k - d)`` only when it is at least that, ``u1`` only when it is at least
``p**k`` (never when ``k`` is its own ``k1``), and the sum, below ``2*p**k``,
needs one conditional subtraction instead of a final ``% p**k``.  A sum that
cancels to ``t`` digits, in ``tr_add`` and in ``_conv``, finds ``t`` with
``_strip``: O(log t) divisions by p, p**2, p**4, ... and back down, where
dividing by p once per digit took t divisions of a number of up to k digits.

Every power of ``p`` comes from one cache, ``_POW_CACHE[p] = [1, p, p**2,
...]``, which the hot functions index directly and ``_grow`` extends on a
miss.  Exponents stay below the largest ``k`` among the operands, so the cache
stays that long plus one: a ``tr_*`` result keeps at most the least ``k`` of
its operands and reduces modulo that power; a shifted sum reads ``p**d`` and
``p**(k - d)`` with ``0 < d < k``; ``_strip`` reads only powers below the
``k`` it strips from, since a nonzero residue modulo ``p**k`` has valuation
below ``k``; ``_conv`` scales its running sum by ``p**(old m - new m)`` only
while the old ``m`` is below the running absolute precision ``a``, which keeps
that exponent below the new term's least ``k``, and it skips every unit*unit
term at or above ``a``, which keeps each term's offset from ``m`` and the
final ``a - m`` below the ``k`` of the term that set ``m``.  (Without the skip,
operands with valuations 10**4 apart would build a cache 2*10**4 powers long.)

``horner`` evaluates a polynomial or a truncated series at a triple ``z`` by
Horner's rule, acc = acc*z + c from the top, with one ``tr_mul`` and one
``tr_add`` per step.  It skips a product by an exact one and a sum with an
exact zero (each returns its operand).

Callers look the public functions up as ``_core.<name>`` at call time, so a
wrapper installed on this module (``checkbench/tracing.py``) sees every call
from outside the kernel and none of its inner calls: no public function calls
another (``series_mul``, ``conv_at`` and ``dot`` call the private ``_conv``,
and ``horner`` calls ``tr_mul`` and ``tr_add`` by the private names ``_mul``
and ``_add``).  So the traced ``tr_*`` counters see no polynomial or series
evaluation: an orbit step of ``scan.direct_orbit_scan`` is counted nowhere.
The generator evaluation (``multipoly``) and the scan's collapse test skip the
calls that ``horner`` skips, so the traced counts hold only calls that do work.
"""

BACKEND = "pure"
INF_BOUND = 1 << 40

# p -> [1, p, p**2, ...]; read as _POW_CACHE[p][e], grown by _grow on a miss
_POW_CACHE = {}


def _grow(p, e):
    """The cached list [1, p, p**2, ...] of ``p``, extended through p**e."""
    cache = _POW_CACHE.get(p)
    if cache is None:
        cache = _POW_CACHE[p] = [1]
    while len(cache) <= e:
        cache.append(cache[-1] * p)
    return cache


def _strip(pw, s, k):
    """(t, s // p**t) for the valuation t of 0 < s < p**k when p divides s.

    The exponent doubles while p**t still divides what is left (t = 1, 2, 4,
    ...), then the remainder, below the last t, is found by halving: O(log t)
    divisions, each of the quotient so far.  ``pw`` is the cached list of
    powers of p through p**k; every index read is below k.
    """
    s //= pw[1]
    t = 1
    while t + t < k:
        q, r = divmod(s, pw[t])
        if r:
            break
        s = q
        t += t
    h = t
    while h > 1:
        h >>= 1
        q, r = divmod(s, pw[h])
        if not r:
            s = q
            t += h
    return t, s


def tr_mul(p, v1, u1, k1, v2, u2, k2):
    if u1 == 0 or u2 == 0:
        if (u1 == 0 and v1 >= INF_BOUND) or (u2 == 0 and v2 >= INF_BOUND):
            return (INF_BOUND, 0, 0)
        b = v1 + v2
        return (b if b < INF_BOUND else INF_BOUND, 0, 0)
    k = k1 if k1 < k2 else k2
    try:
        pk = _POW_CACHE[p][k]
    except (KeyError, IndexError):
        pk = _grow(p, k)[k]
    return (v1 + v2, (u1 * u2) % pk, k)


def tr_neg(p, v, u, k):
    if u == 0:
        return (v, 0, 0)
    try:
        pk = _POW_CACHE[p][k]
    except (KeyError, IndexError):
        pk = _grow(p, k)[k]
    return (v, pk - u, k)


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
        if u1 >= pk:
            u1 %= pk
        d = v2 - v1
        if d < k:
            # only the low k - d digits of u2 reach the result
            r = pw[k - d]
            if u2 >= r:
                u2 %= r
            s = u1 + u2 * pw[d]
            return (v1, s - pk if s >= pk else s, k)
        return (v1, u1, k)
    k = k1 if k1 < k2 else k2
    try:
        pw = _POW_CACHE[p]
        pk = pw[k]
    except (KeyError, IndexError):
        pw = _grow(p, k)
        pk = pw[k]
    s = (u1 + u2) % pk
    if s == 0:
        return (v1 + k, 0, 0)
    if s % p:
        return (v1, s, k)
    t, s = _strip(pw, s, k)
    return (v1 + t, s, k - t)


# horner's inner arithmetic: the functions above under private names, which a
# wrapper installed on the public tr_* attributes does not replace
_mul = tr_mul
_add = tr_add


def horner(p, top, below, zv, zu, zk):
    """Horner's rule on (v, u, k) triples: acc = acc*z + c, from the top.

    ``top`` is the leading coefficient's triple and ``below`` yields the
    others from the next degree down to the constant.  The result is exactly
    the triple of the plain loop ``acc = tr_add(tr_mul(acc, z), c)``: a
    product by exactly (0, 1, k) of a unit with at most k digits or of a zero
    bounded at most at INF_BOUND is z itself, and an exact zero added to a
    value whose absolute precision is at most INF_BOUND leaves it as it is.
    """
    v, u, k = top
    for cv, cu, ck in below:
        if u == 1 and v == 0 and (zk <= k if zu else zv <= INF_BOUND):
            v, u, k = zv, zu, zk
        else:
            v, u, k = _mul(p, v, u, k, zv, zu, zk)
        if cu or cv < INF_BOUND or v + k > INF_BOUND:
            v, u, k = _add(p, v, u, k, cv, cu, ck)
    return v, u, k


def tr_div(p, v1, u1, k1, v2, u2, k2):
    if u2 == 0:
        raise ZeroDivisionError("division by a value indistinguishable from zero")
    if u1 == 0:
        if v1 >= INF_BOUND:
            return (INF_BOUND, 0, 0)
        b = v1 - v2
        return (b if b < INF_BOUND else INF_BOUND, 0, 0)
    k = k1 if k1 < k2 else k2
    try:
        pk = _POW_CACHE[p][k]
    except (KeyError, IndexError):
        pk = _grow(p, k)[k]
    u = (u1 * pow(u2, -1, pk)) % pk
    return (v1 - v2, u, k)


def _conv(p, av, au, ak, bv, bu, bk, n, lo, hi):
    """Sum of a[i]*b[n-i] for lo <= i <= hi, in closed form (indices in range).

    One pass keeps three running values: the least absolute precision ``a``
    of the terms so far, the least valuation ``m`` of a unit*unit term, and the
    exact sum ``s`` of the unit*unit terms scaled by ``p**-m``.  The result is
    ``s`` reduced once modulo ``p**(a - m)``.  A unit*unit term at or above the
    running ``a`` is skipped: ``a`` only falls, so the term vanishes modulo the
    final ``p**(a - m)`` and cannot lower ``a``.  When ``m`` falls, ``s`` is
    scaled up by ``p**(old m - new m)``, or restarts when the old ``m`` is at
    or above ``a`` (every term in ``s`` vanishes then).  A term with an
    inexact-zero factor only bounds ``a``; one with an exact-zero factor adds
    nothing.
    """
    pw = _POW_CACHE.get(p) or _grow(p, 0)
    a = INF_BOUND
    m = INF_BOUND
    s = 0
    j = n - lo
    for i in range(lo, hi + 1):
        ui = au[i]
        if ui:
            uj = bu[j]
            if uj:
                v = av[i] + bv[j]
                if v < a:
                    ki = ak[i]
                    kj = bk[j]
                    ki = v + (ki if ki < kj else kj)
                    if ki < a:
                        a = ki
                    if v == m:
                        s += ui * uj
                    elif v > m:
                        e = v - m  # below a - m
                        try:
                            s += ui * uj * pw[e]
                        except IndexError:
                            s += ui * uj * _grow(p, e)[e]
                    else:
                        if m < a:
                            e = m - v  # below this term's least k
                            try:
                                s = s * pw[e] + ui * uj
                            except IndexError:
                                s = s * _grow(p, e)[e] + ui * uj
                        else:
                            s = ui * uj
                        m = v
            else:
                v = bv[j]
                if v < INF_BOUND:
                    v += av[i]
                    if v < a:
                        a = v
        else:
            v = av[i]
            if v < INF_BOUND and (bu[j] or bv[j] < INF_BOUND):
                v += bv[j]
                if v < a:
                    a = v
        j -= 1
    if m >= a:
        return (a, 0, 0)
    e = a - m
    try:
        s %= pw[e]
    except IndexError:
        s %= _grow(p, e)[e]
    if s == 0:
        return (a, 0, 0)
    if s % p:
        return (m, s, e)
    t, s = _strip(pw, s, e)
    return (m + t, s, e - t)


def series_mul(p, av, au, ak, bv, bu, bk, t_out):
    """Cauchy product of two coefficient arrays, truncated at degree t_out.

    Coefficient n is the closed form of ``_conv``: its absolute precision is
    ``A_n = min over i+j=n of min(abs(a_i) + v(b_j), v(a_i) + abs(b_j))``
    (an inexact zero contributes its bound as both valuation and absolute
    precision; exact zeros contribute nothing), and its value is the exact sum
    of the products reduced modulo ``p**A_n``.  A sum that vanishes modulo
    ``p**A_n`` is the zero triple ``(A_n, 0, 0)``.  The result equals adding
    the ``tr_mul`` products one by one with ``tr_add``, in any order.

    Trailing exact zeros of either operand are dropped first, and every
    coefficient above deg(a) + deg(b) is an exact zero with no ``_conv`` call.
    """
    da = len(av) - 1
    while da >= 0 and au[da] == 0 and av[da] >= INF_BOUND:
        da -= 1
    db = len(bv) - 1
    while db >= 0 and bu[db] == 0 and bv[db] >= INF_BOUND:
        db -= 1
    top = da + db if da >= 0 and db >= 0 else -1
    if top > t_out:
        top = t_out
    cv = []
    cu = []
    ck = []
    for n in range(top + 1):
        lo = 0 if n <= db else n - db
        hi = n if n < da else da
        v, u, k = _conv(p, av, au, ak, bv, bu, bk, n, lo, hi)
        cv.append(v)
        cu.append(u)
        ck.append(k)
    pad = t_out - top
    if pad > 0:
        cv += [INF_BOUND] * pad
        cu += [0] * pad
        ck += [0] * pad
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
