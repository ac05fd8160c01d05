"""The direct orbit scan, the independent oracle for ``checker``'s pullback F.

It iterates the maps and evaluates the generators on (v, u, k) triples, and
imports nothing of the F side (``ValidatedSystem`` is only its annotation).
Its proofs read triples as sets, as the ``_core`` module docstring states.
"""

from __future__ import annotations

from . import _core
from .dynamics import contraction_radius
from .errors import PrecisionError
from .multipoly import TIE, UNIT
from .padic import INF_BOUND

# digits kept by the cut copies that decide ties between orbit coordinates
_CUT_DIGITS = 64


def _fixed_point_hit(f, alphas):
    """Lemma (A)'s data for f (``direct_orbit_scan``): (i, v(c1), w - v(c1))
    when f is c1 X_i + c0 and e = c1 alpha_i + c0 is a unit of valuation w,
    formed from values of absolute precision below INF_BOUND; else False."""
    c0 = f.terms.get((0,) * f.nvars)
    if c0 is None or len(f.terms) != 2:
        return False
    expo, c1 = next((e, c) for e, c in f.terms.items() if any(e))
    if sum(expo) != 1:
        return False
    i = expo.index(1)
    alpha = alphas[i]
    if c1._v + c1._k + alpha._v + alpha._k >= INF_BOUND or c0._v + c0._k >= INF_BOUND:
        return False
    e = c1 * alpha + c0
    return (i, c1._v, e._v - c1._v) if e._u else False


def _tie_pair(f, maps):
    """Lemma (B)'s data for f (``direct_orbit_scan``): (i, j, v(c_i), lams)
    when f is c_i X_i + c_j X_j with i != j and c_i + c_j zero to precision;
    else False.  ``lams`` lists (lambda_r, r - 1) for each r >= 1 where
    b_{i,r} - b_{j,r}, of valuation or bound lambda_r, is not an exact zero."""
    if len(f.terms) != 2:
        return False
    (ei, ci), (ej, cj) = f.terms.items()
    if sum(ei) != 1 or sum(ej) != 1 or not (ci + cj).is_zero_to_precision:
        return False
    i, j = ei.index(1), ej.index(1)
    bi, bj = maps[i].coefficients, maps[j].coefficients
    zero = ci.ctx.zero()
    lams = []
    for r in range(1, max(len(bi), len(bj))):
        d = (bi[r] if r < len(bi) else zero) - (bj[r] if r < len(bj) else zero)
        if not d.is_exact_zero:
            lams.append((d._v, r - 1))
    return i, j, ci._v, lams


def direct_orbit_scan(validated: ValidatedSystem, n_max: int | None = None) -> list:
    """Indices n <= n_max at which every generator vanishes to precision.

    Independent oracle: it only iterates the maps and evaluates the generators.
    Raises PrecisionError (with ``failing_index``) when a coordinate that
    started resolved becomes indistinguishable from its fixed point, the
    expected exhaustion mode of long orbits at fixed precision.

    The generators are evaluated in order up to the first that does not
    vanish, so a step usually reads one or two coordinates.  A coordinate is
    advanced every step, with its collapse test, until it is *settled*: no
    collapse test can fire for it again.  From then on it is advanced, one
    step at a time, only when a generator that reads it is evaluated, which
    the term test and the cut copies below often avoid.  Every value read is
    the triple the every-step iteration computes, so the hits and the error
    are those of advancing every coordinate every step.  A coordinate is
    settled

    * from n = 0 when it starts indistinguishable from alpha (it is never
      tested), or
    * at index n when alpha and P(0) are exact zeros, P's linear coefficient
      b1 is certified nonzero with v(b1) >= 1, z_n is a unit with
      v(z_n) >= m = ``contraction_radius(P.coefficients, v(b1))``, and
      C + D * c < INF_BOUND, with c = v(z_n) + k(z_n) + (n_max - n) v(b1),
      C the greatest absolute precision of a coefficient of P and D its
      degree.  As C >= 2 and D >= 1, c < INF_BOUND.  A coordinate that
      fails this stays eager, as in the every-step iteration.

    Lemma: then every later z_{n+j} (j <= n_max - n) is a unit of valuation
    v(z_n) + j v(b1), with absolute precision at most c, so its collapse
    test (z itself at alpha = 0) passes.  Take one step from such a z;
    ``horner`` runs the plain loop of ``tr_mul`` and ``tr_add``.  Neither
    call returns a valuation or zero bound below the least of its operands',
    so Horner's partial sum above b1, times z, has a valuation or bound at
    least the least v(b_i) + (i - 1) v(z) over i >= 2 (INF_BOUND for exact
    zeros), which exceeds v(b1) since v(z) >= m (and v(b1) < INF_BOUND while
    a step remains).  A sum whose operand of strictly least valuation is a
    unit is a unit of that valuation, so adding b1 gives a unit of valuation
    v(b1); times the unit z, a unit of valuation v(b1) + v(z); its absolute
    precision is at most v(z) + k(z) + v(b1) <= c < INF_BOUND, so adding the
    exact zero P(0) leaves it.  The next value again satisfies every
    condition, with n + 1 and a c no greater.

    Before it catches up the coordinates a generator reads, the scan tries to
    decide from valuations alone that the generator does not vanish at n.  The
    test applies when every read coordinate is a unit of known valuation v_i
    at n: an eager coordinate whose current triple is a unit, or one the lemma
    settled, whose triple at index j = ``at[i]`` gives v_i = v(z_j) + (n - j)
    v(b1).  A coordinate settled because it started indistinguishable from
    alpha, and an eager one bounded as a zero, fall back to evaluation.
    ``MultivariatePoly.term_test`` forms the term valuations v(c) + sum
    e_i v_i once.  It returns ``UNIT`` when exactly one term D attains the
    least, w, and every term lies below INF_BOUND; the scan then moves to the
    next index.  It returns ``TIE`` for a tie that the cut copies below may
    decide, and None when f must be evaluated.

    Claim: ``eval_triples`` at z_n returns a unit of that valuation w, so
    evaluating would have found the generator nonzero (and, with no term at
    INF_BOUND, raised nothing).  Each term is a product of units, and
    ``tr_mul`` and ``triple_pow`` multiply units into a unit whose valuation
    is the sum, so each term is a unit of its stated valuation; negation
    keeps it.  Induction over the term order: before D, the partial sum is
    the empty sum (bound INF_BOUND > w) or a ``tr_add`` of terms above w, and
    ``tr_add`` never returns a valuation or bound below the least of its
    operands', so it stays above w.  Adding D (or taking D itself into the
    empty sum) gives a unit of valuation w: the other operand is either a
    bound m > w, which keeps m - w >= 1 of D's digits, or a unit of valuation
    above w, whose shifted sum adds multiples of p to D's unit.  After D, each
    ``tr_add`` of this unit with a unit of higher valuation is again a unit of
    valuation w, by the same shifted sum.  The coordinates the test does not
    advance are caught up later, from the same triples, when a generator is
    evaluated, so every value read is unchanged.

    A ``TIE`` that reads a settled coordinate behind n is first decided from
    cut copies: each such coordinate's triple at ``at[i]``, cut to its first
    ``_CUT_DIGITS`` digits, is stepped to n (the copy is kept and
    stepped on at later ties until the coordinate itself is caught up), and
    f is evaluated at the copies and the current eager triples.  When that is
    a unit, f does not vanish at n and the scan moves on; otherwise it
    catches up and evaluates as above.  A generator that vanished when last
    evaluated is evaluated at its next tie without copies: on an orbit that
    stays on the variety, as a diagonal (f, f) from equal starts does, the
    copies would vanish at every index too.  A coordinate settled at alpha
    is never behind at a ``TIE``: the term test is not reached for it.

    Claim: f at z_n is then a unit.  A copy cut to fewer digits stands for a
    superset of the coordinate's set, and away from INF_BOUND larger operand
    sets give a larger result set (the ``_core`` module docstring).  Along the
    exact computation no value reaches INF_BOUND: a settled coordinate's
    absolute precision stays at most c (the lemma), each Horner product adds
    at most c to the absolute precision of the partial sum and each sum takes
    at most the lesser of its operands', so every value ``horner`` forms is at
    most C + D * c, below INF_BOUND by the settle rule; a ``TIE`` bounds the
    values ``eval_triples`` forms in the same way.  A copy's value has a
    valuation or bound at most that of the value it stands over, so the cut
    computation does not reach INF_BOUND either.  By induction over
    ``horner``'s plain loop and ``eval_triples``' terms, the set of f at the
    copies contains the set of f at z_n.  If the former is a unit's, 0 lies
    outside both, so f at z_n is a unit, not a zero triple; its terms lie
    below INF_BOUND, so evaluating would raise nothing.  The copies are never
    read as coordinates: every value read is unchanged.

    Two more lemmas read the contraction near a fixed point and decide
    generators that the tests above leave to evaluation.  Both rest on the
    sets of ``_core``: away from INF_BOUND, ``eval_triples`` at a point where
    each variable appears once, in degree 1, returns exactly the set of f's
    values over the sets of the coefficients and coordinates, and that set
    is a unit's when none of its values is 0.

    (A) A hit at a fixed point.  Let f = c1 X_i + c0 with coordinate i eager,
    and let e = c1 alpha_i + c0 be a unit of valuation w, formed once, the
    first time the term test returns None for f, from values of absolute
    precision below INF_BOUND, as c0's is (``_fixed_point_hit``).  At index n
    the collapse test has formed z_n - alpha_i, nonzero, of valuation delta.
    When v(c1) + v(z_n) + k(z_n) < INF_BOUND and v(c1) + delta != w, f does
    not vanish at n.  Proof: for every c1', z, a and c0' in the sets of c1,
    z_n, alpha_i and c0, c1' z + c0' = c1' (z - a) + (c1' a + c0').  Every
    value in the set of z_n - alpha_i has valuation delta, so the first term
    has valuation v(c1) + delta; the second lies in e's set, so it has
    valuation w.  So the sum has valuation min(v(c1) + delta, w), and no value
    ``eval_triples`` forms reaches INF_BOUND: f at z_n is a unit.  The test
    reads delta without stripping: the collapse test keeps z_n - alpha_i as
    p^v (s + O(p^k)), s not stripped in the one sum (v = v(z_n) there), so
    delta = w - v(c1) exactly when p^h divides s and p^(h+1) does not,
    h = w - v(c1) - v < k: two reductions from the power cache, which holds
    p^k (the one sum's k is at most alpha_i's, and ``tr_add`` reads p^k from
    the same cache).

    (B) A pair of settled orbits.  Let f = c_i X_i + c_j X_j, i != j, with
    c_i + c_j zero to precision, bounded at B, and let the lemma have settled
    both coordinates with the same s = v(b1).  The scan has found f a unit of
    valuation w at a ``TIE`` at n, at the cut copies or at the caught-up
    values; V is the common valuation there and t = w - v(c_i) - V
    (``_tie_pair`` builds the data at the first such unit).  Then f is a unit
    of valuation w + (m - n) s at every index m <= n_max, and the scan never
    tests or evaluates f again, when
      * max(v(c_i), 0) + V + (n_max - n) s + N < INF_BOUND, so the term test
        would return ``TIE`` at every such m and no value ``eval_triples``
        forms there reaches INF_BOUND, and
      * lambda_r + r V > V + t + s for every r >= 1, lambda_r the valuation
        or bound of b_{i,r} - b_{j,r} (an exact zero imposes nothing).
    Write abs(b) for the absolute precision of b (v + k, or the bound of a
    zero).  A sum's is the lesser of its operands' (here below INF_BOUND, by
    the settle rule), and its valuation or bound is at most that, so
    lambda_r <= abs(b_{q,r}) for q = i, j whenever b_{q,r} is not an exact
    zero: the second condition also gives t < k(b_{q,1}) and
    t < A_q(V) - s, A_q(V) the least abs(b_r) + (r - 1) V over the
    coefficients b_r (r >= 2) of P_q that are not exact zeros.
    Proof.  Let X_m, Y_m be the sets of z_{i,m} and z_{j,m}, and
    V_m = V + (m - n) s; claim that v(x - y) = V_m + t for all x in X_m and
    y in Y_m.  At n: the sets at which f was found a unit contain X_n and
    Y_n, and c_i' (x - y) = (c_i' x + c_j' y) - (c_i' + c_j') y, where the
    first term has valuation w and the second at least B + V.  B + V > w,
    because B is the lesser of abs(c_i) and abs(c_j) (``tr_add`` cancels to
    it) and f's value keeps at most the lesser absolute precision of its
    terms, at most B + V.  So v(x - y) = V + t.  Then k(z_{q,n}) > t:
    otherwise the ball X_n around x, of radius V + k(z_{i,n}) <= V + t,
    would hold y, and x - y could be 0 (likewise for Y_n).
    Step 1: a settled z of valuation W keeps
    k(P(z)) >= min(k(z), k(b1), A(W) - s).  In ``horner`` a product acc * z
    has absolute precision at least min(abs(acc) + W, v(acc) + W + k(z)).
    Above b1, every partial sum times the powers of z still to come has
    valuation above s (the contraction radius), so the partial sum above
    b1, times z, has absolute precision at least min(A(W), s + k(z) + 1);
    adding b1, a unit of valuation s, and multiplying by z gives the bound.
    A(W) grows with W, so
    k(z_{q,m}) >= min(k(z_{q,n}), k(b_{q,1}), A_q(V) - s) > t at every
    m >= n.
    Step 2: for coefficient values from the sets,
    P_i(x) - P_j(y) = (x - y)(b_{i,1} + b_{i,2} (x + y) + ...)
    + sum of (b_{i,r} - b_{j,r}) y^r.  Above b_{i,1} the bracket's terms
    have valuation above s, so the product has valuation V_m + t + s; each
    other term has at least lambda_r + r V_m > V_m + t + s, as
    lambda_r + (r - 1) V_m grows with m.
    Step 3: X_{m+1} contains every such P_i(x) and is a ball of radius
    V_{m+1} + k > V_{m+1} + t, and so is Y_{m+1}, so the claim holds at
    m + 1.  Then each value of f at m, c_i' (x - y) + (c_i' + c_j') y, has
    valuation v(c_i) + V_m + t = w + (m - n) s < B + V_m: f is a unit.
    """
    spec = validated.spec
    if n_max is None:
        n_max = spec.max_direct_iterations
    p = spec.ctx.prime
    maps = [P.eval_triple for P in spec.maps]
    variety = [(f.eval_triples, f.term_test, f.variables) for f in spec.variety]
    # z - alpha is z + (-alpha): negate each fixed point once, then the
    # collapse test is one tr_add per coordinate per step.  At alpha = 0 exactly
    # the sum is z itself whenever z's absolute precision is at most INF_BOUND,
    # so z's unit decides with no call.  When z and -alpha are units of equal
    # valuation, tr_add's zero test is one sum modulo p^min(k_z, k_alpha), read
    # from the power cache (grown through the greatest k_alpha): the scan reads
    # whether the difference vanishes and, for lemma (A), the sum itself, but
    # never its stripped valuation.
    neg_alphas = [_core.tr_neg(p, a._v, a._u, a._k) for a in spec.fixed_points]
    pw = _core._grow(p, max(nk for _, _, nk in neg_alphas))
    # (m, v(b1), C, D) for a coordinate the lemma can settle, else None: C is
    # the greatest absolute precision of a coefficient and D the degree
    settling = []
    for P, alpha in zip(spec.maps, spec.fixed_points):
        b0, b1 = P.coefficients[0], P.coefficients[1]
        if alpha.is_exact_zero and b0.is_exact_zero and b1.is_certified_nonzero and b1._v >= 1:
            settling.append((
                contraction_radius(P.coefficients, b1._v), b1._v,
                max(c._v + c._k for c in P.coefficients if not c.is_exact_zero), P.degree,
            ))
        else:
            settling.append(None)
    pcut = p**_CUT_DIGITS
    cur = [(x._v, x._u, x._k) for x in spec.start]
    # at[i]: the index of cur[i] once coordinate i is settled, None before
    at = [None] * len(cur)
    # slopes[i]: v(b1) once the lemma settled coordinate i, else None
    slopes = [None] * len(cur)
    vals = [0] * len(cur)  # the read coordinates' valuations at n, for the term test
    low = [(-1, None)] * len(cur)  # low[i]: (j, the cut copy of coordinate i at index j)
    # diffs[i]: (v, s, k) with z_n - alpha = p^v (s + O(p^k)) for eager i; the
    # one sum leaves s unstripped
    diffs = [None] * len(cur)
    vanished = [False] * len(variety)  # whether generator g vanished when last evaluated
    # the data of lemmas (A) and (B) for generator g, built when first needed:
    # None before, False when g does not have the lemma's form
    near, ties = [None] * len(variety), [None] * len(variety)
    decided = [False] * len(variety)  # whether (B) found g a unit up to n_max
    n_digits = spec.ctx.working_precision

    def tie_settles(g, w):
        """Lemma (B) for generator g, found a unit of valuation w at a TIE at n."""
        pair = ties[g]
        if pair is None:
            pair = ties[g] = _tie_pair(spec.variety[g], spec.maps)
        if not pair:
            return False
        i, j, vc, lams = pair
        s, v = slopes[i], vals[i]
        if s is None or slopes[j] != s:
            return False
        t = w - vc - v
        return (
            (vc if vc > 0 else 0) + v + (n_max - n) * s + n_digits < INF_BOUND
            and all(lam + e * v > t + s for lam, e in lams)
        )

    eager = list(range(len(cur)))
    hits = []
    for n in range(n_max + 1):
        settled = False
        for i in eager:
            if n > 0:
                cur[i] = maps[i](*cur[i])
            zv, zu, zk = cur[i]
            nv, nu, nk = neg_alphas[i]
            if zv == nv and zu and nu:
                dk = zk if zk < nk else nk
                d = zv, (zu + nu) % pw[dk], dk
            elif nu or nv < INF_BOUND or zv + zk > INF_BOUND:
                d = _core.tr_add(p, zv, zu, zk, nv, nu, nk)
            else:
                d = cur[i]
            diffs[i] = d
            if not d[1]:
                if n > 0:
                    exc = PrecisionError(
                        f"orbit coordinate {i + 1} collapsed below working precision"
                        f" at index {n}: raise the precision to scan further"
                    )
                    exc.failing_index = n
                    raise exc
                at[i] = 0  # a coordinate that starts indistinguishable from alpha is never tested
                settled = True
            elif settling[i]:
                m, vb1, top, degree = settling[i]
                if zv >= m and top + degree * (zv + zk + (n_max - n) * vb1) < INF_BOUND:
                    at[i], slopes[i] = n, vb1
                    settled = True
        if settled:
            eager = [i for i in eager if at[i] is None]
        for g, (f, term_test, reads) in enumerate(variety):
            if decided[g]:
                break  # lemma (B): f does not vanish at n
            outcome = None
            for i in reads:
                j = at[i]
                if j is None:
                    if not cur[i][1]:
                        break  # bounded as a zero: no valuation to read
                    vals[i] = cur[i][0]
                elif slopes[i] is None:
                    break  # settled at alpha, not by the lemma
                else:
                    vals[i] = cur[i][0] + (n - j) * slopes[i]
            else:
                outcome = term_test(vals)
                if outcome is UNIT:
                    break  # f does not vanish at n
                if outcome is None and len(reads) == 1 and at[reads[0]] is None:
                    hit = near[g]
                    if hit is None:
                        hit = near[g] = _fixed_point_hit(spec.variety[g], spec.fixed_points)
                    if hit:
                        i, vc1, h = hit
                        zv, _, zk = cur[i]
                        dv, du, dk = diffs[i]
                        h -= dv  # lemma (A) applies unless v_p(du) = h
                        if vc1 + zv + zk < INF_BOUND and (
                            h < 0 or h >= dk or du % pw[h] or not du % pw[h + 1]
                        ):
                            break  # lemma (A): f does not vanish at n
                behind = [i for i in reads if at[i] is not None and at[i] < n]
                if outcome is TIE and behind and not vanished[g]:
                    point = list(cur)
                    for i in behind:
                        j, z = low[i]
                        if j <= at[i]:
                            j, z = at[i], cur[i]
                            if z[2] > _CUT_DIGITS:
                                z = (z[0], z[1] % pcut, _CUT_DIGITS)
                        for _ in range(n - j):
                            z = maps[i](*z)
                        point[i] = z
                        low[i] = (n, z)
                    value = f(point)
                    if value[1]:
                        decided[g] = tie_settles(g, value[0])
                        break  # a unit at the cut copies, so f does not vanish at n
            for i in reads:
                j = at[i]
                if j is not None and j < n:
                    step, z = maps[i], cur[i]
                    for _ in range(n - j):
                        z = step(*z)
                    cur[i], at[i] = z, n
            value = f(cur)
            vanished[g] = not value[1]
            if not vanished[g]:
                decided[g] = outcome is TIE and tie_settles(g, value[0])
                break
        else:
            hits.append(n)
    return hits
