"""Certified orbit-variety intersection analysis.

Given coordinatewise polynomial dynamics (P_1, ..., P_g) on affine g-space,
attracting fixed points alpha_i sharing one multiplier a1, a start point x in
the basin, and a variety V cut out by polynomial generators, this module
decides between:

* ``finite`` -- some generator pulls back to an analytic function F(w) along
  the linearized orbit direction with a certified nonzero coefficient; its
  certified Newton-polygon zero count bounds the number of distinct orbit
  points with index >= n0 lying on V;
* ``invariant_candidate`` -- every generator's F vanishes to working precision
  through the truncation order, the signature of a positive-dimensional
  invariant subvariety (claimed only to precision: no equations are derived);
* ``inconclusive`` -- precision or truncation was insufficient to certify
  either branch; the reason is reported precisely.

The direct orbit scan (iterate and test every generator) is kept strictly
independent of the F-side analysis so it can serve as an oracle for it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _core
from .errors import PrecisionError, ValidationError
from .padic import INF_BOUND, VALUATION_BOUND, PadicContext, PadicNumber
from .dynamics import contraction_radius
from .linearize import linearize
from .multipoly import TIE, UNIT
from .series import TruncatedSeries

# SystemSpec's defaults, which are also the problem file's (problemfile imports them)
DEFAULT_TRUNCATION = 64
DEFAULT_MAX_ITERATIONS = 200

# digits kept by the direct scan's cut copies of settled coordinates, which
# decide valuation ties between orbit coordinates (direct_orbit_scan)
_CUT_DIGITS = 64

_QP_NOTE = (
    "analysis runs over Q_p (unramified, capped precision); ramified data is"
    " out of scope"
)
_BOUND_NOTE = (
    "zero-count bounds count zeros of F in the whole orbit ball, which may"
    " exceed the number of orbit hits"
)
_DEGENERATE_NOTE = (
    "degenerate instance: every start coordinate equals its fixed point,"
    " so the orbit is a single point and the analysis is one membership"
    " test"
)
_CANDIDATE_NOTE = (
    "invariant-subvariety candidate is asserted only to working precision"
    " through the truncation order; no exact vanishing certificate exists"
)


class SystemSpec:
    """A dynamical intersection problem instance."""

    __slots__ = ("ctx", "maps", "fixed_points", "start", "variety", "truncation",
                 "max_direct_iterations")

    def __init__(self, ctx: PadicContext, maps: list, fixed_points: list, start: list,
                 variety: list, truncation: int = DEFAULT_TRUNCATION,
                 max_direct_iterations: int = DEFAULT_MAX_ITERATIONS):
        self.ctx = ctx
        self.maps = maps
        self.fixed_points = fixed_points
        self.start = start
        self.variety = variety
        self.truncation = truncation
        self.max_direct_iterations = max_direct_iterations


class ValidatedSystem:
    """A SystemSpec with constructed linearizations and the orbit advanced
    until every coordinate sits inside its certified isometry ball."""

    __slots__ = ("spec", "linearizations", "multiplier", "n0", "advanced_start", "degenerate")

    def __init__(self, spec: SystemSpec, linearizations: list, multiplier: PadicNumber,
                 n0: int, advanced_start: list, degenerate: bool):
        self.spec = spec
        self.linearizations = linearizations
        self.multiplier = multiplier
        self.n0 = n0
        self.advanced_start = advanced_start
        self.degenerate = degenerate


class GeneratorReport(namedtuple(
    "GeneratorReport",
    "index kind zero_count count_certified newton_polygon detail",
    defaults=(None, None, None, None),
)):
    """One generator's outcome; ``kind`` is "finite" or "zero_to_precision"."""

    __slots__ = ()


class AnalysisReport(namedtuple(
    "AnalysisReport",
    "verdict bound bound_certified complete direct_hits n0 reindexing lambdas multiplier"
    " isometry_radii count_ball_valuation degenerate generators notes detail",
    defaults=(None, None),
)):
    """Certified outcome.

    ``bound`` (when the verdict is ``finite`` and ``bound_certified``) is an
    upper bound on the number of *distinct orbit points* with index >= n0 on
    the variety.  For non-degenerate systems strict contraction makes orbit
    points pairwise distinct, so it equally bounds the hit indices; for the
    degenerate one-point orbit every index may be a hit while the point count
    is at most 1.  ``notes`` left at None becomes a fresh empty list.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        return report if report.notes is not None else report._replace(notes=[])


def _check_digits(x: PadicNumber, where: str):
    """Refuse a nonzero value that carries more than N digits, whose unit u is
    not one of 1 <= u < p^k with p not dividing u, or whose valuation exceeds
    VALUATION_BOUND in absolute value: the arithmetic assumes all three of
    every value it is given."""
    if not x._u:
        return
    if abs(x._v) > VALUATION_BOUND:
        raise ValidationError(
            f"{where} has valuation {x._v}, beyond the bound |v| <= {VALUATION_BOUND}"
        )
    p, n = x.ctx.prime, x.ctx.working_precision
    if x._k > n:
        raise ValidationError(
            f"{where} carries {x._k} digits, more than the working precision {n}"
        )
    if not (0 < x._u < p**x._k and x._u % p):
        raise ValidationError(
            f"{where} has a unit outside 1 <= u < p^{x._k} with p not dividing u"
        )


def validate(spec: SystemSpec) -> ValidatedSystem:
    """Check every hypothesis and advance the orbit into the isometry balls.

    Each distinct (map, fixed point) is linearized once: coordinates whose map
    coefficients and fixed point are equal triple for triple (value and
    precision) share one ``Linearization``, as in the invariant diagonal of a
    system (f, ..., f).  Raises ValidationError naming the violated hypothesis
    (and the first coordinate that violates it) otherwise, or the field of an
    out-of-range truncation, iteration cap or value (``_check_digits``).
    """
    if spec.truncation < 1:
        raise ValidationError(f"truncation must be >= 1, got {spec.truncation}")
    if spec.max_direct_iterations < 0:
        raise ValidationError(
            f"max_direct_iterations must be >= 0, got {spec.max_direct_iterations}"
        )
    g = len(spec.maps)
    if g < 2:
        raise ValidationError("need at least two coordinates (g >= 2)")
    if not (len(spec.fixed_points) == len(spec.start) == g):
        raise ValidationError("maps, fixed_points and start must all have length g")
    for i, P in enumerate(spec.maps, start=1):
        for j, c in enumerate(P.coefficients):
            _check_digits(c, f"maps[{i}] coefficient of X^{j}")
    for name in ("fixed_points", "start"):
        for i, x in enumerate(getattr(spec, name), start=1):
            _check_digits(x, f"{name}[{i}]")
    for j, f in enumerate(spec.variety, start=1):
        if f.nvars != g:
            raise ValidationError(f"variety generator has {f.nvars} variables, expected {g}")
        for expo, c in f.terms.items():
            _check_digits(c, f"variety[{j}] coefficient of exponents {expo}")
    if not spec.variety:
        raise ValidationError("variety must have at least one generator")
    lins = []
    distinct = {}
    for i, (P, alpha) in enumerate(zip(spec.maps, spec.fixed_points)):
        if P.ctx != spec.ctx:
            raise ValidationError("all maps must share the problem context")
        key = (
            tuple((c._v, c._u, c._k) for c in P.coefficients),
            (alpha.ctx, alpha._v, alpha._u, alpha._k),
        )
        lin = distinct.get(key)
        if lin is None:
            try:
                lin = distinct[key] = linearize(P, alpha, spec.truncation)
            except (ValidationError, PrecisionError) as exc:
                raise ValidationError(f"coordinate {i + 1}: {exc}") from exc
        lins.append(lin)
    a1 = lins[0].multiplier
    for i, lin in enumerate(lins[1:], start=2):
        if not (lin.multiplier - a1).is_zero_to_precision:
            raise ValidationError(
                "the fixed points must share one multiplier: coordinate"
                f" {i} has v={lin.multiplier.valuation}, expected the"
                f" multiplier of coordinate 1 (v={a1.valuation})"
            )
    distances = [x - a for x, a in zip(spec.start, spec.fixed_points)]
    if all(d.is_zero_to_precision for d in distances):
        return ValidatedSystem(spec, lins, a1, 0, list(spec.start), True)
    cur = list(spec.start)
    for n in range(spec.max_direct_iterations + 1):
        inside = True
        for z, lin in zip(cur, lins):
            try:
                if not lin.isometry_ball.contains(z):
                    inside = False
                    break
            except PrecisionError as exc:
                raise ValidationError(
                    f"cannot certify ball membership at orbit index {n}: {exc}"
                ) from exc
        if inside:
            return ValidatedSystem(spec, lins, a1, n, cur, False)
        cur = [P(z) for P, z in zip(spec.maps, cur)]
    raise ValidationError(
        "start point does not reach the certified isometry balls within"
        f" {spec.max_direct_iterations} steps"
    )


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

    Claim: f at z_n is then a unit.  A triple stands for a set: a unit for
    p^v (u + p^k Z_p), a zero bounded at m for p^m Z_p, an exact zero for
    {0}; a copy cut to fewer digits stands for a superset.  ``tr_mul``,
    ``tr_neg`` and ``tr_add`` return the set of products, negations or sums
    of their operands' values (a unit product keeps the lesser k; a sum
    keeps the digits below the lesser absolute precision and is the zero
    bounded there when they cancel), except that a bound at INF_BOUND or
    more becomes an exact zero.  Away from that, larger operand sets give a
    larger result set.  Along the exact computation no value reaches
    INF_BOUND: a settled coordinate's absolute precision stays at most c
    (the lemma), each Horner product adds at most c to the absolute
    precision of the partial sum and each sum takes at most the lesser of
    its operands', so every value ``horner`` forms is at most C + D * c,
    below INF_BOUND by the settle rule; a ``TIE`` bounds the values
    ``eval_triples`` forms in the same way.  A copy's value has a valuation
    or bound at most that of the value it stands over, so the cut computation
    does not reach INF_BOUND either.  By induction over ``horner``'s plain
    loop and ``eval_triples``' terms, the set of f at the copies contains the
    set of f at z_n.  If the former is a unit's, 0 lies outside both, so f at
    z_n is a unit, not a zero triple; its terms lie below INF_BOUND, so
    evaluating would raise nothing.  The copies are never read as
    coordinates: every value read is unchanged.
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
    # so z's unit decides with no call.
    neg_alphas = [_core.tr_neg(p, a._v, a._u, a._k) for a in spec.fixed_points]
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
    vanished = [False] * len(variety)  # whether generator g vanished when last evaluated
    eager = list(range(len(cur)))
    hits = []
    for n in range(n_max + 1):
        settled = False
        for i in eager:
            if n > 0:
                cur[i] = maps[i](*cur[i])
            zv, zu, zk = cur[i]
            nv, nu, nk = neg_alphas[i]
            if nu or nv < INF_BOUND or zv + zk > INF_BOUND:
                zu = _core.tr_add(p, zv, zu, zk, nv, nu, nk)[1]
            if not zu:
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
                    if f(point)[1]:
                        break  # a unit at the cut copies, so f does not vanish at n
            for i in reads:
                j = at[i]
                if j is not None and j < n:
                    step, z = maps[i], cur[i]
                    for _ in range(n - j):
                        z = step(*z)
                    cur[i], at[i] = z, n
            vanished[g] = not f(cur)[1]
            if not vanished[g]:
                break
        else:
            hits.append(n)
    return hits


def compute_lambdas(validated: ValidatedSystem):
    """Reindexing permutation and log ratios lambda_i at orbit index n0.

    The lead coordinate maximizes |log(advanced start)| (minimizes the
    valuation; ties broken by original order), which forces v(lambda_i) >= 0
    for every other coordinate.  A coordinate sitting at its fixed point gets
    lambda exactly 0.
    """
    if validated.degenerate:
        raise ValidationError("lambdas undefined for the degenerate one-point orbit")
    spec = validated.spec
    logs = []
    for z, lin in zip(validated.advanced_start, validated.linearizations):
        d = z - lin.fixed_point
        logs.append(lin.log_of(z) if d.is_certified_nonzero else None)
    lead = None
    best = None
    for i, L in enumerate(logs):
        if L is None:
            continue
        if best is None or L.valuation < best:
            best = L.valuation
            lead = i
    if lead is None:
        raise ValidationError("all coordinates are at their fixed points")
    lambdas = []
    for i, L in enumerate(logs):
        if i == lead:
            lambdas.append(spec.ctx.one())
        elif L is None:
            lambdas.append(spec.ctx.zero())
        else:
            lam = L / logs[lead]
            if lam.valuation < 0:
                raise ValidationError("lambda with negative valuation: reindexing failed")
            lambdas.append(lam)
    perm = [lead] + [i for i in range(len(logs)) if i != lead]
    return perm, lambdas


def build_F(validated: ValidatedSystem, lead: int, lambdas: list) -> list:
    """Pullback of every generator of the variety, in order, to a series in
    w = u - alpha_lead:

        F(w) = f(..., alpha_i + E_i(lambda_i * L_lead(w)), ...)

    with the lead coordinate substituted as alpha_lead + w.  Along the orbit,
    w = P_lead^n(x_lead) - alpha_lead reproduces f at the orbit point.  The
    coordinate series depend only on the orbit, so they are built once, and
    only for the coordinates that some generator reads (a nonzero exponent):
    ``None`` stands in for every other one, which ``evaluate_series`` never
    reads.
    """
    spec = validated.spec
    ctx = spec.ctx
    t = spec.truncation
    log_lead = validated.linearizations[lead].log_series
    read = {i for f in spec.variety for i in f.variables}
    coords = []
    for i, lin in enumerate(validated.linearizations):
        alpha = lin.fixed_point
        if i not in read:
            coords.append(None)
        elif i == lead:
            coords.append(TruncatedSeries.from_coefficients(ctx, [alpha, ctx.one()], order=t))
        elif lambdas[i].is_zero_to_precision:
            coords.append(TruncatedSeries.constant(ctx, alpha, t))
        else:
            inner = log_lead.scale(lambdas[i])
            coords.append(lin.exp_series.compose(inner) + alpha)
    return [f.evaluate_series(coords, t) for f in spec.variety]


def _slope_text(rise: int, run: int) -> str:
    """The slope rise/run (run > 0) as ``str(fractions.Fraction(rise, run))`` gives it."""
    g = math.gcd(rise, run)
    rise, run = rise // g, run // g
    return str(rise) if run == 1 else f"{rise}/{run}"


def analyze(spec: SystemSpec) -> AnalysisReport:
    """Run the full procedure; every analysis failure is an Inconclusive verdict.

    Hypothesis violations (wrong multipliers, unreachable balls, bad input)
    still raise ValidationError: they are input errors, not analysis outcomes.
    """
    validated = validate(spec)
    n_max = spec.max_direct_iterations
    verdict, bound, complete, detail = "inconclusive", None, None, None
    gens = []
    if validated.degenerate:
        # the orbit is one point: membership decides every index at once
        members = [f.evaluate(validated.advanced_start).is_zero_to_precision for f in spec.variety]
        on_variety = all(members)
        hits = list(range(n_max + 1)) if on_variety else []
        for j, member in enumerate(members):
            gens.append(
                GeneratorReport(index=j + 1, kind="zero_to_precision" if member else "finite",
                                detail="evaluated at the fixed orbit point")
            )
        notes = [_QP_NOTE, _DEGENERATE_NOTE]
        verdict, bound, complete = "finite", 1 if on_variety else 0, True
        perm, lambdas, m_count = list(range(len(spec.maps))), [], None
    else:
        scan_error = None
        try:
            hits = direct_orbit_scan(validated, n_max)
        except PrecisionError as exc:
            scan_error = exc
            hits = []

        perm, lambdas = compute_lambdas(validated)
        lead = perm[0]
        d_lead = validated.advanced_start[lead] - validated.linearizations[lead].fixed_point
        m_count = d_lead.valuation

        finite_counts = []
        all_zero = True
        inconclusive_details = []
        for j, F in enumerate(build_F(validated, lead, lambdas)):
            if F.is_certified_zero_through_order():
                gens.append(
                    GeneratorReport(index=j + 1, kind="zero_to_precision",
                                    detail="F vanishes to precision through the truncation order")
                )
                continue
            all_zero = False
            zc = F.count_zeros_in_ball(m_count)
            np_data = [(_slope_text(rise, run), run) for rise, run in F.hull_segments()]
            gens.append(
                GeneratorReport(
                    index=j + 1,
                    kind="finite",
                    zero_count=zc.count,
                    count_certified=zc.certified,
                    newton_polygon=np_data,
                    detail=zc.reason,
                )
            )
            if zc.certified:
                finite_counts.append(zc.count)
            else:
                inconclusive_details.append(f"generator {j + 1}: {zc.reason}")

        notes = [_QP_NOTE, _BOUND_NOTE]
        if scan_error is not None:
            detail = str(scan_error)
        elif all_zero:
            verdict = "invariant_candidate"
            notes.append(_CANDIDATE_NOTE)
        elif not finite_counts:
            detail = "; ".join(inconclusive_details) or "no certified zero count"
        else:
            count = min(finite_counts)
            late_hits = [n for n in hits if n >= validated.n0]
            if len(late_hits) > count:
                detail = (
                    f"{len(late_hits)} precision-level hits at indices >= n0 exceed"
                    f" the certified zero count {count}: raise the working"
                    " precision to separate true hits from precision artifacts"
                )
            else:
                verdict, bound, complete = "finite", count, len(late_hits) >= count
    return AnalysisReport(
        verdict=verdict,
        bound=bound,
        bound_certified=bound is not None,
        complete=complete,
        direct_hits=hits,
        n0=validated.n0,
        reindexing=perm,
        lambdas=lambdas,
        multiplier=validated.multiplier,
        isometry_radii=[lin.isometry_radius_valuation for lin in validated.linearizations],
        count_ball_valuation=m_count,
        degenerate=validated.degenerate,
        generators=gens,
        notes=notes,
        detail=detail,
    )
