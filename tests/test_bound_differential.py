"""Differential test of certified bounds on random small systems.

Every ``finite`` bound that ``analyze`` certifies at working precision must be
at least the number of orbit indices >= n0 that the independent direct scan
finds on the variety at escalated precision.  Systems are drawn from the
families of ``tests/corpus.py``: two coordinates with multiplier p at the fixed
point 0, and either a constructed-hit generator through an orbit point
(constant computed in exact rationals) or a random linear one.

The precision ladder checks the certifier against itself on the same systems:
rerun at more digits and more terms (N' >= N, T' >= T), no certificate may be
contradicted, whether or not the scan is right.
"""

import dataclasses
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CorpusInstance, _orbit_point
from padicdyn import analyze, direct_orbit_scan, validate

PRECISION = 64
TRUNCATION = 12
SCAN_PRECISION = 192
SCAN_STEPS = 150
# The certifier's own scan stops at index 2, where every drawn orbit is inside
# its isometry balls (valuation >= start valuation + 2 >= 3 = m0).  Constructed
# hits lie beyond it, so only the certified bound speaks for them.
N_MAX = 2


@st.composite
def systems(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    polys = []
    for _ in range(2):
        d = draw(st.integers(2, 4))
        middle = draw(st.lists(st.integers(-2, 2), min_size=d - 2, max_size=d - 2))
        polys.append([Fraction(c) for c in [0, p, *middle, 1]])
    start = []
    for _ in range(2):
        unit = draw(st.integers(1, 3 * p).filter(lambda u: u % p != 0))
        start.append(Fraction(unit * p ** draw(st.integers(1, 2))))
    a = Fraction(draw(st.integers(-2, 2)))
    b = Fraction(draw(st.sampled_from([-2, -1, 1, 2])))
    if draw(st.booleans()):
        # constructed hit: the hyperplane through the orbit point at index k
        deg = max(len(q) - 1 for q in polys)
        k = draw(st.integers(N_MAX + 1, {2: 6, 3: 5, 4: 4}[deg]))
        c = -(a * _orbit_point(polys[0], start[0], k) + b * _orbit_point(polys[1], start[1], k))
    else:
        c = Fraction(draw(st.integers(-5, 5)))
    gen = [((1, 0), a), ((0, 1), b), ((0, 0), c)]
    return CorpusInstance("drawn", p, polys, [Fraction(0)] * 2, start, [gen],
                          TRUNCATION, N_MAX, "finite")


@settings(max_examples=30, deadline=None)
@given(systems())
def test_certified_bound_covers_escalated_scan(inst):
    report = analyze(inst.build(PRECISION))
    if report.verdict != "finite" or not report.bound_certified:
        return
    high = validate(inst.build(SCAN_PRECISION))
    assert high.n0 == report.n0
    late = [n for n in direct_orbit_scan(high, SCAN_STEPS) if n >= report.n0]
    assert len(late) <= report.bound, (late, report.bound)


# ValidationError below this: linearize needs N > T*v(a1) + 8, and v(a1) = 1 here
LADDER_HEADROOM = 9
LADDER_N_MAX = 30


@st.composite
def ladders(draw):
    """Two (N, T) rungs with N <= N' and T <= T', both valid for v(a1) = 1."""
    t, t_hi = sorted(draw(st.lists(st.integers(3, 24), min_size=2, max_size=2)))
    n = draw(st.integers(t + LADDER_HEADROOM, 128))
    n_hi = draw(st.integers(max(n, t_hi + LADDER_HEADROOM), 224))
    return (n, t), (n_hi, t_hi)


@settings(max_examples=150, deadline=None)
@given(systems(), ladders())
def test_more_precision_never_contradicts_a_certificate(inst, ladder):
    inst = dataclasses.replace(inst, n_max=LADDER_N_MAX)
    (n, t), (n_hi, t_hi) = ladder
    low = analyze(dataclasses.replace(inst, truncation=t).build(n))
    high = analyze(dataclasses.replace(inst, truncation=t_hi).build(n_hi))
    # (a) a certified count is the exact number of zeros of the true F in the ball
    if low.count_ball_valuation == high.count_ball_valuation:
        for g_low, g_high in zip(low.generators, high.generators):
            if g_low.count_certified and g_high.count_certified:
                assert g_low.zero_count == g_high.zero_count, (g_low, g_high)
    # (b) a hit at N' is a hit at N, unless the scan at N collapsed and reports none
    if "collapsed below working precision" not in (low.detail or ""):
        assert set(high.direct_hits) <= set(low.direct_hits), (low.direct_hits, high.direct_hits)
    # (c) a certified nonzero coefficient of F stays nonzero
    if low.verdict == "finite":
        assert high.verdict != "invariant_candidate", high.detail
