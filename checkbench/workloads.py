"""Seeded problem files for the benchmark workloads.

Every instance is built in exact ``Fraction`` arithmetic and carries its known
verdict (and, for constructed hits, the orbit index of the hit), so answers
are checked without trusting any p-adic code.  The construction follows the
acceptance corpus: attracting maps with multiplier exactly p at 0, optionally
conjugated to a nonzero fixed point.

The cost of a check is set by its slot (kind, prime, truncation, precision,
scan cap, map degrees) and by the start valuations, which are fixed per kind;
the seed only picks the small map coefficients, the start units and the hit
index.  So every seed gives a round of the same shape and nearly the same
cost, which keeps the timings comparable from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

@dataclass
class Instance:
    name: str
    doc: dict             # the problem document the program sees
    verdict: str          # known answer
    hit_index: int | None  # orbit index of a constructed hit, if any

    def problem_json(self) -> str:
        return json.dumps(self.doc, indent=1)


@dataclass(frozen=True)
class Slot:
    kind: str
    prime: int
    truncation: int
    precision: int
    max_iterations: int
    degrees: tuple
    omit_fixed_points: bool = False


# Slots that omit fixed_points use only the maps X^2 + pX (and conjugates):
# their other fixed point 1 - p has the unit multiplier 2 - p, so discovery
# in load_problem finds exactly one attracting fixed point.
_CORPUS_KINDS = ("diagonal", "split", "hit2", "diag3", "hit3", "shifted_hit", "split_mixed")
_CORPUS_SHAPES = {
    3: [(16, (4, 4), False), (24, (2, 3), False), (32, (3, 2), False), (16, (2, 2, 5), False),
        (24, (2, 3, 2), False), (32, (2, 2), True), (16, (5, 3), False)],
    5: [(24, (2, 2), True), (32, (4, 2), False), (16, (2, 5), False), (24, (3, 3, 2), False),
        (32, (2, 2, 2), True), (16, (3, 2), False), (24, (2, 4), False)],
    7: [(32, (3, 3), False), (16, (2, 2), True), (24, (4, 3), False), (32, (2, 2, 4), False),
        (16, (3, 2, 5), False), (24, (4, 2), False), (32, (2, 2), True)],
}

SLOTS = {
    "corpus_mixed": [
        Slot(kind, p, t, 128, 100, degrees, omit)
        for p in (3, 5, 7)
        for kind, (t, degrees, omit) in zip(_CORPUS_KINDS, _CORPUS_SHAPES[p])
    ],
    "scan_long": [
        Slot("hit3", 3, 8, 2048, 400, (2, 3, 2)),
        Slot("split3", 5, 8, 2048, 400, (2, 2, 3)),
        Slot("collapse", 3, 8, 512, 700, (2, 2, 2)),
        Slot("hit3", 7, 8, 1024, 600, (2, 2, 2), True),
        Slot("split3", 3, 8, 1024, 600, (3, 2, 2)),
        Slot("hit3", 5, 8, 1024, 400, (2, 2, 2)),
        Slot("split3", 7, 8, 1024, 600, (2, 2, 2)),
    ],
}

# The three golden problems of the test suite, with their known answers.
_GOLDEN_DOCS = [
    ("golden-diagonal", "invariant_candidate", None, {
        "prime": 3, "precision": 96, "truncation": 24, "max_iterations": 30,
        "polynomials": [["0", "3", "1"], ["0", "3", "1"]],
        "fixed_points": ["0", "0"], "start": ["9", "9"],
        "variety": [[{"exponents": [1, 0], "coefficient": "1"},
                     {"exponents": [0, 1], "coefficient": "-1"}]],
    }),
    ("golden-hyperplane", "finite", 3, {
        "prime": 3, "precision": 96, "truncation": 24, "max_iterations": 30,
        "polynomials": [["0", "3", "1"], ["0", "3", "2", "1"]],
        "start": ["3", "9"],
        "variety": [[{"exponents": [1, 0], "coefficient": "1"},
                     {"exponents": [0, 0], "coefficient": "-144018"}]],
    }),
    ("golden-exhausted", "inconclusive", None, {
        "prime": 3, "precision": 32, "truncation": 12, "max_iterations": 60,
        "polynomials": [["-1", "1", "1"], ["0", "3", "1"]],
        "fixed_points": ["1", "0"], "start": ["4", "9"],
        "variety": [[{"exponents": [1, 0], "coefficient": "1"},
                     {"exponents": [0, 1], "coefficient": "-1"}]],
    }),
]


def _eval_poly(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _orbit_point(coeffs, x: Fraction, n: int) -> Fraction:
    for _ in range(n):
        x = _eval_poly(coeffs, x)
    return x


def _shift(coeffs, c: Fraction):
    """Coefficients of P(X - c) + c, the map conjugated to fix c."""
    out = list(coeffs)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] = out[j] + (-c) * out[j + 1]
    out[0] += c
    return out


def _map(rng, p, degree):
    """X^degree + ... + pX; the middle coefficients are small units."""
    middle = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(degree - 2)]
    return [Fraction(0), Fraction(p)] + middle + [Fraction(1)]


def _unit(rng, p):
    u = rng.randint(1, 3 * p)
    while u % p == 0:
        u = rng.randint(1, 3 * p)
    return u


def _start(rng, p, valuation):
    return Fraction(_unit(rng, p) * p**valuation)


def _hit_index(degrees):
    """Largest index that keeps exact orbit constants short (digits grow like deg**k)."""
    return {2: 7, 3: 5, 4: 4}.get(max(degrees), 3)


def _linear(g, coeffs):
    """Generator sum c_i x_i + c_0 from {i: c_i} (i = -1 is the constant)."""
    terms = []
    for i, c in coeffs.items():
        expo = [0] * g
        if i >= 0:
            expo[i] = 1
        terms.append((tuple(expo), c))
    return terms


def _build(rng, slot: Slot):
    """(polys, fixed_points, start, variety, verdict, hit_index) for one slot."""
    p, g = slot.prime, len(slot.degrees)
    polys = [_map(rng, p, d) for d in slot.degrees]
    fps = [Fraction(0)] * g
    kind = slot.kind
    if kind in ("diagonal", "diag3"):
        polys[1] = polys[0]
        s = _start(rng, p, 1)
        start = [s, s] + [_start(rng, p, 2) for _ in range(g - 2)]
        return polys, fps, start, [_linear(g, {0: Fraction(1), 1: Fraction(-1)})], \
            "invariant_candidate", None
    if kind in ("split", "split_mixed", "split3"):
        # distinct start valuations keep x_i != x_j along the whole orbit
        start = [_start(rng, p, 1 + i) for i in range(g)]
        c = Fraction(2 if kind == "split_mixed" else 1)
        gens = [_linear(g, {i: c, i + 1: -c}) for i in range(g - 1)]
        return polys, fps, start, gens, "finite", None
    k = rng.randint(3, _hit_index(slot.degrees))
    start = [_start(rng, p, 1) for _ in range(g)]
    if kind in ("shifted_hit", "collapse"):
        # coordinate 1 is conjugated to a unit fixed point c; at a unit fixed
        # point the orbit collapses to c after about `precision` steps
        c = Fraction(rng.randint(1, p - 1))
        polys[0] = _shift(polys[0], c)
        fps[0] = c
        start[0] = c + _start(rng, p, 1)
    consts = [_orbit_point(q, s, k) for q, s in zip(polys, start)]
    hit_coords = [0] if kind == "shifted_hit" else range(g)
    gens = [_linear(g, {i: Fraction(1), -1: -consts[i]}) for i in hit_coords]
    if kind == "collapse":
        return polys, fps, start, gens, "inconclusive", None
    return polys, fps, start, gens, "finite", k


def _doc(slot: Slot, polys, fps, start, variety) -> dict:
    doc = {
        "prime": slot.prime,
        "precision": slot.precision,
        "truncation": slot.truncation,
        "max_iterations": slot.max_iterations,
        "polynomials": [[str(c) for c in cs] for cs in polys],
        "fixed_points": [str(a) for a in fps],
        "start": [str(s) for s in start],
        "variety": [
            [{"exponents": list(expo), "coefficient": str(c)} for expo, c in gen]
            for gen in variety
        ],
    }
    if slot.omit_fixed_points:
        del doc["fixed_points"]
    return doc


def generate(workload: str, seed: int) -> list:
    """One round of the workload: the same seed always gives the same files."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for i, slot in enumerate(SLOTS[workload]):
        polys, fps, start, variety, verdict, hit = _build(rng, slot)
        name = f"{i:02d}-{slot.kind}-p{slot.prime}-T{slot.truncation}-N{slot.precision}"
        out.append(Instance(name, _doc(slot, polys, fps, start, variety), verdict, hit))
    if workload == "corpus_mixed":
        out += [Instance(name, doc, verdict, hit) for name, verdict, hit, doc in _GOLDEN_DOCS]
    return out
