"""Problem files and report documents.

A problem file is a JSON document:

    {
      "prime": 3,
      "precision": 128,          // optional, default 128
      "truncation": 64,          // optional, default 64
      "max_iterations": 200,     // optional, default 200
      "polynomials": [["0", "3", "1"], ["0", "3", "1"]],
      "fixed_points": ["0", "0"],   // optional: discovered when absent
      "start": ["3", "9"],
      "variety": [
        [ {"exponents": [1, 0], "coefficient": "1"},
          {"exponents": [0, 1], "coefficient": "-1"} ]
      ]
    }

Coefficients are exact rationals: a JSON integer, or a string of an optional
sign, ASCII digits, and optionally "/" and more ASCII digits ("3", "-3/4",
"+3", "0/5").  Nothing else is read as a number: decimals and JSON floats,
exponents, "_" separators, whitespace, non-ASCII digits and a zero denominator
are validation errors.  Polynomial coefficient lists are degree-ascending.
Reports are rendered as canonical JSON (sorted keys, fixed separators) so
byte-identical reruns are a guarantee, and instances double as golden-file
fixtures.
"""

from __future__ import annotations

import json
import math
import re

from .errors import ValidationError
from .padic import PadicContext, PadicNumber
from .dynamics import ATTRACTING, Polynomial, find_fixed_points
from .multipoly import MultivariatePoly
from .checker import DEFAULT_MAX_ITERATIONS, DEFAULT_TRUNCATION, AnalysisReport, SystemSpec

REPORT_SCHEMA_VERSION = 1

DEFAULT_PRECISION = 128


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool (true/false are ints in Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# an error message quotes at most this many characters of a refused value
_QUOTE_CHARS = 40


def _quote(value) -> str:
    """``value`` for an error message: its repr, cut to _QUOTE_CHARS characters
    and followed by its length when it is longer."""
    text = repr(value)
    if len(text) <= _QUOTE_CHARS:
        return text
    size = len(value) if isinstance(value, (str, list, dict)) else len(text)
    return f"{text[:_QUOTE_CHARS]}... (length {size})"


def _rational_parts(text, where: str) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms, denominator positive."""
    if _is_int(text):
        return text, 1
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValidationError(f"{where}: {_quote(text)} is not an exact rational")
    num, den = match.groups()
    try:
        num = int(num)
        den = int(den) if den else 1
    except ValueError as exc:  # more digits than int() converts
        raise ValidationError(f"{where}: {exc}") from exc
    if den == 0:
        raise ValidationError(f"{where}: {_quote(text)} has a zero denominator")
    g = math.gcd(num, den)
    return num // g, den // g


def _parse_rational(ctx: PadicContext, text, where: str) -> PadicNumber:
    return ctx.from_rational(*_rational_parts(text, where))


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ValidationError(f"{path}: missing required field {key!r}")
    return doc[key]


def _rationals(ctx: PadicContext, items, key: str, g: int, path: str) -> list[PadicNumber]:
    """``items``, the document's field ``key``, as a list of g rationals."""
    if not isinstance(items, list) or len(items) != g:
        raise ValidationError(f"{path}: {key} must list {g} rationals")
    return [_parse_rational(ctx, s, f"{path}: {key}[{i}]") for i, s in enumerate(items, start=1)]


def load_problem(text: str, path: str = "problem",
                 precision: int | None = None, truncation: int | None = None,
                 max_iterations: int | None = None) -> SystemSpec:
    """Parse a problem document into a SystemSpec (overrides win over fields).

    ``read_problem``, then, when the document has no ``fixed_points``,
    ``discover_fixed_point`` for each map in order.
    """
    spec = read_problem(text, path, precision, truncation, max_iterations)
    spec.fixed_points = [
        discover_fixed_point(P, i) if alpha is None else alpha
        for i, (P, alpha) in enumerate(zip(spec.maps, spec.fixed_points), start=1)
    ]
    return spec


def read_problem(text: str, path: str = "problem",
                 precision: int | None = None, truncation: int | None = None,
                 max_iterations: int | None = None) -> SystemSpec:
    """The SystemSpec of a document, without discovery: when the document has
    no ``fixed_points``, every entry of the spec's ``fixed_points`` is None,
    for a caller to discover only for the maps it reads."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer with more digits than int() converts
        raise ValidationError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be an object")
    prime = _require(doc, "prime", path)
    if not _is_int(prime):
        raise ValidationError(f"{path}: prime must be an integer")
    n = precision if precision is not None else doc.get("precision", DEFAULT_PRECISION)
    t = truncation if truncation is not None else doc.get("truncation", DEFAULT_TRUNCATION)
    n_max = (
        max_iterations
        if max_iterations is not None
        else doc.get("max_iterations", DEFAULT_MAX_ITERATIONS)
    )
    if not (_is_int(n) and n >= 1):
        raise ValidationError(f"{path}: precision must be a positive integer")
    if not (_is_int(t) and t >= 1):
        raise ValidationError(f"{path}: truncation must be a positive integer")
    if not (_is_int(n_max) and n_max >= 0):
        raise ValidationError(f"{path}: max_iterations must be a non-negative integer")
    try:
        ctx = PadicContext(prime, n)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc

    polys_doc = _require(doc, "polynomials", path)
    if not isinstance(polys_doc, list) or not polys_doc:
        raise ValidationError(f"{path}: polynomials must be a nonempty list")
    maps = []
    for i, coeffs in enumerate(polys_doc, start=1):
        if not isinstance(coeffs, list) or len(coeffs) < 2:
            raise ValidationError(
                f"{path}: polynomials[{i}] must list at least two coefficients"
            )
        maps.append(
            Polynomial(ctx, [
                _parse_rational(
                    ctx, c, f"{path}: polynomials[{i}][{j}] (coefficient of X^{j})"
                )
                for j, c in enumerate(coeffs)
            ])
        )
    g = len(maps)

    start = _rationals(ctx, _require(doc, "start", path), "start", g, path)
    if "fixed_points" in doc:
        fixed_points = _rationals(ctx, doc["fixed_points"], "fixed_points", g, path)
    else:
        fixed_points = [None] * g

    variety_doc = _require(doc, "variety", path)
    if not isinstance(variety_doc, list) or not variety_doc:
        raise ValidationError(f"{path}: variety must be a nonempty list of generators")
    variety = []
    for j, gen in enumerate(variety_doc, start=1):
        if not isinstance(gen, list) or not gen:
            raise ValidationError(f"{path}: variety[{j}] must be a nonempty term list")
        terms = {}
        for k, term in enumerate(gen, start=1):
            where = f"{path}: variety[{j}][{k}]"
            if not isinstance(term, dict):
                raise ValidationError(f"{where}: term must be an object")
            expo = _require(term, "exponents", where)
            coeff = _require(term, "coefficient", where)
            if not (isinstance(expo, list) and len(expo) == g):
                raise ValidationError(f"{where}: exponents must list {g} integers")
            for e in expo:
                if not (_is_int(e) and e >= 0):
                    raise ValidationError(
                        f"{where}: exponent {_quote(e)} is not a non-negative integer"
                    )
            key = tuple(expo)
            if key in terms:
                raise ValidationError(f"{where}: duplicate exponent vector {key}")
            terms[key] = _parse_rational(ctx, coeff, where)
        variety.append(MultivariatePoly(ctx, g, terms))

    return SystemSpec(ctx, maps, fixed_points, start, variety, t, n_max)


def discover_fixed_point(P: Polynomial, index: int) -> PadicNumber:
    """The one attracting Z_p fixed point of P, polynomial ``index`` (1-based)
    of the document; ValidationError naming the polynomial otherwise."""
    try:
        scan = find_fixed_points(P)
    except ValidationError as exc:
        raise ValidationError(
            f"polynomial {index}: {exc}; specify fixed_points explicitly"
        ) from exc
    attracting = [fp for fp in scan.points if fp.classification == ATTRACTING]
    if len(attracting) == 1:
        return attracting[0].point
    if not attracting:
        unresolved = ", ".join(str(a) for a in scan.unresolved_residues)
        classes = f" (unresolved residue classes mod p: {unresolved})" if unresolved else ""
        raise ValidationError(
            f"polynomial {index}: no attracting fixed point found in Z_p{classes};"
            " specify fixed_points explicitly"
        )
    raise ValidationError(
        f"polynomial {index}: {len(attracting)} attracting fixed points found;"
        " specify fixed_points explicitly"
    )


# -- rendering -----------------------------------------------------------------

_RENDER_DIGITS = 8  # leading base-p digits shown for each p-adic value


def render_padic(x: PadicNumber) -> dict:
    """Diff-stable rendering: valuation, leading base-p digits, precision."""
    if x.is_exact_zero:
        return {"zero": "exact"}
    if x.is_zero_to_precision:
        return {"zero_to_valuation": x.zero_bound}
    return {
        "valuation": x.valuation,
        "digits": x.digits(_RENDER_DIGITS),
        "precision": x.relative_precision,
    }


def render_report(report: AnalysisReport, spec: SystemSpec) -> str:
    """Canonical JSON report document (byte-identical across reruns)."""
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "parameters": {
            "prime": spec.ctx.prime,
            "precision": spec.ctx.working_precision,
            "truncation": spec.truncation,
            "max_iterations": spec.max_direct_iterations,
            "coordinates": len(spec.maps),
        },
        "multiplier": render_padic(report.multiplier),
        "isometry_radius_valuations": report.isometry_radii,
        "n0": report.n0,
        "reindexing": [i + 1 for i in report.reindexing],
        "lambdas": [render_padic(l) for l in report.lambdas],
        "direct_hits": report.direct_hits,
        "count_ball_valuation": report.count_ball_valuation,
        "degenerate": report.degenerate,
        "generators": [
            {
                "index": g.index,
                "kind": g.kind,
                "zero_count": g.zero_count,
                "count_certified": g.count_certified,
                "newton_polygon": g.newton_polygon,
                "detail": g.detail,
            }
            for g in report.generators
        ],
        "overall": {
            "verdict": report.verdict,
            "bound": report.bound,
            "bound_certified": report.bound_certified,
            "complete": report.complete,
            "detail": report.detail,
        },
        "notes": report.notes,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
