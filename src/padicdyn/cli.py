"""Command-line front end.

    padicdyn check <file> [--precision N] [--truncation T] [--max-iter K] [--report PATH]
    padicdyn linearize <file> --map-index i [--precision N] [--truncation T]
    padicdyn fixed-points <file> --map-index i [--precision N]
    padicdyn orbit <file> --steps K [--map-index i] [--precision N]

Exit codes for ``check``: 0 finite intersection, 1 invariant-subvariety
candidate, 2 inconclusive, 3 input or validation error.  The other subcommands
use 0/3.  A usage error (a missing argument, a flag the subcommand does not
take, a value that is not an integer) exits 3 after argparse's message;
``--help`` exits 0.  Every subcommand exits 4 on an internal error (a bug,
never a verdict), after printing ``error: internal: <type>: <message>``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import PrecisionError, ValidationError
from .checker import analyze
from .dynamics import find_fixed_points, orbit_distances
from .linearize import linearize, verify_functional_equation
from .problemfile import (
    discover_fixed_point,
    load_problem,
    read_problem,
    render_padic,
    render_report,
)

_EXIT = {"finite": 0, "invariant_candidate": 1, "inconclusive": 2}
_ERROR_EXIT = 3
_INTERNAL_EXIT = 4


def _fmt_padic(x) -> str:
    d = render_padic(x)
    if "zero" in d:
        return "0 (exact)"
    if "zero_to_valuation" in d:
        return f"O(p^{d['zero_to_valuation']})"
    ds = ",".join(str(t) for t in d["digits"])
    return f"v={d['valuation']} digits=[{ds}] prec={d['precision']}"


def _load(args, parse):
    """The problem of ``args.file``, by ``load_problem`` or ``read_problem``."""
    with open(args.file, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{args.file}: not UTF-8 text: invalid byte at offset {exc.start}"
        ) from exc
    return parse(
        text,
        path=args.file,
        precision=getattr(args, "precision", None),
        truncation=getattr(args, "truncation", None),
        max_iterations=getattr(args, "max_iter", None),
    )


def _select_map(spec, index: int):
    if not 1 <= index <= len(spec.maps):
        raise ValidationError(
            f"--map-index {index} out of range 1..{len(spec.maps)}"
        )
    return spec.maps[index - 1]


def _fixed_point(spec, index: int):
    """Map ``index``'s fixed point, discovered when the file gives none."""
    alpha = spec.fixed_points[index - 1]
    return discover_fixed_point(spec.maps[index - 1], index) if alpha is None else alpha


def _cmd_check(args) -> int:
    spec = _load(args, load_problem)
    report = analyze(spec)
    text = render_report(report, spec)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT[report.verdict]


def _cmd_linearize(args) -> int:
    spec = _load(args, read_problem)
    P = _select_map(spec, args.map_index)
    lin = linearize(P, _fixed_point(spec, args.map_index), spec.truncation)
    print(f"fixed point: {_fmt_padic(lin.fixed_point)}")
    print(f"multiplier:  {_fmt_padic(lin.multiplier)}")
    print(f"convergence radius valuation: {lin.convergence_radius_valuation}")
    print(f"isometry radius valuation:    {lin.isometry_radius_valuation}")
    residual = verify_functional_equation(lin)
    ok = residual.is_certified_zero_through_order()
    print(f"functional equation residual: {'certified zero' if ok else 'NONZERO (failure)'}")
    for n in range(1, lin.exp_series.order + 1):
        print(f"c_{n}: {_fmt_padic(lin.exp_series.coefficient(n))}")
    return 0


def _cmd_fixed_points(args) -> int:
    spec = _load(args, read_problem)
    scan = find_fixed_points(_select_map(spec, args.map_index))
    if not scan.points and not scan.unresolved_residues:
        print("no Z_p fixed points found")
    for fp in scan.points:
        line = f"{fp.classification}: point {_fmt_padic(fp.point)}; multiplier {_fmt_padic(fp.multiplier)}"
        if fp.attracting_radius_valuation is not None:
            line += f"; attracting radius valuation {fp.attracting_radius_valuation}"
        print(line)
    for a in scan.unresolved_residues:
        print(f"unresolved residue class: {a} mod {spec.ctx.prime} (Hensel criterion fails)")
    return 0


def _cmd_orbit(args) -> int:
    if args.steps < 0:
        raise ValidationError(f"--steps {args.steps} must be >= 0")
    spec = _load(args, read_problem)
    indices = range(1, len(spec.maps) + 1) if args.map_index is None else [args.map_index]
    # every map read is checked and its fixed point found before any output
    maps = [_select_map(spec, idx) for idx in indices]
    alphas = [_fixed_point(spec, idx) for idx in indices]
    for idx, P, alpha in zip(indices, maps, alphas):
        points, dists, exhausted = orbit_distances(P, alpha, spec.start[idx - 1], args.steps)
        print(f"coordinate {idx}:")
        for n, (z, d) in enumerate(zip(points, dists)):
            dv = "unresolved" if d is None else str(d)
            print(f"  n={n}: {_fmt_padic(z)}  v(P^n(x)-alpha)={dv}")
        if exhausted is not None:
            print(
                f"  distance collapsed below working precision at n={exhausted};"
                " raise --precision to iterate further"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicdyn",
        description="Exact p-adic arithmetic dynamics: linearization and"
        " certified orbit-variety intersection analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, truncation=True, max_iter=False):
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--precision", type=int, default=None, help="override working precision")
        if truncation:
            p.add_argument("--truncation", type=int, default=None, help="override truncation order")
        if max_iter:
            p.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                           help="override the direct-scan iteration cap")

    p_check = sub.add_parser("check", help="run the full intersection analysis")
    common(p_check, max_iter=True)
    p_check.add_argument("--report", default=None, help="write the report here instead of stdout")
    p_check.set_defaults(func=_cmd_check)

    p_lin = sub.add_parser("linearize", help="print the linearization of one map")
    common(p_lin)
    p_lin.add_argument("--map-index", type=int, required=True, help="1-based coordinate index")
    p_lin.set_defaults(func=_cmd_linearize)

    p_fp = sub.add_parser("fixed-points", help="scan Z_p fixed points of one map")
    common(p_fp, truncation=False)
    p_fp.add_argument("--map-index", type=int, required=True, help="1-based coordinate index")
    p_fp.set_defaults(func=_cmd_fixed_points)

    p_orb = sub.add_parser("orbit", help="print orbit points with distance valuations")
    common(p_orb, truncation=False)
    p_orb.add_argument("--steps", type=int, required=True, help="number of iterations")
    p_orb.add_argument("--map-index", type=int, default=None, help="restrict to one coordinate")
    p_orb.set_defaults(func=_cmd_orbit)
    return parser


_PARSER = build_parser()  # built once per process; each parse_args call leaves it unchanged


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the inconclusive verdict's code
        return _ERROR_EXIT if exc.code else 0
    try:
        return args.func(args)
    except (ValidationError, PrecisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR_EXIT
    except Exception as exc:  # a bug must not exit with a verdict code
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
