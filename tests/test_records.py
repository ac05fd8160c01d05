"""The result and problem records are plain classes, and importing the package
loads no code generator.

The immutable records are namedtuple subclasses and the mutable ones are
``__slots__`` classes; these tests pin the constructor defaults, equality,
hashing and immutability that callers rely on.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from padicdyn import (
    AnalysisReport,
    Ball,
    FixedPointInfo,
    FixedPointScan,
    GeneratorReport,
    PadicContext,
    Polynomial,
    SystemSpec,
    TailBound,
    ZeroCount,
    linearize,
)

SRC = Path(__file__).resolve().parent.parent / "src"
# modules that dataclasses pulls in; none of them is needed to run a check
CODE_GENERATORS = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize("module", ["padicdyn", "padicdyn.cli"])
def test_import_loads_no_code_generator(module):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules);"
        f" import {module}; print(*sorted(set(sys.modules) - before))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    added = set(out.stdout.split())
    assert module in added
    assert not added & CODE_GENERATORS


@pytest.fixture(scope="module")
def ctx():
    return PadicContext(3, 10)


def test_context_equality_and_hash(ctx):
    assert PadicContext(3, 10) == ctx and hash(PadicContext(3, 10)) == hash(ctx)
    assert PadicContext(3, 11) != ctx and PadicContext(5, 10) != ctx
    assert {ctx: "lin"}[PadicContext(3, 10)] == "lin"


@pytest.mark.parametrize("args, message", [((4, 10), "4 is not prime"),
                                           ((3, 0), "working_precision must be >= 1")])
def test_context_rejects_bad_fields(ctx, args, message):
    with pytest.raises(ValueError, match=message):
        PadicContext(*args)
    with pytest.raises(ValueError, match=message):
        ctx._replace(prime=args[0], working_precision=args[1])


@pytest.mark.parametrize("make, field", [
    (lambda ctx: ctx, "prime"),
    (lambda ctx: Ball(ctx.one(), 2), "radius_valuation"),
    (lambda ctx: TailBound(-1, 1), "offset"),
    (lambda ctx: ZeroCount(1, True), "count"),
    (lambda ctx: FixedPointInfo(ctx.zero(), ctx.integer(3), "attracting"), "point"),
    (lambda ctx: FixedPointScan([], []), "points"),
    (lambda ctx: GeneratorReport(1, "finite"), "kind"),
    (lambda ctx: AnalysisReport("finite", 0, True, True, [], 0, [0, 1], [], ctx.one(),
                                [2, 2], None, False, []), "notes"),
], ids=["PadicContext", "Ball", "TailBound", "ZeroCount", "FixedPointInfo", "FixedPointScan",
        "GeneratorReport", "AnalysisReport"])
def test_immutable_records_refuse_assignment(ctx, make, field):
    record = make(ctx)
    with pytest.raises(AttributeError):
        setattr(record, field, 7)


def test_system_spec_defaults_and_assignable_fields(ctx):
    spec = SystemSpec(ctx, [], [], [], [])
    assert (spec.truncation, spec.max_direct_iterations) == (64, 200)
    spec.maps = ["replaced"]
    assert spec.maps == ["replaced"]


def test_analysis_reports_own_their_notes(ctx):
    fields = ("finite", 0, True, True, [], 0, [0, 1], [], ctx.one(), [2, 2], None, False, [])
    first, second = AnalysisReport(*fields), AnalysisReport(*fields)
    first.notes.append("only the first")
    assert second.notes == [] and first.detail is None


def test_generator_report_defaults_equality_and_repr():
    report = GeneratorReport(1, "finite")
    assert (report.zero_count, report.count_certified, report.newton_polygon,
            report.detail) == (None, None, None, None)
    assert report == GeneratorReport(1, "finite") and report != GeneratorReport(2, "finite")
    assert repr(report) == (
        "GeneratorReport(index=1, kind='finite', zero_count=None,"
        " count_certified=None, newton_polygon=None, detail=None)"
    )


def test_linearization_identity_equality_and_repr():
    ctx = PadicContext(3, 32)
    P = Polynomial(ctx, [0, 3, 1])
    lin = linearize(P, ctx.zero(), 8)
    assert lin == lin and lin != linearize(P, ctx.zero(), 8)
    assert re.fullmatch(r"Linearization\(T=8, v\(a1\)=1, m0=\d+\)", repr(lin))
