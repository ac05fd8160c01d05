"""Exact rationals in problem files, the report's slope text, and v_p of large inputs.

A problem-file rational is a JSON integer or a string of the grammar
``[+-]?[0-9]+(/[0-9]+)?``.  ``fractions.Fraction`` is the reference for both
the values that grammar denotes and the text of a report slope; the package
itself does not import it on the check path.
"""

import copy
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import PadicContext, TruncatedSeries, ValidationError
from padicdyn.checker import _slope_text
from padicdyn.cli import main
from padicdyn.padic import _split_p
from padicdyn.problemfile import _rational_parts

from test_cli import DIAG, write

GRAMMAR = r"[+-]?[0-9]+(/[0-9]+)?"

ACCEPTED = ["3", "-3/4", "+3", "0/5", "-0", "007/014", 3, -3, 0]

REFUSED = [
    "0.5",       # decimal
    "3.",        # decimal
    0.5,         # JSON float
    3.0,         # JSON float with an integral value
    "1e3",       # exponent
    "1E-3",      # exponent
    " 3",        # surrounding whitespace
    "3\n",       # surrounding whitespace
    "٣",    # ARABIC-INDIC DIGIT THREE
    "３",    # FULLWIDTH DIGIT THREE
    "1_000",     # digit separator (Fraction takes it on Python 3.11+)
    "1 / 3",     # spaces around the slash (Fraction takes it on Python 3.12+)
    "1/0",       # zero denominator
    "3/-4",      # signed denominator
    True,        # JSON boolean
    None,
    "",
    ["3"],
]

# a field of each kind that holds a rational, by the name the error message
# gives it (a polynomial coefficient is named by its degree)
FIELDS = {
    "polynomials[1][2]": lambda doc, v: doc["polynomials"][0].__setitem__(2, v),
    "fixed_points[2]": lambda doc, v: doc["fixed_points"].__setitem__(1, v),
    "start[1]": lambda doc, v: doc["start"].__setitem__(0, v),
    "variety[1][2]": lambda doc, v: doc["variety"][0][1].__setitem__("coefficient", v),
}


def check(tmp_path, capsys, doc):
    code = main(["check", write(tmp_path, "problem.json", doc)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("value", ACCEPTED, ids=repr)
def test_accepted_forms_give_the_report_of_their_reduced_form(tmp_path, capsys, value):
    doc = copy.deepcopy(DIAG)
    doc["variety"][0][1]["coefficient"] = value
    code, out, err = check(tmp_path, capsys, doc)
    assert code in (0, 1, 2) and err == ""
    doc["variety"][0][1]["coefficient"] = str(Fraction(str(value)))
    assert check(tmp_path, capsys, doc) == (code, out, err)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("value", REFUSED, ids=repr)
def test_refused_forms_exit_3_naming_the_field(tmp_path, capsys, field, value):
    doc = copy.deepcopy(DIAG)
    FIELDS[field](doc, value)
    code, out, err = check(tmp_path, capsys, doc)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


@pytest.fixture
def int_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


def test_more_digits_than_int_converts_exit_3(tmp_path, capsys, int_digit_limit):
    digits = "1" * (int_digit_limit + 1)
    doc = copy.deepcopy(DIAG)
    doc["start"][0] = digits
    code, out, err = check(tmp_path, capsys, doc)
    assert code == 3 and out == "" and "start[1]" in err
    # a JSON integer that long fails in the JSON reader: still exit 3, not 4
    path = tmp_path / "long.json"
    path.write_text(json.dumps(DIAG).replace('"9"', digits, 1))
    assert main(["check", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: ")


@settings(max_examples=400, deadline=None)
@given(st.from_regex(GRAMMAR, fullmatch=True))
def test_grammar_strings_match_fraction(text):
    try:
        reference = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ValidationError, match="zero denominator"):
            _rational_parts(text, "x")
        return
    assert _rational_parts(text, "x") == (reference.numerator, reference.denominator)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789+-/ ._eE٣\n", max_size=12))
def test_accepted_strings_are_a_subset_of_fraction(text):
    try:
        parts = _rational_parts(text, "x")
    except ValidationError:
        return
    reference = Fraction(text)
    assert parts == (reference.numerator, reference.denominator)


def test_slope_text_grid():
    for rise in range(-60, 61):
        for run in range(1, 61):
            assert _slope_text(rise, run) == str(Fraction(rise, run)), (rise, run)


def test_newton_polygon_is_hull_segments_as_fractions():
    ctx = PadicContext(3, 40)
    rng = random.Random(7)
    for _ in range(50):
        coeffs = [rng.choice([0, 1, 2, 3, 9, 27, 81, 5, -6, 243]) for _ in range(12)]
        f = TruncatedSeries.from_coefficients(ctx, coeffs)
        if not any(coeffs):
            continue
        segments = f.hull_segments()
        assert all(run > 0 for _, run in segments)
        # slopes rise/run strictly ascending, compared without Fraction
        assert all(r1 * n2 < r2 * n1 for (r1, n1), (r2, n2) in zip(segments, segments[1:]))


def reference_split(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def test_split_p_matches_the_division_loop():
    rng = random.Random(11)
    for _ in range(2000):
        p = rng.choice([2, 3, 5, 7, 101, 65537])
        n = rng.randint(1, 10**rng.randint(1, 30)) * p**rng.randint(0, 200)
        n *= rng.choice([1, -1])
        assert _split_p(n, p) == reference_split(n, p), (n, p)


def test_large_power_of_p_loads_within_budget():
    # one division per factor of p takes about 4 s at this size, doubling 0.05 s
    ctx = PadicContext(5, 128)
    t0 = time.perf_counter()
    x = ctx.from_rational(10**60000)
    y = ctx.from_rational(3, 10**60000)
    elapsed = time.perf_counter() - t0
    assert (x.valuation, y.valuation) == (60000, -60000)
    pk = 5**128
    assert x._u == pow(2, 60000, pk)
    assert y._u == 3 * pow(2, -60000, pk) % pk
    assert elapsed < 1.0, elapsed
