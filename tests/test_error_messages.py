"""Error messages for refused problem-file values stay short and say which base
each index uses.

A refused value is quoted to at most 40 characters, followed by its length, so
a 200,000-letter field gives a one-line message rather than a 200 kB one.  A
polynomial coefficient is named ``polynomials[i][j]`` with a 1-based
polynomial index and a 0-based degree, so the message also says
``(coefficient of X^j)``.
"""

import copy

import pytest

from padicdyn.cli import main

from test_cli import DIAG, write


def check(tmp_path, capsys, doc):
    code = main(["check", write(tmp_path, "problem.json", doc)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("value", ["a" * 200_000, "1/" + "x" * 200_000, ["3"] * 50_000])
def test_a_long_refused_start_gives_a_short_error_line(tmp_path, capsys, value):
    doc = copy.deepcopy(DIAG)
    doc["start"][0] = value
    code, out, err = check(tmp_path, capsys, doc)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 300
    assert "start[1]" in err and f"(length {len(value)})" in err


def test_a_short_refused_value_is_quoted_whole(tmp_path, capsys):
    doc = copy.deepcopy(DIAG)
    doc["start"][0] = "0.5"
    code, _, err = check(tmp_path, capsys, doc)
    assert code == 3 and "start[1]: '0.5' is not an exact rational" in err
    assert "length" not in err


def test_a_long_refused_exponent_gives_a_short_error_line(tmp_path, capsys):
    doc = copy.deepcopy(DIAG)
    doc["variety"][0][0]["exponents"][0] = "9" * 100_000
    code, out, err = check(tmp_path, capsys, doc)
    assert code == 3 and out == "" and len(err.encode()) < 300
    assert "variety[1][1]" in err and "(length 100000)" in err


def test_a_refused_coefficient_is_named_by_its_degree(tmp_path, capsys):
    doc = copy.deepcopy(DIAG)
    doc["polynomials"][0][2] = "x"
    code, _, err = check(tmp_path, capsys, doc)
    assert code == 3
    assert "polynomials[1][2] (coefficient of X^2): 'x' is not an exact rational" in err
