"""CLI behavior: exit codes, report determinism, subcommand output."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import padicdyn.cli
from padicdyn.cli import main

ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


DIAG = {
    "prime": 3,
    "precision": 96,
    "truncation": 24,
    "max_iterations": 30,
    "polynomials": [["0", "3", "1"], ["0", "3", "1"]],
    "fixed_points": ["0", "0"],
    "start": ["9", "9"],
    "variety": [
        [
            {"exponents": [1, 0], "coefficient": "1"},
            {"exponents": [0, 1], "coefficient": "-1"},
        ]
    ],
}


def hyperplane_doc():
    # constant chosen as P^3(3) for P = 3X + X^2: 3 -> 18 -> 378 -> 144018
    x = 3
    for _ in range(3):
        x = 3 * x + x * x
    assert x == 144018
    return {
        "prime": 3,
        "precision": 96,
        "truncation": 24,
        "max_iterations": 30,
        "polynomials": [["0", "3", "1"], ["0", "3", "1"]],
        "start": ["3", "9"],
        "variety": [
            [
                {"exponents": [1, 0], "coefficient": "1"},
                {"exponents": [0, 0], "coefficient": str(-x)},
            ]
        ],
    }


class TestCheck:
    def test_diagonal_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "diag.json", DIAG)
        assert main(["check", path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"]["verdict"] == "invariant_candidate"
        assert doc["schema_version"] == 1

    def test_hyperplane_exit_0_with_hit(self, tmp_path, capsys):
        path = write(tmp_path, "hyp.json", hyperplane_doc())
        assert main(["check", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"]["verdict"] == "finite"
        assert doc["direct_hits"] == [3]
        assert doc["overall"]["bound_certified"] is True

    def test_unequal_multipliers_exit_3(self, tmp_path, capsys):
        doc = dict(DIAG)
        doc["polynomials"] = [["0", "3", "1"], ["0", "9", "1"]]
        path = write(tmp_path, "bad.json", doc)
        assert main(["check", path]) == 3
        err = capsys.readouterr().err
        assert "multiplier" in err

    @pytest.mark.parametrize("p,a2,order", [
        (3, "-3", 2),  # zeta = -1
        (2, "-2", 2),  # -1 is 1 mod 2: the order is read as 2, not from the digit
        (3, "9", None),  # the valuations differ: no ratio
        (5, "10", None),  # zeta = 2 has order 4 mod 5, but 2^4 - 1 is not zero
    ])
    def test_multipliers_that_differ_by_a_root_of_unity_name_it(self, tmp_path, capsys, p, a2, order):
        doc = dict(DIAG, prime=p, precision=256, truncation=8,
                   polynomials=[["0", str(p), "1"], ["0", a2, "1"]], start=[str(p * p)] * 2)
        assert main(["check", write(tmp_path, "zeta.json", doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        v2 = 2 if a2 == "9" else 1
        assert (f"coordinate 2 has v={v2}, expected the multiplier of coordinate 1 (v=1);"
                f" leading base-{p} digits: a_2 [") in captured.err
        assert ("zeta = a_2/a_1 [" in captured.err) == (a2 != "9")
        if order is None:
            assert "root of unity" not in captured.err
        else:
            assert (f"zeta^{order} = 1 to precision, so zeta is a root of unity of order {order};"
                    f" Phi^{order}, the system map applied {order} times, has the one multiplier"
                    f" a_1^{order}, so check Phi^{order} from each of x and Phi(x)") in captured.err

    def test_malformed_file_exit_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 3
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("data, offset", [
        (b'\xff\xfe{"prime": 3}', 0),
        (b'{"prime": 3, "name": "\xe9t\xe9"}', 22),
    ])
    def test_non_utf8_file_exit_3(self, tmp_path, capsys, data, offset):
        path = tmp_path / "latin1.json"
        path.write_bytes(data)
        assert main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text: invalid byte at offset {offset}\n"

    def test_missing_field_diagnostic(self, tmp_path, capsys):
        doc = dict(DIAG)
        del doc["start"]
        path = write(tmp_path, "missing.json", doc)
        assert main(["check", path]) == 3
        assert "start" in capsys.readouterr().err

    def test_report_file_determinism(self, tmp_path):
        path = write(tmp_path, "diag.json", DIAG)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["check", path, "--report", str(out1)]) == 1
        assert main(["check", path, "--report", str(out2)]) == 1
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_overrides(self, tmp_path, capsys):
        path = write(tmp_path, "diag.json", DIAG)
        assert main(["check", path, "--precision", "80", "--truncation", "16",
                     "--max-iter", "10"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["parameters"]["precision"] == 80
        assert doc["parameters"]["truncation"] == 16
        assert doc["direct_hits"] == list(range(11))


@pytest.mark.parametrize("field, value, message", [
    ("exponent", -1, "variety[1][1]"),
    ("exponent", "x", "variety[1][1]"),
    ("exponent", 1.5, "variety[1][1]"),
    ("exponent", True, "variety[1][1]"),
    ("prime", True, "prime"),
    ("precision", True, "precision"),
    ("truncation", True, "truncation"),
    ("truncation", 24.0, "truncation"),
    ("max_iterations", False, "max_iterations"),
    ("max_iterations", 2.5, "max_iterations"),
    # psi_12: a strong pseudoprime to the bases 2..37, exposed by base 41
    ("prime", 318665857834031151167461, "not prime"),
    # psi_13: beyond the range the Miller-Rabin bases decide
    ("prime", 3317044064679887385961981, "primality range"),
])
def test_malformed_input_exit_3(tmp_path, capsys, field, value, message):
    doc = copy.deepcopy(DIAG)
    if field == "exponent":
        doc["variety"][0][0]["exponents"] = [value, 0]
    else:
        doc[field] = value
    path = write(tmp_path, "bad.json", doc)
    assert main(["check", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_discovery_above_the_prime_bound_exits_3_quickly(tmp_path):
    # in a process of its own: a scan of every residue mod p would run for hours
    p = 1_000_000_007
    doc = copy.deepcopy(DIAG)
    del doc["fixed_points"]
    doc["prime"] = p
    doc["polynomials"] = [["0", str(p), "1"], ["0", str(p), "1"]]
    doc["start"] = [str(p), str(p * p)]
    path = write(tmp_path, "big.json", doc)
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import padicdyn.cli;"
        " t = time.perf_counter(); c = padicdyn.cli.main(['check', sys.argv[2]]);"
        " print(time.perf_counter() - t); sys.exit(c)"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src"), path],
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 3 and float(out.stdout) < 1
    assert out.stderr.startswith("error: polynomial 1: fixed-point discovery")
    assert "fixed_points" in out.stderr


def test_discovery_above_the_work_bound_exits_3_quickly(tmp_path):
    # X^512 + ... + X^2 + pX at the largest prime under the prime bound: the
    # residue scan would take p * 513 steps, minutes of work
    p = 1_048_573
    doc = copy.deepcopy(DIAG)
    del doc["fixed_points"]
    doc["prime"] = p
    doc["polynomials"] = [["0", str(p)] + ["1"] * 511, ["0", str(p), "1"]]
    doc["start"] = [str(p), str(p * p)]
    path = write(tmp_path, "long.json", doc)
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import padicdyn.cli;"
        " t = time.perf_counter(); c = padicdyn.cli.main(['check', sys.argv[2]]);"
        " print(time.perf_counter() - t); sys.exit(c)"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src"), path],
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 3 and float(out.stdout) < 1
    assert out.stderr.startswith("error: polynomial 1: fixed-point discovery")
    assert "p (deg P + 1) <= " in out.stderr and "fixed_points" in out.stderr


@pytest.mark.parametrize("p, n", [(211, 128), (37, 2048)])
def test_discovery_above_the_lift_bound_exits_3_quickly(tmp_path, p, n):
    # X^p fixes every residue mod p, each a simple root: lifting all p of them
    # took 40 s at p = 211 and 19 s at p = 37, N = 2048
    doc = copy.deepcopy(DIAG)
    del doc["fixed_points"]
    doc["prime"] = p
    doc["precision"] = n
    doc["polynomials"] = [["0"] * p + ["1"], ["0", str(p), "1"]]
    doc["start"] = [str(p), str(p * p)]
    path = write(tmp_path, "roots.json", doc)
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import padicdyn.cli;"
        " t = time.perf_counter(); c = padicdyn.cli.main(['check', sys.argv[2]]);"
        " print(time.perf_counter() - t); sys.exit(c)"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src"), path],
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 3 and float(out.stdout) < 2
    assert out.stderr.startswith("error: polynomial 1: fixed-point discovery lifts")
    assert f"r = {p - 1}, z = 1, deg P = {p} and N = {n}" in out.stderr
    assert "fixed_points" in out.stderr


def test_discovery_names_the_unresolved_classes(tmp_path, capsys):
    doc = copy.deepcopy(DIAG)
    del doc["fixed_points"]
    doc["polynomials"][0] = ["0", "3", "1/3"]
    path = write(tmp_path, "third.json", doc)
    assert main(["check", path]) == 3
    err = capsys.readouterr().err
    assert "(unresolved residue classes mod p: 0)" in err and "fixed_points" in err


def test_subcommands_discover_only_the_maps_they_read(tmp_path, capsys):
    # map 1, X^2/3 + 3X at p = 3, has no discoverable attracting fixed point
    doc = copy.deepcopy(DIAG)
    del doc["fixed_points"]
    doc["polynomials"] = [["0", "3", "1/3"], ["0", "3", "1"], ["0", "3", "2"]]
    doc["start"] = ["9", "9", "3"]
    doc["variety"] = [[{"exponents": [1, 0, 0], "coefficient": "1"},
                       {"exponents": [0, 1, 0], "coefficient": "-1"}]]
    path = write(tmp_path, "third.json", doc)
    failure = "error: polynomial 1: no attracting fixed point found in Z_p"
    for args in (["fixed-points", path, "--map-index", "1"],
                 ["fixed-points", path, "--map-index", "2"],
                 ["linearize", path, "--map-index", "2"],
                 ["orbit", path, "--steps", "3", "--map-index", "3"]):
        assert main(args) == 0, args
        out, err = capsys.readouterr()
        assert out and err == "", args
    for args in (["check", path],
                 ["linearize", path, "--map-index", "1"],
                 ["orbit", path, "--steps", "3"]):
        assert main(args) == 3, args
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(failure), args


def test_document_errors_come_before_discovery_errors(tmp_path, capsys):
    # map 1 has no discoverable fixed point, and the variety is malformed:
    # the whole document is read before any fixed point is discovered
    doc = copy.deepcopy(DIAG)
    del doc["fixed_points"]
    doc["polynomials"][0] = ["0", "3", "1/3"]
    doc["variety"] = []
    path = write(tmp_path, "both.json", doc)
    assert main(["check", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: variety must be a nonempty list of generators\n"


@pytest.mark.parametrize("args", [
    [],
    ["check"],
    ["check", "{path}", "--precision", "x"],
    ["check", "{path}", "--unknown"],
    ["linearize", "{path}"],
    ["fixed-points", "{path}", "--map-index", "1", "--truncation", "8"],
    ["orbit", "{path}", "--steps", "2", "--truncation", "8"],
], ids=["no-command", "check-no-file", "precision-not-int", "unknown-flag",
        "linearize-no-map-index", "fixed-points-truncation", "orbit-truncation"])
def test_usage_errors_exit_3(tmp_path, capsys, args):
    # argparse's own exit code, 2, is the inconclusive verdict's
    path = write(tmp_path, "diag.json", DIAG)
    assert main([a.format(path=path) for a in args]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "usage: padicdyn" in err and "error: " in err


@pytest.mark.parametrize("args", [["--help"], ["check", "--help"], ["orbit", "-h"]])
def test_help_exits_0(capsys, args):
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("usage: padicdyn")


@pytest.mark.parametrize("args", [
    ["check"], ["linearize", "--map-index", "1"], ["orbit", "--steps", "2"],
], ids=["check", "linearize", "orbit"])
def test_deeply_nested_document_exits_3_naming_the_file(tmp_path, capsys, args):
    # json.loads raises RecursionError on a document nested this deep
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([args[0], str(path), *args[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path}: the JSON is nested too deeply\n"


def test_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    def broken(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(padicdyn.cli, "analyze", broken)
    path = write(tmp_path, "diag.json", DIAG)
    assert main(["check", path]) == 4
    assert capsys.readouterr().err == "error: internal: RuntimeError: boom\n"


class TestSubcommands:
    def test_linearize_output(self, tmp_path, capsys):
        path = write(tmp_path, "diag.json", DIAG)
        assert main(["linearize", path, "--map-index", "1"]) == 0
        out = capsys.readouterr().out
        assert "functional equation residual: certified zero" in out
        assert "c_2: v=-1" in out
        assert "isometry radius valuation" in out

    def test_fixed_points_output(self, tmp_path, capsys):
        path = write(tmp_path, "diag.json", DIAG)
        assert main(["fixed-points", path, "--map-index", "1"]) == 0
        out = capsys.readouterr().out
        assert "attracting" in out
        assert "indifferent" in out  # 1 - p

    def test_repelling_fixed_points(self, tmp_path, capsys):
        # X^2/3 + X/3 at p = 3: fixed points 0 and 2, multipliers 1/3 and 5/3
        doc = copy.deepcopy(DIAG)
        doc["polynomials"] = [["0", "1/3", "1/3"], ["0", "1/3", "1/3"]]
        path = write(tmp_path, "repelling.json", doc)
        assert main(["fixed-points", path, "--map-index", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["repelling", "repelling"]
        assert main(["check", path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: coordinate 1: multiplier has negative valuation (repelling fixed"
            " point): the attracting hypothesis 0 < |P'(alpha)| < 1 fails\n"
        )

    def test_fixed_points_of_a_non_integral_map(self, tmp_path, capsys):
        # X^2/3 + 3X at p = 3: Q(1) = 7/3 and Q(2) = 16/3 are not 0 mod 3
        doc = copy.deepcopy(DIAG)
        doc["polynomials"][0] = ["0", "3", "1/3"]
        path = write(tmp_path, "third.json", doc)
        assert main(["fixed-points", path, "--map-index", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "unresolved residue class: 0 mod 3 (Hensel criterion fails)\n"

    def test_linearize_reads_coefficients_above_the_truncation(self, tmp_path, capsys):
        # G = X^5 + X^4 + X^3 + X^2 + 3X has coefficients above T = 2
        doc = copy.deepcopy(DIAG)
        doc["polynomials"][0] = ["0", "3", "1", "1", "1", "1"]
        path = write(tmp_path, "quintic.json", doc)
        assert main(["linearize", path, "--truncation", "2", "--map-index", "1"]) == 0
        out = capsys.readouterr().out
        assert "functional equation residual: certified zero" in out

    def test_orbit_output(self, tmp_path, capsys):
        path = write(tmp_path, "diag.json", DIAG)
        assert main(["orbit", path, "--steps", "4", "--map-index", "1"]) == 0
        out = capsys.readouterr().out
        # start valuation 2; contraction adds 1 per step
        for n in range(5):
            assert f"n={n}: " in out
            assert f"v(P^n(x)-alpha)={2 + n}" in out

    def test_bad_map_index(self, tmp_path, capsys):
        # a bad flag exits 3 before any output, and the message names the flag
        path = write(tmp_path, "diag.json", DIAG)
        for args, flag in (
            (["linearize", path, "--map-index", "5"], "--map-index 5"),
            (["orbit", path, "--steps", "4", "--map-index", "0"], "--map-index 0"),
            (["orbit", path, "--steps", "-3"], "--steps -3"),
        ):
            assert main(args) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: {flag} ")
