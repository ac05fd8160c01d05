"""What a `padicdyn check` process loads.

A fresh isolated interpreter imports the package and checks every golden
through ``cli.main``; none of ``fractions``, ``decimal``, ``numbers`` (rational
parsing and slope text are integer code) or ``dataclasses`` (the records are
plain classes) may be loaded by then.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = sorted((ROOT / "tests" / "golden").glob("*.expected.json"))
UNWANTED = ("fractions", "decimal", "numbers", "dataclasses")

CODE = """
import sys
src, report, *goldens = sys.argv[1:]
sys.path.insert(0, src)
import padicdyn
import padicdyn.cli
codes = [padicdyn.cli.main(["check", g, "--report", report]) for g in goldens]
print(codes, [m for m in %r if m in sys.modules])
""" % (UNWANTED,)


def test_check_loads_no_fractions_decimal_numbers_or_dataclasses(tmp_path):
    goldens = [str(p).replace(".expected.json", ".json") for p in GOLDENS]
    assert len(goldens) == 3
    out = subprocess.run(
        [sys.executable, "-I", "-c", CODE, str(ROOT / "src"), str(tmp_path / "report.json"),
         *goldens],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout == "[1, 2, 0] []\n"
