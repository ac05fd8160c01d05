"""The committed benchmark records (BENCH_*.json at the repository root).

Each record holds the parent and change result lines of alternating
``checkbench/run.py --trace 0`` pairs per workload, a traced run per
workload on each side, and the Python version, host CPU and both commits it
was measured on.  Every result line must report ``"correct": true``: a
speed measured on wrong answers shows nothing.  Each workload has at least
``MIN_PAIRS`` pairs whose ``first`` side alternates from pair to pair, so
that neither side always runs on a warmer or cooler host, and the two
commits differ.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
MIN_PAIRS = 10


def assert_result_line(line):
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] > 0
    assert all("value" in m and "unit" in m for m in line["metrics"].values())


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_complete_and_correct(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record["python"], str) and record["python"]
    assert isinstance(record["host_cpu"], str) and record["host_cpu"]
    assert all(record["commits"][side] for side in SIDES)
    assert record["commits"]["parent"] != record["commits"]["change"]
    assert record["pairs"] and record["pairs"].keys() == record["traced"].keys()
    for workload, pairs in record["pairs"].items():
        assert len(pairs) >= MIN_PAIRS, workload
        firsts = [pair["first"] for pair in pairs]
        assert all(a != b for a, b in zip(firsts, firsts[1:])), workload
        for pair in pairs:
            assert pair["first"] in SIDES
            for side in SIDES:
                assert_result_line(pair[side])
                assert "checks_per_s" in pair[side]["metrics"]
        for side in SIDES:
            assert_result_line(record["traced"][workload][side])
