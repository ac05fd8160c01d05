"""The benchmark's tracing hooks still find every call site they wrap.

``checkbench/run.py`` resolves every span and counter target of
``checkbench/tracing.py`` when it starts, traced or not, so renaming or moving
one of those functions stops every benchmark run.  This test resolves them the
same way, reading ``tracing.py`` without changing it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "checkbench"))
import tracing  # noqa: E402


def test_every_traced_target_resolves_to_a_callable():
    saved = tracing.originals()
    assert len(saved) == len(tracing.SPANS) + len(tracing.COUNTERS)
    for (spec, attr), fn in saved.items():
        assert callable(fn), f"{spec}.{attr} is not callable"
    tracing.assert_pristine(saved)


def test_a_traced_check_records_the_scan_and_validate_spans(tmp_path, capsys):
    """The spans wrap module attributes where callers look them up, so a check
    through ``cli.main`` records ``checker.direct_orbit_scan`` and
    ``checker.validate``; a scan bound at import, out of ``checker``'s reach,
    would record no span here."""
    from padicdyn import cli
    from padicdyn.padic import INF_BOUND

    golden = Path(__file__).resolve().parent / "golden" / "hyperplane.json"
    saved = tracing.originals()
    tracer = tracing.Tracer(INF_BOUND)
    tracer.install()
    try:
        assert cli.main(["check", str(golden), "--report", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    tracing.assert_pristine(saved)
    names = [span[1] for span in tracer.spans]
    assert names.count("checker.direct_orbit_scan") == 1
    assert names.count("checker.validate") == 1
