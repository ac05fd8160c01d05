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
