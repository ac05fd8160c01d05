"""The coefficient kernel: exact arithmetic on (valuation, unit, precision) triples.

The functions live in :mod:`padicdyn._core.arith` and are re-exported here.
Callers look them up as ``_core.<name>`` at call time, so a wrapper installed
on this module (``checkbench/tracing.py``) sees every call from outside the
kernel and none of the kernel's own inner calls.
"""

from .arith import INF_BOUND, conv_at, dot, series_mul, tr_add, tr_div, tr_mul, tr_neg

BACKEND = "pure"

__all__ = ["BACKEND", "INF_BOUND", "conv_at", "dot", "series_mul", "tr_add", "tr_div", "tr_mul", "tr_neg"]
