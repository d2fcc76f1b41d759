"""Arithmetic behind the benchmark's numbers: the BLAS pin, the tail
percentile rule, failure fractions and the reference comparison.

Pure Python with no numpy import, so it can run before numpy is loaded.
"""

from __future__ import annotations

import math
import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The ROADMAP gate for refactors: outputs equal to 1e-12 relative.
REFERENCE_RTOL = 1e-12


def pin_blas():
    """Pin BLAS to one thread; only takes effect before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def tail_percentile(samples, beyond: int = 10):
    """Highest whole percentile whose nearest-rank value has at least `beyond`
    samples ranked above it.

    Returns (percentile, value), or None when there are too few samples
    (fewer than beyond + 1).
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # ceil(p * n / 100) in integers
        if rank >= 1 and n - rank >= beyond:
            return p, xs[rank - 1]
    return None


def failed_frac(failed: int, attempted: int) -> float:
    """Failed experiments over experiments attempted."""
    if attempted < 1:
        raise ValueError("no experiment was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def mismatches(ref, got, rtol: float = REFERENCE_RTOL, path: str = "$") -> list:
    """Paths at which `got` differs from `ref`.

    Floats match within rtol relative (NaN matches NaN); everything else,
    including ints, strings and the node-id masks, must be equal.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or ref.keys() != got.keys():
            return [path]
        return [m for k in ref for m in mismatches(ref[k], got[k], rtol, f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [path]
        return [m for i, (a, b) in enumerate(zip(ref, got))
                for m in mismatches(a, b, rtol, f"{path}[{i}]")]
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(ref, (int, float)):
            return [path]
        a, b = float(ref), float(got)
        if math.isnan(a) and math.isnan(b):
            return []
        return [] if abs(a - b) <= rtol * max(abs(a), abs(b)) else [path]
    return [] if ref == got else [path]
