"""Independent re-verification of stored certificates.

A certificate is a claim: these points with these weights discretize
the span of this system with constants (c, C).  Verification recomputes
the constants from scratch (dense eigensolve over the system values at
the stored indices) and compares against the stored ones.  Nothing from
the certificate's pipeline log is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discretize import SampledSystem, fingerprint_matches, recompute_constants
from .errors import PreconditionError
from .frame_core import FrameBounds

VERIFY_TOL = 1e-10


@dataclass
class VerifyReport:
    passed: bool
    stored: Optional[FrameBounds] = None
    recomputed: Optional[FrameBounds] = None
    messages: list = field(default_factory=list)

    def fail(self, message: str) -> "VerifyReport":
        self.passed = False
        self.messages.append(message)
        return self


def verify_certificate(
    system: SampledSystem, document: dict, tol: float = VERIFY_TOL
) -> VerifyReport:
    """Check a loaded certificate document against a system.

    Fails (without raising) when the fingerprint does not match, the
    stored constants are not finite, the indices are not distinct
    in-range integers, weights are negative or miscounted, the
    recomputed constants differ from the stored ones by more than
    ``tol``, or the lower constant is not strictly positive.  Raises
    :class:`PreconditionError` when ``tol`` is not finite or negative.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(f"tol must be finite and nonnegative, got {tol}")
    report = VerifyReport(passed=True)
    stored = document.get("constants_decoded")
    if stored is None:
        return report.fail("document has no decoded constants")
    report.stored = stored
    if not all(map(math.isfinite, stored)):
        return report.fail("stored constants are not finite")

    if not fingerprint_matches(system, document.get("input_fingerprint")):
        report.fail("system fingerprint does not match the certificate")

    try:
        idx = np.asarray(document.get("point_indices", []), dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return report.fail("point indices are not 64-bit integers")
    if idx.ndim != 1:
        return report.fail("point indices are not a flat list")
    if idx.size == 0:
        return report.fail("certificate selects no points")
    m = document.get("m")
    if m is not None and m != idx.size:
        report.fail(f"m={m!r} but {idx.size} indices stored")
    if (idx < 0).any() or (idx >= system.m).any():
        return report.fail("point indices out of range for this system")
    if np.unique(idx).size != idx.size:
        return report.fail("point indices contain duplicates")

    weights = document.get("weights")
    if weights is not None:
        try:
            lam = np.asarray(weights, dtype=np.float64)
        except (TypeError, ValueError):
            return report.fail("weights are not numbers")
        if lam.shape != (idx.size,):
            return report.fail(
                f"{lam.size} weights for {idx.size} points"
            )
        if not np.isfinite(lam).all() or (lam < 0).any():
            return report.fail("weights must be finite and nonnegative")

    resid = system.orthonormality_residual()
    if resid > 1e-6:
        report.fail(
            f"system is not orthonormal (residual {resid:.3e}); "
            "constants are not comparable"
        )

    recomputed = recompute_constants(system, idx, weights)
    report.recomputed = recomputed
    scale = max(1.0, abs(stored.upper))
    if abs(recomputed.lower - stored.lower) > tol * scale:
        report.fail(
            f"lower constant mismatch: stored {stored.lower!r}, "
            f"recomputed {recomputed.lower!r}"
        )
    if abs(recomputed.upper - stored.upper) > tol * scale:
        report.fail(
            f"upper constant mismatch: stored {stored.upper!r}, "
            f"recomputed {recomputed.upper!r}"
        )
    if recomputed.lower <= 0.0:
        report.fail("lower constant is not positive; selection lost rank")
    return report
