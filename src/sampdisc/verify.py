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

from .discretize import (
    CONDITION_TOL,
    SampledSystem,
    _point_rows,
    fingerprint_matches,
    recompute_constants,
)
from .errors import PreconditionError
from .frame_core import FrameBounds, _validated_real

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
    stored constants are not finite, :func:`recompute_constants` rejects
    the indices or weights (they must be distinct integer indices in
    0..m-1 with one finite, nonnegative weight each), the selection is
    empty, ``m`` or decoded points disagree with the indices, the
    recomputed constants differ from the stored ones by more than ``tol``,
    or the lower constant is not strictly positive.  Raises
    :class:`PreconditionError` when ``tol`` is not one real number, or is
    not finite or negative.
    """
    tol = _validated_real(tol, "tol")
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

    indices = document.get("point_indices", [])
    try:
        recomputed = recompute_constants(system, indices, document.get("weights"))
    except PreconditionError as exc:
        return report.fail(str(exc))
    if len(indices) == 0:
        return report.fail("certificate selects no points")
    m = document.get("m")
    # a JSON true equals 1, yet is no count; 1.0 is one
    if m is not None and (type(m) is bool or m != len(indices)):
        report.fail(f"m={m!r} but {len(indices)} indices stored")
    points = document.get("points_decoded")  # compared bit for bit
    rows = _point_rows(system.points)[list(indices)].view(np.int64)
    if points is not None and not np.array_equal(points.view(np.int64), rows):
        report.fail("stored points are not the system's points at the indices")

    resid = system.orthonormality_residual()
    if resid > CONDITION_TOL:
        report.fail(
            f"system is not orthonormal (residual {resid:.3e}); "
            "constants are not comparable"
        )

    report.recomputed = recomputed
    scale = max(1.0, abs(stored.upper))
    for side, old, new in zip(FrameBounds._fields, stored, recomputed):
        if abs(new - old) > tol * scale:
            report.fail(f"{side} constant mismatch: stored {old!r}, recomputed {new!r}")
    if recomputed.lower <= 0.0:
        report.fail("lower constant is not positive; selection lost rank")
    return report
