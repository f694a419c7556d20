"""Nonnegative-weight sparsification of tight frames with unequal norms.

Equal-weight halving needs every vector norm under the same a-priori
level.  For unequal norms each vector v_j is first replaced by
n_j = floor(||v_j||^2 / ||v_anchor||^2) copies of v_j / sqrt(n_j),
where the anchor is a minimal-norm vector.  Copies then satisfy

    ||v_anchor||^2 <= ||v_j||^2 / n_j < 2 ||v_anchor||^2 <= 2 n / m',

so halving applies with theta = 2, and the selected copies fold back
into per-vector weights lambda_j = (m' / 2n) * (selected copies of j) / n_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DiscretizationError,
    DuplicationOverflowError,
    PreconditionError,
)
from .frame_core import (
    FrameBounds,
    FrameSystem,
    verify_tight,
    weighted_bounds,
)
from .halving_select import TIGHTNESS_TOL, HalvingCertificate, halving_select
from .partition_oracle import OracleConfig

COPY_CAP = 1_000_000


@dataclass(frozen=True)
class DuplicationMap:
    """How source vectors map onto normalized copies.

    ``counts`` and ``copy_to_source`` may be given as any integer
    array-like; they are kept as tuples of ints, and as private int64
    array copies (``_counts``, ``_copy_to_source``) for the fold back
    into weights.
    """

    counts: tuple
    copy_to_source: tuple
    anchor: int

    def __post_init__(self):
        for name in ("counts", "copy_to_source"):
            arr = np.array(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, "_" + name, arr)
            object.__setattr__(self, name, tuple(arr.tolist()))

    @property
    def m_prime(self) -> int:
        return len(self.copy_to_source)


def duplicate_normalize(
    frame: FrameSystem, cap: int = COPY_CAP
) -> tuple[FrameSystem, DuplicationMap]:
    """Equalize norms of a tight frame by counted duplication.

    Returns the duplicated frame (same frame operator, every squared
    copy norm below 2n/m') and the map back to source indices.  Copies
    of vector j are contiguous and sources appear in ascending order.

    Raises
    ------
    PreconditionError
        If the frame is not tight within 1e-8 or contains a zero
        vector.
    DuplicationOverflowError
        If the total number of copies would exceed ``cap``.
    """
    if not verify_tight(frame, TIGHTNESS_TOL):
        raise PreconditionError("duplication requires a tight frame (tol 1e-8)")
    norms = frame.norms_squared()
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise PreconditionError(
            f"vector {int(zero[0])} has zero norm; duplication needs nonzero vectors"
        )
    anchor = int(np.argmin(norms))
    base = float(norms[anchor])
    counts = np.floor(norms / base).astype(np.int64)
    total = int(counts.sum())
    if total > cap:
        raise DuplicationOverflowError(
            f"norm equalization needs {total} copies, cap is {cap}"
        )
    # construction-time identity check: base <= ||v_j||^2 / n_j < 2 base
    ratios = norms / counts
    if (ratios < base * (1.0 - 1e-12)).any() or (ratios >= 2.0 * base).any():
        raise DiscretizationError("copy norm identity violated during duplication")

    src = np.repeat(np.arange(frame.m), counts)
    scale = 1.0 / np.sqrt(counts.astype(np.float64))
    vectors = frame.vectors[:, src] * scale[src]
    dup = DuplicationMap(counts=counts, copy_to_source=src, anchor=anchor)
    return FrameSystem(vectors), dup


@dataclass(frozen=True)
class WeightedCertificate:
    """Sparse nonnegative weights with verified two-sided bounds.

    ``bounds`` are the extreme eigenvalues of sum_j lambda_j v_j v_j*,
    recomputed by a dense eigensolve.  ``support_budget`` is the copy
    cardinality bound the inner halving run guarantees.
    """

    weights: tuple
    support: tuple
    bounds: FrameBounds
    support_budget: int
    duplication: DuplicationMap
    halving: HalvingCertificate


def weighted_select(
    frame: FrameSystem,
    config: Optional[OracleConfig] = None,
    cap: int = COPY_CAP,
) -> WeightedCertificate:
    """Select sparse nonnegative weights on a tight frame.

    Runs :func:`duplicate_normalize` followed by equal-weight halving at
    theta = 2 on the copies (clamped to m'/n when there are fewer than
    2n copies, which keeps every copy), then folds selected copies into
    weights.  On the iterative path the verified lower bound is at least
    25 by construction (the m'/2n scaling exactly cancels delta' = 2n/m').
    """
    copies, dup = duplicate_normalize(frame, cap=cap)
    # fewer than 2n copies cannot host the full level-2 norm allowance;
    # the clamped level forces delta = 1, i.e. the keep-everything fast
    # path, and the m'/2n weight scaling below is unaffected
    level = min(2.0, copies.m / frame.n)
    hcert = halving_select(copies, level, config)
    scale = dup.m_prime / (2.0 * frame.n)

    counts = dup._counts
    selected = dup._copy_to_source[np.asarray(hcert.J, dtype=np.int64)]
    selected_counts = np.bincount(selected, minlength=frame.m)
    weights = scale * selected_counts / counts
    support = tuple(np.flatnonzero(selected_counts).tolist())

    bounds = weighted_bounds(frame, weights)
    if hcert.schedule is not None and bounds.lower < 25.0 - 1e-8:
        raise DiscretizationError(
            f"weighted lower bound {bounds.lower} below the guaranteed 25"
        )
    if hcert.schedule is not None:
        budget = int(dup.m_prime / 2 ** hcert.schedule.rounds)
    else:
        budget = dup.m_prime
    if len(support) > len(hcert.J):
        raise DiscretizationError("support exceeded the number of selected copies")
    return WeightedCertificate(
        weights=tuple(weights.tolist()),
        support=support,
        bounds=bounds,
        support_budget=budget,
        duplication=dup,
        halving=hcert,
    )
