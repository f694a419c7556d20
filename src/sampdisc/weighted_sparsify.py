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
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DiscretizationError,
    DuplicationOverflowError,
    PreconditionError,
)
from .frame_core import (
    TIGHTNESS_TOL,
    FrameBounds,
    FrameSystem,
    _frozen,
    _gram_bounds,
    _read_only,
    _validated_indices,
    _validated_integer,
    _validated_integers,
    verify_tight,
)
from .halving_select import HalvingCertificate, halving_select
from .partition_oracle import OracleConfig

COPY_CAP = 1_000_000


@dataclass(frozen=True)
class DuplicationMap:
    """How source vectors map onto normalized copies.

    Source j has ``counts[j]`` >= 1 copies; copies of one source are
    contiguous and sources ascend, so copy i is a copy of source
    ``copy_to_source[i]``; ``anchor`` is a source index.  ``counts`` may
    be given as any integer array-like; it is kept once, as the private
    read-only int64 array ``_counts``, and read back as a tuple of ints
    built on first read.  Counts and anchor follow the integer rules of
    ``frame_core._validated_integers``.  ``copy_to_source`` (a tuple of
    m' ints) and its int64 array ``_copy_to_source`` are derived from
    the counts on first read.
    """

    counts: tuple
    anchor: int

    def __post_init__(self):
        counts = _validated_integers(self.counts, "copy counts")
        if counts.size == 0 or (counts < 1).any():
            raise PreconditionError("copy counts must be a non-empty list of integers >= 1")
        anchor = _validated_indices((self.anchor,), counts.size, "copy anchor")
        object.__setattr__(self, "_counts", _read_only(counts))
        object.__setattr__(self, "anchor", int(anchor[0]))
        # the tuple is built by __getattr__ when it is first read
        object.__delattr__(self, "counts")

    def __getattr__(self, name):
        # only called for an attribute the instance lacks
        if name != "counts":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        counts = tuple(self._counts.tolist())
        object.__setattr__(self, "counts", counts)
        return counts

    @property
    def m_prime(self) -> int:
        return int(self._counts.sum())

    @cached_property
    def _copy_to_source(self) -> np.ndarray:
        return _frozen(np.arange(self._counts.size, dtype=np.int64).repeat(self._counts))

    @cached_property
    def copy_to_source(self) -> tuple:
        return tuple(self._copy_to_source.tolist())


def _scaled_sources(frame: FrameSystem, cap: int) -> tuple[np.ndarray, DuplicationMap]:
    """The columns v_j / sqrt(n_j) of the copies, one per source, and
    the map that repeats column j n_j times; see
    :func:`duplicate_normalize` for the errors.  Tightness is the
    callers' check; :func:`weighted_select` leaves it to halving."""
    cap = _validated_integer(cap, 1, "cap")
    norms = frame.norms_squared()
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise PreconditionError(
            f"vector {int(zero[0])} has zero norm; duplication needs nonzero vectors"
        )
    anchor = int(np.argmin(norms))
    base = float(norms[anchor])
    counts = _frozen(np.floor(norms / base).astype(np.int64))
    total = int(counts.sum())
    if total > cap:
        raise DuplicationOverflowError(
            f"norm equalization needs {total} copies, cap is {cap}"
        )

    scaled = _frozen(frame.vectors * (1.0 / np.sqrt(counts.astype(np.float64))))
    return scaled, DuplicationMap(counts=counts, anchor=anchor)


def duplicate_normalize(
    frame: FrameSystem, cap: int = COPY_CAP
) -> tuple[FrameSystem, DuplicationMap]:
    """Equalize norms of a tight frame by counted duplication.

    Returns the duplicated frame (same frame operator, every squared
    copy norm below 2n/m') and the map back to source indices.  Copies
    of vector j are contiguous and sources appear in ascending order.
    :func:`weighted_select` halves the same copies without building
    them.

    Raises
    ------
    PreconditionError
        If ``cap`` is not an integer >= 1, or the frame is not tight
        within 1e-8 or contains a zero vector.
    DuplicationOverflowError
        If the total number of copies would exceed ``cap``.
    """
    if not verify_tight(frame, TIGHTNESS_TOL):
        raise PreconditionError("duplication requires a tight frame (tol 1e-8)")
    scaled, dup = _scaled_sources(frame, cap)
    return FrameSystem(_frozen(np.repeat(scaled, dup._counts, axis=1))), dup


@dataclass(frozen=True)
class WeightedCertificate:
    """Sparse nonnegative weights with verified two-sided bounds.

    ``bounds`` are the extreme eigenvalues of sum_j lambda_j v_j v_j*,
    recomputed by a dense eigensolve.  ``support_budget`` is the copy
    cardinality bound the inner halving run guarantees.  ``weights`` may
    be given as any float array-like; it is kept once, as the private
    read-only float64 array ``_weights``, and read back as a tuple of
    floats built on first read, like ``DuplicationMap.counts``.
    """

    weights: tuple
    support: tuple
    bounds: FrameBounds
    support_budget: int
    duplication: DuplicationMap
    halving: HalvingCertificate

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        weights = _read_only(weights) if weights is self.weights else _frozen(weights)
        object.__setattr__(self, "_weights", weights)
        # the tuple is built by __getattr__ when it is first read
        object.__delattr__(self, "weights")

    def __getattr__(self, name):
        # only called for an attribute the instance lacks
        if name != "weights":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        weights = tuple(self._weights.tolist())
        object.__setattr__(self, "weights", weights)
        return weights


def weighted_select(
    frame: FrameSystem,
    config: Optional[OracleConfig] = None,
    cap: int = COPY_CAP,
) -> WeightedCertificate:
    """Select sparse nonnegative weights on a tight frame.

    Runs equal-weight halving at theta = 2 on the copies of
    :func:`duplicate_normalize` (clamped to m'/n when there are fewer
    than 2n copies, which keeps every copy), then folds selected copies
    into weights.  The copies are never built: halving runs on the
    scaled source columns and the copy counts.  On the iterative path
    the verified lower bound is at least 25 by construction (the m'/2n
    scaling exactly cancels delta' = 2n/m').  A frame that is not tight
    within 1e-8 is refused by the halving run (PreconditionError).
    """
    scaled, dup = _scaled_sources(frame, cap)
    # fewer than 2n copies cannot host the full level-2 norm allowance;
    # the clamped level forces delta = 1, i.e. the keep-everything fast
    # path, and the m'/2n weight scaling below is unaffected
    level = min(2.0, dup.m_prime / frame.n)
    hcert = halving_select(FrameSystem(scaled), level, config, copies=dup)
    scale = dup.m_prime / (2.0 * frame.n)

    selected = dup._copy_to_source[np.asarray(hcert.J, dtype=np.int64)]
    selected_counts = np.bincount(selected, minlength=frame.m)
    weights = _frozen(scale * selected_counts / dup._counts)
    support = tuple(np.flatnonzero(selected_counts).tolist())
    bounds = _gram_bounds(frame.vectors, weights)
    if hcert.schedule is not None and bounds.lower < 25.0 - 1e-8:
        raise DiscretizationError(
            f"weighted lower bound {bounds.lower} below the guaranteed 25"
        )
    return WeightedCertificate(
        weights=weights,
        support=support,
        bounds=bounds,
        support_budget=int(dup.m_prime / 2 ** len(hcert.rounds)),
        duplication=dup,
        halving=hcert,
    )
