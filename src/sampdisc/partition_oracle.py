"""Search-and-verify realization of the spectral halving step.

Given an index set whose vectors carry verified two-sided operator
bounds (alpha, beta) and individually small norms (at most delta), a
partition into two halves exists whose sides each satisfy explicit
degraded bounds.  This module does not reprove that existence; it
searches candidate splits and certifies a winner by eigensolving both
sides' operators.  The randomized search builds side 1's operator from
its vectors and takes side 2's as the active set's operator minus side
1's.  It also splits multisets of columns (the equal-norm copies of
weighted selection) given only the column each copy repeats.

Both sides of a returned split are nonempty.  The exhaustive strategy
enumerates every such split of up to ``EXHAUSTIVE_LIMIT`` vectors and is
exact: a failure means no split meets the targets under the same
verifier.  The randomized strategy draws seeded balanced splits and
returns the first one that verifies.  :func:`spectral_partition` is the
one-step entry that validates a request; halving rounds call
``_randomized`` on int64 index arrays directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PartitionSizeError, PreconditionError, SearchFailureError
from .frame_core import (
    FrameBounds,
    FrameSystem,
    _gram,
    _gram_bounds,
    _operator_bounds,
    _validated_indices,
    extreme_eigenvalues,
    subset_bounds,
)

EXHAUSTIVE_LIMIT = 24
DEFAULT_BUDGET = 10_000
VERIFY_SLACK = 1e-10
# Side 2's bounds by subtraction differ from a direct measurement by
# rounding (below 1e-15 at unit operator norm); a verdict this close to a
# target is decided on the direct measurement instead.
SUBTRACTION_MARGIN = 1e-12
_CHUNK = 1 << 13


@dataclass(frozen=True)
class OracleConfig:
    """How partition searches are driven inside larger pipelines.

    Halving rounds always run the randomized search: a round needs more
    than 100 * n * theta >= 100 vectors, while the exhaustive oracle
    stops at ``EXHAUSTIVE_LIMIT`` = 24.  ``strategy`` therefore accepts
    only 'randomized'.
    """

    strategy: str = "randomized"
    budget: int = DEFAULT_BUDGET
    seed: int = 0

    def __post_init__(self):
        if self.strategy != "randomized":
            raise PreconditionError(
                f"unknown strategy {self.strategy!r}; halving rounds run "
                "only the 'randomized' search"
            )
        if self.budget < 1:
            raise PreconditionError(f"budget must be >= 1, got {self.budget}")


@dataclass(frozen=True)
class PartitionRequest:
    """One halving step: split ``active`` under targets derived from
    (alpha, beta, delta).

    ``active`` may be any integer array-like (a tuple, a list, a numpy
    array); it is normalized to a sorted tuple of ints.  ``alpha`` and
    ``beta`` are the currently verified lower and upper operator bounds
    of the active set; ``delta`` dominates every active vector's squared
    norm.
    """

    frame: FrameSystem
    active: tuple
    delta: float
    alpha: float
    beta: float

    def __post_init__(self):
        active = _validated_indices(self.active, self.frame.m, "active index set")
        if active.size == 0:
            raise PreconditionError("active index set is empty")
        object.__setattr__(self, "active", tuple(np.sort(active).tolist()))
        if not (self.delta > 0):
            raise PreconditionError(f"delta must be positive, got {self.delta}")
        if not (self.alpha > self.delta):
            raise PreconditionError(
                f"alpha must exceed delta, got alpha={self.alpha} delta={self.delta}"
            )
        if not (self.beta >= self.alpha):
            raise PreconditionError(
                f"beta must be >= alpha, got beta={self.beta} alpha={self.alpha}"
            )


@dataclass(frozen=True)
class PartitionResult:
    """A verified split.  Bounds are eigensolve-measured, not inferred.

    ``s1`` and ``s2`` may be any integer array-like; they are kept as
    tuples of ints.
    """

    s1: tuple
    s2: tuple
    bounds_s1: FrameBounds
    bounds_s2: FrameBounds
    lower_target: float
    upper_target: float
    candidates_tried: int

    def __post_init__(self):
        for name in ("s1", "s2"):
            object.__setattr__(self, name, tuple(int(j) for j in getattr(self, name)))


def partition_targets(alpha: float, beta: float, delta: float) -> tuple[float, float]:
    """Two-sided eigenvalue targets each half of a split must satisfy.

    lower = alpha * (1 - 5 sqrt(delta/alpha)) / 2
    upper = beta  * (1 + 5 sqrt(delta/alpha)) / 2

    Requires beta >= alpha > delta > 0.  The lower target may be
    negative (vacuous) when delta/alpha is large.
    """
    if not (delta > 0 and alpha > delta):
        raise PreconditionError(
            f"need alpha > delta > 0, got alpha={alpha} delta={delta}"
        )
    if not (beta >= alpha):
        raise PreconditionError(f"need beta >= alpha, got {beta} < {alpha}")
    r = 5.0 * math.sqrt(delta / alpha)
    return alpha * (1.0 - r) / 2.0, beta * (1.0 + r) / 2.0


def _split_ok(b1: FrameBounds, b2: FrameBounds, lo: float, up: float) -> bool:
    return (
        b1.lower >= lo - VERIFY_SLACK
        and b2.lower >= lo - VERIFY_SLACK
        and b1.upper <= up + VERIFY_SLACK
        and b2.upper <= up + VERIFY_SLACK
    )


def _near_verdict(b: FrameBounds, lo: float, up: float) -> bool:
    """Whether rounding of size ``SUBTRACTION_MARGIN * max(1, up)`` in
    ``b`` could flip a :func:`_split_ok` comparison."""
    margin = SUBTRACTION_MARGIN * max(1.0, up)
    return (
        abs(b.lower - (lo - VERIFY_SLACK)) <= margin
        or abs(b.upper - (up + VERIFY_SLACK)) <= margin
    )


def _check_norms(frame: FrameSystem, delta: float, active=None, src=None):
    """Reject a squared vector norm above delta (relative slack 1e-9),
    over all vectors or only the ``active`` index array.

    With ``src`` the vectors are copies, copy i being column ``src[i]``
    of the frame (nondecreasing, every column copied at least once), and
    the message names the first copy of the offending column."""
    idx = np.arange(frame.m) if active is None else active
    norms = frame.norms_squared()[idx]
    if norms.max() > delta * (1.0 + 1e-9):
        offender = int(idx[np.argmax(norms)])
        if src is not None:
            offender = int(np.searchsorted(src, offender))
        raise PreconditionError(
            f"vector {offender} has squared norm {norms.max():.6e} "
            f"exceeding delta={delta:.6e}"
        )


def _direct_bounds(frame: FrameSystem, positions: np.ndarray, src=None) -> FrameBounds:
    """Bounds of the vectors at the sorted ``positions``, measured on
    their gathered columns; with ``src`` the positions are copies, copy
    i being column ``src[i]`` of the frame."""
    if src is None:
        return subset_bounds(frame, positions)
    return _gram_bounds(frame.vectors[:, src[positions]])


def _exhaustive(frame: FrameSystem, active: np.ndarray, lo_t: float, up_t: float):
    """Best split of ``active`` as ``(s1, s2, bounds_s1, bounds_s2,
    candidates_tried)`` with the sides tuples of ints."""
    k = active.size
    if k > EXHAUSTIVE_LIMIT:
        raise PartitionSizeError(
            f"exhaustive search limited to {EXHAUSTIVE_LIMIT} vectors, got {k}"
        )
    v = frame.vectors[:, active]
    n = v.shape[0]
    outers = np.einsum("ij,kj->jik", v, v.conj())
    flat_rest = outers[1:].reshape(k - 1, n * n) if k > 1 else outers[:0].reshape(0, n * n)

    n_masks = 1 << (k - 1)
    tried = 0
    best_val = None
    best = None  # (s1 tuple, s2 tuple, bounds1, bounds2)

    for start in range(0, n_masks, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, n_masks), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(k - 1)) & 1).astype(np.float64)
        s1_ops = (bits @ flat_rest).reshape(-1, n, n) + outers[0]
        s2_ops = ((1.0 - bits) @ flat_rest).reshape(-1, n, n)
        lo1, up1 = extreme_eigenvalues(s1_ops)
        lo2, up2 = extreme_eigenvalues(s2_ops)
        lo1, lo2 = np.maximum(lo1, 0.0), np.maximum(lo2, 0.0)

        size1 = 1 + bits.sum(axis=1)
        size2 = k - size1
        tried += masks.size
        ok = (
            (size2 >= 1)
            & (lo1 >= lo_t - VERIFY_SLACK)
            & (lo2 >= lo_t - VERIFY_SLACK)
            & (up1 <= up_t + VERIFY_SLACK)
            & (up2 <= up_t + VERIFY_SLACK)
        )
        if not ok.any():
            continue

        small_upper = np.where(size1 <= size2, up1, up2)
        small_upper = np.where(ok, small_upper, np.inf)
        chunk_min = small_upper.min()
        if best_val is not None and chunk_min > best_val:
            continue
        # resolve ties lexicographically on the sorted s1 tuple
        for row in np.flatnonzero(small_upper == chunk_min):
            mask = int(masks[row])
            members = [0] + [b + 1 for b in range(k - 1) if (mask >> b) & 1]
            s1 = tuple(int(active[i]) for i in members)
            if best_val is None or chunk_min < best_val or s1 < best[0]:
                rest = tuple(int(j) for j in active if j not in set(s1))
                best_val = float(chunk_min)
                best = (
                    s1,
                    rest,
                    FrameBounds(float(lo1[row]), float(up1[row])),
                    FrameBounds(float(lo2[row]), float(up2[row])),
                )

    if best is None:
        raise SearchFailureError(
            f"no split of {k} vectors meets targets "
            f"[{lo_t:.6e}, {up_t:.6e}] (exhaustive over {tried} candidates)"
        )
    return (*best, tried)


def _randomized(
    frame: FrameSystem,
    active: np.ndarray,
    active_op: np.ndarray,
    lo_t: float,
    up_t: float,
    budget: int,
    seed: int,
    src=None,
):
    """First seeded balanced split of the sorted int64 array ``active``
    whose sides both meet [lo_t, up_t], as
    ``(s1, s2, bounds_s1, bounds_s2, candidates_tried, op_s1)`` with the
    sides sorted int64 arrays.

    ``active_op`` is the frame operator of ``active``'s vectors.  Side 1
    is the first floor(k/2) entries of each candidate permutation, so it
    is never the larger side, and it is the side halving keeps.  Its
    operator ``op_s1`` is returned so that the next round can split
    ``s1`` without forming it again.  Side 2's operator is
    ``active_op - op_s1``.

    On a plain frame ``op_s1`` is built from side 1's vectors in sorted
    order, exactly as ``subset_bounds`` builds it.  With ``src`` the
    entries of ``active`` are copies, copy i being column ``src[i]`` of
    the frame, and ``op_s1`` is ``_gram`` of the distinct columns side 1
    copies, weighted by how often it copies them.  Bounds that are not
    measured on gathered columns match a direct measurement only to
    rounding, so such a bound within ``SUBTRACTION_MARGIN`` of a target
    is measured directly and every verdict is the one the direct
    measurement gives."""
    k = active.size
    if k < 2:
        raise SearchFailureError(
            "cannot split fewer than two vectors into two nonempty halves"
        )
    rng = np.random.default_rng(seed)
    half = k // 2
    active_src = None if src is None else src[active]
    best_gap = math.inf
    for attempt in range(1, budget + 1):
        perm = rng.permutation(k)
        if src is None:
            s1 = np.sort(active[perm[:half]])
            op1 = _gram(frame.vectors[:, s1])
        else:
            s1 = None  # sorted only when measured directly or returned
            copied = np.bincount(active_src[perm[:half]])
            cols = np.flatnonzero(copied)
            op1 = _gram(frame.vectors[:, cols], copied[cols])
        b1 = _operator_bounds(op1)
        if src is not None and _near_verdict(b1, lo_t, up_t):
            s1 = np.sort(active[perm[:half]])
            b1 = _direct_bounds(frame, s1, src)
        b2 = _operator_bounds(active_op - op1)
        if _near_verdict(b2, lo_t, up_t):
            b2 = _direct_bounds(frame, np.sort(active[perm[half:]]), src)
        if _split_ok(b1, b2, lo_t, up_t):
            if s1 is None:
                s1 = np.sort(active[perm[:half]])
            return s1, np.sort(active[perm[half:]]), b1, b2, attempt, op1
        gap = max(
            lo_t - min(b1.lower, b2.lower), max(b1.upper, b2.upper) - up_t, 0.0
        )
        best_gap = min(best_gap, gap)
    raise SearchFailureError(
        f"no verified split within budget {budget} "
        f"(best candidate missed targets by {best_gap:.3e})"
    )


def spectral_partition(
    req: PartitionRequest,
    strategy: str = "randomized",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> PartitionResult:
    """Split the active set into two verified halves.

    Parameters
    ----------
    req : PartitionRequest
        Active indices plus the (alpha, beta, delta) the targets derive
        from.  Every active vector's squared norm must be at most delta.
    strategy : {'randomized', 'exhaustive'}
        'exhaustive' enumerates all 2^(k-1) splits with both sides
        nonempty (k up to 24) and returns the verified split minimizing
        the smaller side's measured upper bound, ties broken by
        lexicographically smallest s1.  'randomized' tries seeded
        balanced splits in a deterministic order and returns the first
        verified one.
    budget : int
        Candidate cap for the randomized strategy.
    seed : int
        Seed for the randomized candidate order.  Fixed seed, strategy
        and request reproduce the result exactly.

    Returns
    -------
    PartitionResult
        Both sides with their eigensolve-measured bounds; verification
        slack is 1e-10.  The randomized strategy measures side 2 on the
        active operator minus side 1's operator, and both are
        eigensolved.
    """
    if strategy not in ("exhaustive", "randomized"):
        raise PreconditionError(f"unknown strategy {strategy!r}")
    if budget < 1:
        raise PreconditionError(f"budget must be >= 1, got {budget}")
    active = np.array(req.active, dtype=np.int64)
    _check_norms(req.frame, req.delta, active)
    lo_t, up_t = partition_targets(req.alpha, req.beta, req.delta)
    if strategy == "exhaustive":
        found = _exhaustive(req.frame, active, lo_t, up_t)
    else:
        active_op = _gram(req.frame.vectors[:, active])
        found = _randomized(req.frame, active, active_op, lo_t, up_t, budget, seed)
    s1, s2, b1, b2, tried = found[:5]
    return PartitionResult(s1, s2, b1, b2, lo_t, up_t, tried)
