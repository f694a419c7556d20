"""Search-and-verify realization of the spectral halving step.

Given an index set whose vectors carry verified two-sided operator
bounds (alpha, beta) and individually small norms (at most delta), a
partition into two halves exists whose sides each satisfy explicit
degraded bounds.  This module does not reprove that existence; it
searches candidate splits and certifies a winner by eigensolving both
sides' operators.  The randomized search splits a multiset of columns,
given the column each copy repeats; a plain frame is the multiset that
copies each column once.  It builds side 1's operator from the columns
side 1 copies and takes side 2's as the active set's operator minus
side 1's.

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
    _validated_integer,
    extreme_eigenvalues,
    subset_bounds,  # bound for bench/test_smoke.py::test_tracer_wraps_every_binding_and_restores_them
)

EXHAUSTIVE_LIMIT = 24
DEFAULT_BUDGET = 10_000
VERIFY_SLACK = 1e-10
# Bounds of a side's operator formed by subtraction or from counted
# columns differ from a measurement on its gathered copies by rounding
# (below 1e-15 at unit operator norm); a verdict this close to a target
# is decided on the gathered copies instead.
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
        # stored as Python ints: a numpy seed would wrap in ``seed + round``
        for name, minimum in (("budget", 1), ("seed", 0)):
            value = _validated_integer(getattr(self, name), minimum, name)
            object.__setattr__(self, name, value)


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
    """Whether both sides meet [lo, up] within ``VERIFY_SLACK``; bounds
    holding arrays give an array of verdicts."""
    return (
        (b1.lower >= lo - VERIFY_SLACK)
        & (b2.lower >= lo - VERIFY_SLACK)
        & (b1.upper <= up + VERIFY_SLACK)
        & (b2.upper <= up + VERIFY_SLACK)
    )


def _check_norms(frame: FrameSystem, delta: float, src: np.ndarray, cols=None):
    """Reject a squared norm above delta (relative slack 1e-9) among the
    columns ``cols``, or all columns, naming the first copy of the
    offending column; copy i is column ``src[i]`` (nondecreasing)."""
    idx = np.arange(frame.m) if cols is None else cols
    norms = frame.norms_squared()[idx]
    if norms.max() > delta * (1.0 + 1e-9):
        offender = int(np.searchsorted(src, idx[np.argmax(norms)]))
        raise PreconditionError(
            f"vector {offender} has squared norm {norms.max():.6e} "
            f"exceeding delta={delta:.6e}"
        )


def _side_bounds(frame, op, active_src, side, lo_t, up_t) -> FrameBounds:
    """Bounds of a split's side from its operator ``op``; ``side`` holds
    positions in ``active_src``, the columns the active copies repeat.

    Where rounding of size ``SUBTRACTION_MARGIN * max(1, up_t)`` could
    flip a :func:`_split_ok` comparison, the side's gathered copies are
    measured in sorted order instead."""
    b = _operator_bounds(op)
    margin = SUBTRACTION_MARGIN * max(1.0, up_t)
    if (
        abs(b.lower - (lo_t - VERIFY_SLACK)) <= margin
        or abs(b.upper - (up_t + VERIFY_SLACK)) <= margin
    ):
        return _gram_bounds(frame.vectors[:, np.sort(active_src[side])])
    return b


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
    best = None  # (smaller side's upper, s1, bounds_s1, bounds_s2)
    for start in range(0, n_masks, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, n_masks), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(k - 1)) & 1).astype(np.float64)
        s1_ops = (bits @ flat_rest).reshape(-1, n, n) + outers[0]
        s2_ops = ((1.0 - bits) @ flat_rest).reshape(-1, n, n)
        lo1, up1 = extreme_eigenvalues(s1_ops)
        lo2, up2 = extreme_eigenvalues(s2_ops)
        b1 = FrameBounds(np.maximum(lo1, 0.0), up1)
        b2 = FrameBounds(np.maximum(lo2, 0.0), up2)
        size1 = 1 + bits.sum(axis=1)
        size2 = k - size1
        tried += masks.size
        ok = (size2 >= 1) & _split_ok(b1, b2, lo_t, up_t)
        if not ok.any():
            continue
        small_upper = np.where(ok, np.where(size1 <= size2, up1, up2), np.inf)
        # ties on the smaller side's upper go to the lexicographically
        # smallest sorted s1
        ties = [
            (
                float(small_upper[row]),
                tuple(active[np.flatnonzero(np.r_[1.0, bits[row]])].tolist()),
                FrameBounds(float(b1.lower[row]), float(up1[row])),
                FrameBounds(float(b2.lower[row]), float(up2[row])),
            )
            for row in np.flatnonzero(small_upper == small_upper.min())
        ]
        best = min(ties if best is None else ties + [best], key=lambda c: c[:2])

    if best is None:
        raise SearchFailureError(
            f"no split of {k} vectors meets targets "
            f"[{lo_t:.6e}, {up_t:.6e}] (exhaustive over {tried} candidates)"
        )
    _, s1, b1, b2 = best
    s2 = tuple(int(j) for j in active if j not in set(s1))
    return s1, s2, b1, b2, tried


def _randomized(
    frame: FrameSystem,
    src: np.ndarray,
    active: np.ndarray,
    active_op: np.ndarray,
    lo_t: float,
    up_t: float,
    budget: int,
    seed: int,
):
    """First seeded balanced split of the sorted int64 array ``active``
    whose sides both meet [lo_t, up_t], as
    ``(s1, bounds_s1, bounds_s2, candidates_tried, op_s1)`` with ``s1``
    a sorted int64 array; side 2 is the rest of ``active``.

    The entries of ``active`` are copies, copy i being column ``src[i]``
    of the frame (``src`` nondecreasing; a plain frame is ``arange(m)``),
    and ``active_op`` is their frame operator.  Side 1 is the first
    floor(k/2) entries of each candidate permutation, so it is never the
    larger side, and it is the side halving keeps.  Its operator
    ``op_s1`` is ``_gram`` of the distinct columns it copies, weighted by
    how often unless it copies none twice, and is returned so that the
    next round need not form it again.  Side 2's operator is
    ``active_op - op_s1``; :func:`_side_bounds` measures both sides."""
    k = active.size
    if k < 2:
        raise SearchFailureError(
            "cannot split fewer than two vectors into two nonempty halves"
        )
    rng = np.random.default_rng(seed)
    half = k // 2
    active_src = src[active]
    best_gap = math.inf
    for attempt in range(1, budget + 1):
        perm = rng.permutation(k)
        copied = np.bincount(active_src[perm[:half]])
        cols = np.flatnonzero(copied > 0)
        # a side that copies no column twice takes the plain Gram matrix,
        # bit for bit what subset_bounds gives: for real frames numpy forms
        # it by a symmetric product that weights would replace
        weights = None if cols.size == half else copied[cols]
        op1 = _gram(frame.vectors[:, cols], weights)
        b1 = _side_bounds(frame, op1, active_src, perm[:half], lo_t, up_t)
        b2 = _side_bounds(frame, active_op - op1, active_src, perm[half:], lo_t, up_t)
        if _split_ok(b1, b2, lo_t, up_t):
            return np.sort(active[perm[:half]]), b1, b2, attempt, op1
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
    budget = _validated_integer(budget, 1, "budget")
    seed = _validated_integer(seed, 0, "seed")
    active = np.array(req.active, dtype=np.int64)
    src = np.arange(req.frame.m, dtype=np.int64)
    _check_norms(req.frame, req.delta, src, active)
    lo_t, up_t = partition_targets(req.alpha, req.beta, req.delta)
    if strategy == "exhaustive":
        s1, s2, b1, b2, tried = _exhaustive(req.frame, active, lo_t, up_t)
    else:
        active_op = _gram(req.frame.vectors[:, active])
        s1, b1, b2, tried, _ = _randomized(
            req.frame, src, active, active_op, lo_t, up_t, budget, seed
        )
        s2 = np.setdiff1d(active, s1, assume_unique=True)
    return PartitionResult(s1, s2, b1, b2, lo_t, up_t, tried)
