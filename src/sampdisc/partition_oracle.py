"""Search-and-verify realization of the spectral halving step.

Given an index set whose vectors carry verified two-sided operator
bounds (alpha, beta) and individually small norms (at most delta), a
partition into two halves exists whose sides each satisfy explicit
degraded bounds.  This module does not reprove that existence; it
searches candidate splits and certifies a winner by recomputing both
sides' extreme eigenvalues from scratch.

Both sides of a returned split are nonempty.  The exhaustive strategy
enumerates every such split of up to ``EXHAUSTIVE_LIMIT`` vectors and is
exact: a failure means no split meets the targets under the same
verifier.  The randomized strategy draws seeded balanced splits and
returns the first one that verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PartitionSizeError, PreconditionError, SearchFailureError
from .frame_core import (
    EigensolverError,
    FrameBounds,
    FrameSystem,
    _index_array,
    subset_bounds,
)

EXHAUSTIVE_LIMIT = 24
DEFAULT_BUDGET = 10_000
VERIFY_SLACK = 1e-10
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
        active = np.sort(_index_array(self.active))
        if active.size == 0:
            raise PreconditionError("active index set is empty")
        if (np.diff(active) == 0).any():
            raise PreconditionError("active index set contains duplicates")
        if active[0] < 0 or active[-1] >= self.frame.m:
            raise PreconditionError(
                f"active indices must lie in 0..{self.frame.m - 1}"
            )
        # the search reads the sorted array, callers the tuple
        active.setflags(write=False)
        object.__setattr__(self, "_active", active)
        object.__setattr__(self, "active", tuple(active.tolist()))
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
    """A verified split.  Bounds are eigensolve-measured, not inferred."""

    s1: tuple
    s2: tuple
    bounds_s1: FrameBounds
    bounds_s2: FrameBounds
    lower_target: float
    upper_target: float
    candidates_tried: int

    def __post_init__(self):
        # halving carries the kept side on as a private array copy
        # (``_s1``/``_s2``); the caller's array is left writable
        for name in ("s1", "s2"):
            side = np.array(getattr(self, name), dtype=np.int64)
            side.setflags(write=False)
            object.__setattr__(self, "_" + name, side)
            object.__setattr__(self, name, tuple(side.tolist()))


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


def _check_norms(frame: FrameSystem, delta: float, active=None):
    """Reject a squared vector norm above delta (relative slack 1e-9),
    over all vectors or only the ``active`` index array."""
    idx = np.arange(frame.m) if active is None else active
    norms = frame.norms_squared()[idx]
    if norms.max() > delta * (1.0 + 1e-9):
        offender = int(idx[np.argmax(norms)])
        raise PreconditionError(
            f"vector {offender} has squared norm {norms.max():.6e} "
            f"exceeding delta={delta:.6e}"
        )


def _batched_extremes(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h = (stack + np.conj(np.swapaxes(stack, -1, -2))) / 2
    try:
        ev = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"batched eigensolve failed: {exc}") from exc
    return ev[..., 0], ev[..., -1]


def _exhaustive(req: PartitionRequest, lo_t: float, up_t: float) -> PartitionResult:
    active = req._active
    k = active.size
    if k > EXHAUSTIVE_LIMIT:
        raise PartitionSizeError(
            f"exhaustive search limited to {EXHAUSTIVE_LIMIT} vectors, got {k}"
        )
    v = req.frame.vectors[:, active]
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
        lo1, up1 = _batched_extremes(s1_ops)
        lo2, up2 = _batched_extremes(s2_ops)
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
    return PartitionResult(
        s1=best[0],
        s2=best[1],
        bounds_s1=best[2],
        bounds_s2=best[3],
        lower_target=lo_t,
        upper_target=up_t,
        candidates_tried=tried,
    )


def _randomized(
    req: PartitionRequest, lo_t: float, up_t: float, budget: int, seed: int
) -> PartitionResult:
    active = req._active
    k = active.size
    if k < 2:
        raise SearchFailureError(
            "cannot split fewer than two vectors into two nonempty halves"
        )
    rng = np.random.default_rng(seed)
    half = k // 2
    best_gap = math.inf
    for attempt in range(1, budget + 1):
        perm = rng.permutation(k)
        s1 = np.sort(active[perm[:half]])
        s2 = np.sort(active[perm[half:]])
        b1 = subset_bounds(req.frame, s1)
        b2 = subset_bounds(req.frame, s2)
        if _split_ok(b1, b2, lo_t, up_t):
            return PartitionResult(
                s1=s1,
                s2=s2,
                bounds_s1=b1,
                bounds_s2=b2,
                lower_target=lo_t,
                upper_target=up_t,
                candidates_tried=attempt,
            )
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
        Both sides with their independently recomputed eigenvalue
        bounds; verification slack is 1e-10.
    """
    if strategy not in ("exhaustive", "randomized"):
        raise PreconditionError(f"unknown strategy {strategy!r}")
    if budget < 1:
        raise PreconditionError(f"budget must be >= 1, got {budget}")
    _check_norms(req.frame, req.delta, req._active)
    lo_t, up_t = partition_targets(req.alpha, req.beta, req.delta)
    if strategy == "exhaustive":
        return _exhaustive(req, lo_t, up_t)
    return _randomized(req, lo_t, up_t, budget, seed)
