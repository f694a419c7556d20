"""Iterated spectral halving of tight frames.

Starting from all m vectors, each round splits the surviving index set
into two verified halves and keeps the smaller one.  The target bounds
for round j come from a schedule computed from delta, seeded at
alpha_0 = beta_0 = 1,

    alpha_{j+1} = alpha_j (1 - 5 sqrt(delta/alpha_j)) / 2
    beta_{j+1}  = beta_j  (1 + 5 sqrt(delta/alpha_j)) / 2

with delta = theta * n / m fixed once from the a-priori norm bound.
Rounds run while alpha_j >= 100 delta; the final lower bound always
lands in [25 delta, 100 delta).  When already 1 <= 100 delta
there is nothing to gain and the full index set is returned (fast
path).  Every certificate carries eigensolve-measured bounds of the
selected set next to the scheduled theoretical pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import DiscretizationError, DomainError, PreconditionError
from .frame_core import (
    TIGHTNESS_TOL,
    FrameBounds,
    FrameSystem,
    _gram,
    _gram_bounds,
    _operator_bounds,
    _validated_indices,
    subset_bounds,  # bound for bench/test_smoke.py::test_tracer_wraps_every_binding_and_restores_them
)
from .partition_oracle import (
    VERIFY_SLACK,
    OracleConfig,
    _check_norms,
    _randomized,
    partition_targets,
)

if TYPE_CHECKING:
    from .weighted_sparsify import DuplicationMap


@dataclass(frozen=True)
class HalvingSchedule:
    """Deterministic (alpha_j, beta_j) ladder for one halving run,
    computed from ``delta``; 0 < delta < 1/100 (else DomainError), so
    at least one round runs.

    ``steps[j]`` holds the pair before round j, starting from (1, 1)
    and applying :func:`partition_targets` while alpha_j >= 100 delta;
    ``steps[-1]`` is the theoretical pair of the final selection, with
    25 delta <= alpha < 100 delta.  L = len(steps) - 2 is the index of
    the last step with alpha_j >= 100 delta.
    """

    delta: float
    steps: tuple = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.delta < 0.01):
            raise DomainError(f"delta must lie in (0, 1/100), got {self.delta}")
        steps = [(1.0, 1.0)]
        while steps[-1][0] >= 100.0 * self.delta:
            steps.append(partition_targets(*steps[-1], self.delta))
        object.__setattr__(self, "steps", tuple(steps))

    @property
    def rounds(self) -> int:
        return len(self.steps) - 1

    @property
    def L(self) -> int:
        return len(self.steps) - 2

    @property
    def final_lower(self) -> float:
        return self.steps[-1][0]

    @property
    def final_upper(self) -> float:
        return self.steps[-1][1]


def halving_schedule(delta: float) -> HalvingSchedule:
    """Schedule seeded at alpha_0 = beta_0 = 1; see :class:`HalvingSchedule`."""
    return HalvingSchedule(delta)


@dataclass(frozen=True)
class HalvingRound:
    """Diagnostics for one executed round.

    ``kept_indices`` is the kept side as a sorted read-only int64 array;
    ``kept``, the same indices as a tuple of ints, is built on first
    read.  Rounds compare equal when their scalars and kept sides do.
    """

    index: int
    kept_indices: np.ndarray = field(repr=False, compare=False)
    measured: FrameBounds
    target_lower: float
    target_upper: float
    candidates_tried: int

    def __post_init__(self):
        kept = np.array(self.kept_indices, dtype=np.int64)
        kept.setflags(write=False)
        object.__setattr__(self, "kept_indices", kept)

    @cached_property
    def kept(self) -> tuple:
        return tuple(self.kept_indices.tolist())

    def __eq__(self, other):
        if not isinstance(other, HalvingRound):
            return NotImplemented
        return self.kept == other.kept and all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
            if f.compare
        )


@dataclass(frozen=True)
class HalvingCertificate:
    """Selected index set with theoretical and measured bounds.

    ``actual`` is recomputed by a dense eigensolve of the selected
    sub-operator; ``rescale`` documents the m/n factor that converts
    these operator bounds into per-point averages.  When halving runs on
    copies, m counts copies and every index names a copy.
    """

    J: tuple
    theta: float
    delta: float
    schedule: Optional[HalvingSchedule]
    theoretical_lower: float
    theoretical_upper: float
    actual: FrameBounds
    rescale: float
    fast_path: bool
    rounds: tuple


def halving_select(
    frame: FrameSystem,
    theta: float,
    config: Optional[OracleConfig] = None,
    copies: Optional[DuplicationMap] = None,
) -> HalvingCertificate:
    """Select a small index subset of a tight frame with two-sided bounds.

    Parameters
    ----------
    frame : FrameSystem
        Tight within 1e-8: both frame bounds in [1 - 1e-8, 1 + 1e-8].
    theta : float
        A-priori norm level: every squared vector norm must be at most
        delta = theta * n / m, and 0 < theta <= m / n.
    config : OracleConfig, optional
        Partition search budget and seed (defaults: 10000, 0).
    copies : DuplicationMap, optional
        The multiset to halve: column j of ``frame`` appears
        ``copies.counts[j]`` times; by default every column appears
        once.  m is the number of copies, tightness is that of
        sum_j counts[j] v_j v_j*, and J and every round's kept side
        name copies: copy i is column ``copies.copy_to_source[i]``.
        J, the kept sides and ``actual`` equal those of halving the
        frame of the copies.

    Returns
    -------
    HalvingCertificate
        With delta >= 1/100 the full index set is returned (fast path)
        and its measured bounds are the tight ones.  Otherwise L + 1
        halving rounds run, |J| <= m / 2^(L+1), and the measured lower
        bound is at least 25 delta (within 1e-10 slack).

    Zero vectors never affect bounds and are dropped from J after
    selection.
    """
    if not theta > 0:
        raise PreconditionError(f"theta must be positive, got {theta}")
    # a plain frame is the multiset that copies each column once
    if copies is None:
        src, counts = np.arange(frame.m, dtype=np.int64), None
    else:
        if len(copies.counts) != frame.m:
            raise PreconditionError(
                f"{len(copies.counts)} copy counts for {frame.m} vectors"
            )
        src, counts = copies._copy_to_source, copies._counts
    m = src.size
    operator = _gram(frame.vectors, counts)
    if theta > m / frame.n * (1.0 + 1e-12):
        raise PreconditionError(f"theta={theta} exceeds m/n={m / frame.n}")
    cfg = config or OracleConfig()
    delta = theta * frame.n / m
    measured = _operator_bounds(operator)
    if measured.lower < 1.0 - TIGHTNESS_TOL or measured.upper > 1.0 + TIGHTNESS_TOL:
        raise PreconditionError(
            f"frame is not tight: measured bounds "
            f"({measured.lower:.12f}, {measured.upper:.12f})"
        )
    _check_norms(frame, delta, src)
    kept, log = np.arange(m, dtype=np.int64), []
    # compared as 100 delta, like the schedule's loop, so that rounding at
    # delta = 1/100 picks the same branch
    if 1.0 <= 100.0 * delta:
        schedule, t_lo, t_up = None, 1.0, 1.0
    else:
        schedule = halving_schedule(delta)
        t_lo, t_up = schedule.steps[-1]
        # round j aims at the schedule's step j + 1; ``operator`` is the
        # frame operator of ``kept``: all copies', then the kept side's
        # of the round before
        for j, (lo_t, up_t) in enumerate(schedule.steps[1:]):
            kept, measured, _, tried, operator = _randomized(
                frame, src, kept, operator, lo_t, up_t, cfg.budget, cfg.seed + j
            )
            log.append(HalvingRound(j, kept, measured, lo_t, up_t, tried))
    # zero vectors never affect bounds and are dropped from J
    norms = frame.norms_squared()
    kept = kept[norms[src[kept]] > 0.0]
    # measured on the gathered columns of the copies, bit for bit what
    # subset_bounds gives on the frame of the copies
    actual = _gram_bounds(frame.vectors[:, src[kept]])
    if schedule is not None:
        if actual.lower < 25.0 * delta - VERIFY_SLACK or actual.lower < t_lo - VERIFY_SLACK:
            raise DiscretizationError(
                f"verified lower bound {actual.lower} fell below schedule value {t_lo}"
            )
        if actual.upper > t_up + VERIFY_SLACK:
            raise DiscretizationError(
                f"verified upper bound {actual.upper} exceeds schedule value {t_up}"
            )
    return HalvingCertificate(
        J=tuple(kept.tolist()),
        theta=theta,
        delta=delta,
        schedule=schedule,
        theoretical_lower=t_lo,
        theoretical_upper=t_up,
        actual=actual,
        rescale=m / frame.n,
        fast_path=schedule is None,
        rounds=tuple(log),
    )


def check_cardinality_sandwich(cert: HalvingCertificate, frame: FrameSystem) -> bool:
    """Trace-based consistency check on the selected cardinality.

    n * actual.lower / max_j ||v_j||^2  <=  |J|  <=
    n * actual.upper / min_j ||v_j||^2

    over j in J (J never contains zero vectors).  Empty J fails; J must
    hold distinct integer indices in 0..m-1.  ``frame`` is the frame J
    indexes: for a certificate of halving on copies, the frame of the
    copies that :func:`duplicate_normalize` builds.
    """
    idx = _validated_indices(cert.J, frame.m, "certificate index set")
    if idx.size == 0:
        return False
    norms = frame.norms_squared()[idx]
    if norms.min() <= 0.0:
        return False
    low_req = frame.n * cert.actual.lower / norms.max()
    high_req = frame.n * cert.actual.upper / norms.min()
    count = idx.size
    return count >= low_req - 1e-9 and count <= high_req + 1e-9
