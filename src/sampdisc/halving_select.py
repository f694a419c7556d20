"""Iterated spectral halving of tight (or two-sided) frames.

Starting from all m vectors, each round splits the surviving index set
into two verified halves and keeps the smaller one.  The target bounds
for round j come from a precomputed schedule

    alpha_{j+1} = alpha_j (1 - 5 sqrt(delta/alpha_j)) / 2
    beta_{j+1}  = beta_j  (1 + 5 sqrt(delta/alpha_j)) / 2

with delta = theta * n / m fixed once from the a-priori norm bound.
Rounds run while alpha_j >= 100 delta; the final lower bound always
lands in [25 delta, 100 delta).  When already alpha_0 <= 100 delta
there is nothing to gain and the full index set is returned (fast
path).  Every certificate carries eigensolve-measured bounds of the
selected set next to the scheduled theoretical pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DiscretizationError, DomainError, PreconditionError
from .frame_core import FrameBounds, FrameSystem, frame_bounds, subset_bounds
from .partition_oracle import (
    OracleConfig,
    PartitionRequest,
    _check_norms,
    partition_targets,
    spectral_partition,
)

TIGHTNESS_TOL = 1e-8
BOUND_SLACK = 1e-10


@dataclass(frozen=True)
class HalvingSchedule:
    """Deterministic (alpha_j, beta_j) ladder for one halving run.

    ``steps[j]`` holds the pair before round j; ``steps[-1]`` is the
    theoretical pair of the final selection.  L = len(steps) - 2 is the
    index of the last step with alpha_j >= 100 delta.
    """

    delta: float
    steps: tuple

    def __post_init__(self):
        if len(self.steps) < 2:
            raise PreconditionError("schedule must contain at least one round")
        steps = tuple((float(a), float(b)) for a, b in self.steps)
        object.__setattr__(self, "steps", steps)
        for j in range(len(steps) - 1):
            a, b = steps[j]
            expect = partition_targets(a, b, self.delta)
            got = steps[j + 1]
            scale = max(abs(expect[0]), abs(expect[1]), 1.0)
            if abs(expect[0] - got[0]) > 1e-14 * scale or abs(
                expect[1] - got[1]
            ) > 1e-14 * scale:
                raise PreconditionError(
                    f"schedule step {j + 1} does not follow the recursion"
                )
        final_alpha = steps[-1][0]
        if not (25 * self.delta <= final_alpha + 1e-12 and final_alpha < 100 * self.delta):
            raise PreconditionError(
                f"final lower bound {final_alpha} outside "
                f"[{25 * self.delta}, {100 * self.delta})"
            )

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


def _build_schedule(alpha0: float, beta0: float, delta: float) -> HalvingSchedule:
    steps = [(alpha0, beta0)]
    a, b = alpha0, beta0
    while a >= 100.0 * delta:
        a, b = partition_targets(a, b, delta)
        steps.append((a, b))
    return HalvingSchedule(delta=delta, steps=tuple(steps))


def halving_schedule(delta: float) -> HalvingSchedule:
    """Schedule seeded at alpha_0 = beta_0 = 1.

    Requires 0 < delta < 1/100 so at least one round runs.  The final
    pair always satisfies 25 delta <= alpha_{L+1} < 100 delta.
    """
    if not (0.0 < delta < 0.01):
        raise DomainError(f"delta must lie in (0, 1/100), got {delta}")
    return _build_schedule(1.0, 1.0, delta)


@dataclass(frozen=True)
class HalvingRound:
    """Diagnostics for one executed round."""

    index: int
    kept: tuple
    measured: FrameBounds
    target_lower: float
    target_upper: float
    candidates_tried: int


@dataclass(frozen=True)
class HalvingCertificate:
    """Selected index set with theoretical and measured bounds.

    ``actual`` is recomputed by a dense eigensolve of the selected
    sub-operator; ``rescale`` documents the m/n factor that converts
    these operator bounds into per-point averages.
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


def _drop_zero_vectors(frame: FrameSystem, indices: np.ndarray) -> np.ndarray:
    return indices[frame.norms_squared()[indices] > 0.0]


def _run_rounds(frame: FrameSystem, schedule: HalvingSchedule, config: OracleConfig):
    kept = np.arange(frame.m)
    log = []
    for j in range(schedule.rounds):
        alpha_j, beta_j = schedule.steps[j]
        req = PartitionRequest(
            frame=frame, active=kept, delta=schedule.delta, alpha=alpha_j, beta=beta_j
        )
        res = spectral_partition(req, budget=config.budget, seed=config.seed + j)
        if len(res.s1) <= len(res.s2):
            kept, kept_tuple, measured = res._s1, res.s1, res.bounds_s1
        else:
            kept, kept_tuple, measured = res._s2, res.s2, res.bounds_s2
        log.append(
            HalvingRound(
                index=j,
                kept=kept_tuple,
                measured=measured,
                target_lower=res.lower_target,
                target_upper=res.upper_target,
                candidates_tried=res.candidates_tried,
            )
        )
    return kept, tuple(log)


def halving_select(
    frame: FrameSystem, theta: float, config: Optional[OracleConfig] = None
) -> HalvingCertificate:
    """Select a small index subset of a tight frame with two-sided bounds.

    Parameters
    ----------
    frame : FrameSystem
        Tight within 1e-8: both frame bounds in [1 - 1e-8, 1 + 1e-8].
    theta : float
        A-priori norm level: every squared vector norm must be at most
        delta = theta * n / m, and theta <= m / n.
    config : OracleConfig, optional
        Partition search budget and seed (defaults: 10000, 0).

    Returns
    -------
    HalvingCertificate
        With delta >= 1/100 the full index set is returned (fast path)
        and its measured bounds are the tight ones.  Otherwise L + 1
        halving rounds run, |J| <= m / 2^(L+1), and the measured lower
        bound is at least 25 delta (within 1e-10 slack).

    Zero vectors never affect bounds and are dropped from J after
    selection.  This is :func:`halving_select_frame` at bounds (1, 1),
    except that theta = m / n (delta = 1 = A) is accepted.
    """
    if theta > frame.m / frame.n * (1.0 + 1e-12):
        raise PreconditionError(
            f"theta={theta} exceeds m/n={frame.m / frame.n}"
        )
    return _select(frame, 1.0, 1.0, theta, config)


def halving_select_frame(
    frame: FrameSystem,
    bounds: FrameBounds,
    theta: float,
    config: Optional[OracleConfig] = None,
) -> HalvingCertificate:
    """Halving seeded at declared frame bounds (A, B) instead of (1, 1).

    The declared bounds must be valid for the frame (measured bounds
    inside [A(1 - 1e-8), B(1 + 1e-8)]) and A must exceed delta.  With
    A = B = 1 this reduces exactly to :func:`halving_select` for the
    same seed.  The fast path triggers when A <= 100 delta.
    """
    a, b = float(bounds[0]), float(bounds[1])
    delta = theta * frame.n / frame.m
    if not (a > 0):
        raise PreconditionError(f"declared lower bound must be positive, got {a}")
    if not (a > delta):
        raise PreconditionError(
            f"declared lower bound {a} must exceed delta={delta}"
        )
    if b < a:
        raise PreconditionError(f"declared bounds out of order: ({a}, {b})")
    return _select(frame, a, b, theta, config)


def _select(
    frame: FrameSystem,
    a: float,
    b: float,
    theta: float,
    config: Optional[OracleConfig],
) -> HalvingCertificate:
    cfg = config or OracleConfig()
    delta = theta * frame.n / frame.m
    measured = frame_bounds(frame)
    if measured.lower < a * (1.0 - TIGHTNESS_TOL) or (
        measured.upper > b * (1.0 + TIGHTNESS_TOL)
    ):
        raise PreconditionError(
            f"declared bounds ({a}, {b}) do not hold: measured "
            f"({measured.lower:.12f}, {measured.upper:.12f})"
        )
    _check_norms(frame, delta)
    if a <= 100.0 * delta:
        kept = _drop_zero_vectors(frame, np.arange(frame.m))
        return HalvingCertificate(
            J=tuple(kept.tolist()),
            theta=theta,
            delta=delta,
            schedule=None,
            theoretical_lower=a,
            theoretical_upper=b,
            actual=subset_bounds(frame, kept),
            rescale=frame.m / frame.n,
            fast_path=True,
            rounds=(),
        )
    schedule = _build_schedule(a, b, delta)
    kept, log = _run_rounds(frame, schedule, cfg)
    kept = _drop_zero_vectors(frame, kept)
    actual = subset_bounds(frame, kept)
    t_lo, t_up = schedule.steps[-1]
    if actual.lower < 25.0 * delta - BOUND_SLACK or actual.lower < t_lo - BOUND_SLACK:
        raise DiscretizationError(
            f"verified lower bound {actual.lower} fell below schedule value {t_lo}"
        )
    if actual.upper > t_up + BOUND_SLACK:
        raise DiscretizationError(
            f"verified upper bound {actual.upper} exceeds schedule value {t_up}"
        )
    if len(kept) > frame.m / 2 ** schedule.rounds + 1e-9:
        raise DiscretizationError(
            f"selected {len(kept)} of {frame.m} indices, exceeding "
            f"m / 2^{schedule.rounds}"
        )
    return HalvingCertificate(
        J=tuple(kept.tolist()),
        theta=theta,
        delta=delta,
        schedule=schedule,
        theoretical_lower=t_lo,
        theoretical_upper=t_up,
        actual=actual,
        rescale=frame.m / frame.n,
        fast_path=False,
        rounds=log,
    )


def check_cardinality_sandwich(cert: HalvingCertificate, frame: FrameSystem) -> bool:
    """Trace-based consistency check on the selected cardinality.

    n * actual.lower / max_j ||v_j||^2  <=  |J|  <=
    n * actual.upper / min_j ||v_j||^2

    over j in J (J never contains zero vectors).  Empty J fails.
    """
    if len(cert.J) == 0:
        return False
    idx = np.asarray(cert.J, dtype=np.int64)
    if idx.min() < 0 or idx.max() >= frame.m:
        raise PreconditionError("certificate indices do not fit the frame")
    norms = frame.norms_squared()[idx]
    if norms.min() <= 0.0:
        return False
    low_req = frame.n * cert.actual.lower / norms.max()
    high_req = frame.n * cert.actual.upper / norms.min()
    count = len(cert.J)
    return count >= low_req - 1e-9 and count <= high_req + 1e-9
