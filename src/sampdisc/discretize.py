"""Two-sided discretization of L2 norms from sampled function systems.

A sampled system records the values of n basis functions at m points of
a discrete probability space.  When the basis is orthonormal in the
discrete inner product, the squared norm of any f in its span equals
the squared coefficient norm, and selecting points so that the reduced
quadratic mean stays within verified constants of the full one is a
frame problem: point j corresponds to the vector
sqrt(w_j) * (u_1(x_j), ..., u_n(x_j)).

This module provides that bridge, the per-point concentration constant
(the sharp uniform-norm inequality of the span), the equal-weight and
weighted selection pipelines, random refinement for systems given only
through a sampler, re-orthonormalization, and the complex-to-real
transfer that reuses one set of points and weights for a complex span.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    DiscretizationError,
    MappingMismatchError,
    PreconditionError,
    RefinementError,
    StageError,
)
from .frame_core import (
    TIGHTNESS_TOL,
    FrameBounds,
    FrameSystem,
    _float_array,
    _frozen_matrix,
    _gram,
    _gram_bounds,
    _validated_indices,
    _validated_integer,
    _validated_weights,
)
from .halving_select import HalvingCertificate, halving_select
from .partition_oracle import OracleConfig
from .weighted_sparsify import COPY_CAP, weighted_select

CONDITION_TOL = 1e-6
RANK_RTOL = 1e-10


def recompute_constants(
    system: SampledSystem, indices, weights=None
) -> FrameBounds:
    """Extreme eigenvalues of sum_nu lambda_nu u(x_nu) u(x_nu)^*.

    ``indices`` must be distinct integer indices in 0..m-1 and
    ``weights`` one finite, nonnegative weight per index, or None for
    uniform 1/len(indices).  Every certificate's constants are measured
    here, both when a pipeline builds it and when
    :func:`sampdisc.verify.verify_certificate` checks it again.
    """
    idx = _validated_indices(indices, system.m, "point index set")
    if weights is not None:
        weights = _validated_weights(weights, idx.size, "weights")
    if idx.size == 0:
        return FrameBounds(0.0, 0.0)
    lam = np.full(idx.size, 1.0 / idx.size) if weights is None else weights
    return _gram_bounds(system.values[:, idx], lam)


def _fmt(x: float) -> str:
    """Exact decimal form of a float (``repr`` round-trips every double)."""
    return repr(float(x))


@dataclass(frozen=True, eq=False)
class BasisChange:
    """Row transform T with source_values = T @ new_values; compared by
    identity."""

    matrix: np.ndarray
    source_fingerprint: str


@dataclass(frozen=True, eq=False)
class SampledSystem:
    """Values of n functions at m weighted points.

    ``values`` has shape (n, m): row i holds u_i at all points.
    ``points`` stores the point coordinates, shape (m,) or (m, d).
    ``point_weights`` is a probability vector (positive, sums to 1);
    uniform 1/m when omitted.  Systems compare by identity.
    """

    values: np.ndarray
    points: np.ndarray
    point_weights: Optional[np.ndarray] = None
    basis_change: Optional[BasisChange] = None

    def __post_init__(self):
        v = _frozen_matrix(self.values, "sampled values")
        object.__setattr__(self, "values", v)

        pts = _float_array(self.points, "points")
        if pts.ndim not in (1, 2) or pts.shape[0] != v.shape[1]:
            raise PreconditionError(
                f"points must list {v.shape[1]} coordinates, got shape {pts.shape}"
            )
        if not np.isfinite(pts).all():
            raise PreconditionError("points contain non-finite entries")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

        m = v.shape[1]
        w = np.full(m, 1.0 / m) if self.point_weights is None else self.point_weights
        w = _validated_weights(w, m, "point weights")
        if (w == 0).any():
            raise PreconditionError("point weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise PreconditionError(f"point weights sum to {w.sum()}, expected 1")
        w.setflags(write=False)
        object.__setattr__(self, "point_weights", w)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.values) else "real"

    def gram(self) -> np.ndarray:
        """Discrete Gram matrix sum_j w_j u_i(x_j) conj(u_k(x_j))."""
        return _gram(self.values, self.point_weights)

    def orthonormality_residual(self) -> float:
        """Spectral norm of gram() - identity, measured once per system:
        the arrays are read-only private copies."""
        return self._residual

    @cached_property
    def _residual(self) -> float:
        return float(np.linalg.norm(self.gram() - np.eye(self.n), 2))

    def fingerprint(self) -> str:
        """Content hash over shapes, weights, points and values, taken
        once per system like the residual."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        return system_fingerprint(self)


_PREFIX = "sha256v2:"
_LEGACY_PREFIX = "sha256:"


def _point_rows(points: np.ndarray) -> np.ndarray:
    """Points of shape (m,) or (m, d) as rows of shape (m, d)."""
    return points if points.ndim == 2 else points[:, None]


def system_fingerprint(system: SampledSystem) -> str:
    """sha256 over a shape header and the raw float64 bytes of the
    point weights, the (m, d) points and the values.

    Bytes identify finite doubles exactly (-0.0 included), so this
    detects the same edits as the legacy text hash at a fraction of its
    cost.
    """
    pts = _point_rows(system.points)
    h = hashlib.sha256()
    h.update(b"sampled-system/2\n")
    h.update(f"{system.n} {system.m} {pts.shape[1]} {system.field}\n".encode())
    for array in (system.point_weights, pts, system.values):
        # complex entries become (re, im) pairs
        flat = np.ascontiguousarray(array).view(np.float64)
        h.update(flat.astype("<f8", copy=False))
    return _PREFIX + h.hexdigest()


def _legacy_fingerprint(system: SampledSystem) -> str:
    """The ``sampled-system/1`` hash over the ``repr`` text of every
    number, prefixed ``sha256:``; kept so that files and certificates
    written with it still load and verify."""
    h = hashlib.sha256()
    h.update(b"sampled-system/1\n")
    h.update(f"{system.n} {system.m} {system.field}\n".encode())
    for w in system.point_weights:
        h.update(_fmt(w).encode())
        h.update(b" ")
    h.update(b"\n")
    for row in _point_rows(system.points):
        h.update(" ".join(_fmt(c) for c in row).encode())
        h.update(b"\n")
    for row in system.values:
        if np.iscomplexobj(system.values):
            h.update(
                " ".join(f"{_fmt(z.real)},{_fmt(z.imag)}" for z in row).encode()
            )
        else:
            h.update(" ".join(_fmt(z) for z in row).encode())
        h.update(b"\n")
    return _LEGACY_PREFIX + h.hexdigest()


def fingerprint_matches(system: SampledSystem, stored) -> bool:
    """Whether ``stored`` fingerprints ``system``.

    A legacy ``sha256:`` string is checked against the legacy text hash,
    anything else against :func:`system_fingerprint` of the arrays in
    hand, never the memo of :meth:`SampledSystem.fingerprint`; a value
    that is not a string never matches.
    """
    if not isinstance(stored, str):
        return False
    if stored.startswith(_LEGACY_PREFIX):
        return stored == _legacy_fingerprint(system)
    return stored == system_fingerprint(system)


@dataclass(frozen=True)
class NikolskiiReport:
    """Sharp per-point concentration of a discretely orthonormal span.

    For f in the span, sup_x |f(x)| / ||f|| over the sampled points
    equals the square root of the largest per-point value of
    sum_i |u_i(x)|^2, attained by the function whose coefficients are
    the conjugated basis values at the peak point.  ``t`` normalizes
    that extreme so ||f||_inf <= t * sqrt(n) * ||f||.  ``==`` compares
    the scalar fields; the arrays follow from the system.
    """

    t: float
    t_squared: float
    argmax_index: int
    argmax_point: np.ndarray = dataclasses.field(compare=False)
    per_point_sums: np.ndarray = dataclasses.field(compare=False)
    n: int


def _checked_residual(system: SampledSystem, tol: float) -> float:
    """Orthonormality residual of ``system``; PreconditionError above ``tol``."""
    resid = system.orthonormality_residual()
    if resid > tol:
        raise PreconditionError(
            f"system is not orthonormal: residual {resid:.3e} > {tol}"
        )
    return resid


def condition_e_constant(system: SampledSystem) -> NikolskiiReport:
    """Exact concentration constant t of a sampled orthonormal system.

    Requires orthonormality residual at most 1e-6.  The constant always
    satisfies t^2 >= 1 - residual, since the weighted average of the
    per-point sums equals trace(Gram) = n up to the residual.
    """
    resid = _checked_residual(system, CONDITION_TOL)
    sums = np.einsum("ij,ij->j", system.values, system.values.conj()).real
    j = int(np.argmax(sums))
    t2 = float(sums[j]) / system.n
    if t2 < 1.0 - resid - 1e-12:
        raise DiscretizationError(
            f"concentration constant t^2={t2} below the trace floor"
        )
    return NikolskiiReport(
        t=float(np.sqrt(t2)),
        t_squared=t2,
        argmax_index=j,
        argmax_point=np.atleast_1d(system.points)[j],
        per_point_sums=sums,
        n=system.n,
    )


def build_frame_from_samples(system: SampledSystem) -> FrameSystem:
    """Frame whose vector j is sqrt(w_j) * (u_1(x_j), ..., u_n(x_j)).

    Its frame operator equals the discrete Gram matrix, so the frame is
    tight exactly when the system is orthonormal.  With uniform weights
    this is the usual 1/sqrt(m) scaling.
    """
    return FrameSystem(system.values * np.sqrt(system.point_weights))


@dataclass(frozen=True)
class DiscretizationCertificate:
    """Selected points, weights and verified two-sided constants.

    ``constants`` = (c, C) satisfy, for every f in the certified span
    with squared norm ||f||^2,

        c ||f||^2  <=  sum_nu lambda_nu |f(xi_nu)|^2  <=  C ||f||^2,

    where lambda is uniform 1/m when ``weights`` is None.  Constants
    are measured by a dense eigensolve over an orthonormal basis of the
    span and can be recomputed from the stored data alone.  ``==``
    skips ``points``: the fingerprint and the indices fix them.
    """

    kind: str
    point_indices: tuple
    points: np.ndarray = dataclasses.field(compare=False)
    m: int
    weights: Optional[tuple]
    constants: FrameBounds
    theta: Optional[float]
    input_fingerprint: str
    pipeline_log: tuple


def _certificate(
    system: SampledSystem, kind: str, indices, weights, theta, log
) -> DiscretizationCertificate:
    """Certificate of the selection ``indices`` on ``system`` with
    ``weights`` (None for uniform 1/len(indices)); every pipeline builds
    its certificate here, and the constants are measured by
    :func:`recompute_constants`."""
    indices = _validated_indices(indices, system.m, "point index set")
    return DiscretizationCertificate(
        kind=kind,
        point_indices=tuple(indices.tolist()),
        points=system.points[indices],
        m=int(indices.size),
        weights=None if weights is None else tuple(np.asarray(weights).tolist()),
        constants=recompute_constants(system, indices, weights),
        theta=theta,
        input_fingerprint=system.fingerprint(),
        pipeline_log=log,
    )


def discretize_equal_weight(
    system: SampledSystem,
    config: Optional[OracleConfig] = None,
    theta: Optional[float] = None,
) -> DiscretizationCertificate:
    """Equal-weight point selection on a discretely orthonormal system.

    Parameters
    ----------
    system : SampledSystem
        Uniform point weights; orthonormality residual at most 1e-8.
    config : OracleConfig, optional
        Partition search settings for the halving rounds.
    theta : float, optional
        Override for the norm level; defaults to the measured t^2 from
        :func:`condition_e_constant` (the smallest valid choice).

    Returns
    -------
    DiscretizationCertificate
        Equal-weight certificate whose constants are the extreme
        eigenvalues of (1/m) sum_{j in J} u(x_j) u(x_j)*.
    """
    if np.max(np.abs(system.point_weights - 1.0 / system.m)) > 1e-14:
        raise PreconditionError(
            "equal-weight selection requires uniform point weights"
        )
    _checked_residual(system, TIGHTNESS_TOL)
    report = condition_e_constant(system)
    theta_used = report.t_squared if theta is None else float(theta)
    frame = build_frame_from_samples(system)
    hcert = halving_select(frame, theta_used, config)
    log = (
        {
            "stage": "concentration",
            "t": report.t,
            "t_squared": report.t_squared,
            "argmax_index": report.argmax_index,
        },
        _halving_stage(hcert),
    )
    cert = _certificate(system, "equal_weight", hcert.J, None, theta_used, log)
    if cert.constants.lower <= 0.0:
        raise DiscretizationError("selected points lost rank: lower constant is 0")
    return cert


def _halving_stage(hcert: HalvingCertificate) -> dict:
    stage = {
        "stage": "halving",
        "fast_path": hcert.fast_path,
        "delta": hcert.delta,
        "theta": hcert.theta,
        "selected": len(hcert.J),
        "rescale": hcert.rescale,
        "actual_lower": hcert.actual.lower,
        "actual_upper": hcert.actual.upper,
        "theoretical_lower": hcert.theoretical_lower,
        "theoretical_upper": hcert.theoretical_upper,
    }
    if hcert.schedule is not None:
        stage["rounds"] = hcert.schedule.rounds
        stage["schedule"] = [list(step) for step in hcert.schedule.steps]
    return stage


@dataclass(frozen=True)
class ContinuousSystemSpec:
    """A system known only through sampling and pointwise evaluation.

    ``sampler(rng, count)`` draws i.i.d. points from the underlying
    probability measure; ``evaluator(x)`` returns the n basis values at
    one point.  The basis is assumed orthonormal in L2 of that measure.
    """

    n: int
    sampler: Callable
    evaluator: Callable
    name: str = "continuous"


def _evaluate_at(spec: ContinuousSystemSpec, pts: np.ndarray) -> np.ndarray:
    cols = []
    for x in pts:
        row = np.asarray(spec.evaluator(x))
        if row.shape != (spec.n,):
            raise PreconditionError(
                f"evaluator returned shape {row.shape}, expected ({spec.n},)"
            )
        cols.append(row)
    values = np.stack(cols, axis=1)
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values).all(axis=0))[0])
        raise PreconditionError(
            f"evaluator returned non-finite values at sampled point index {bad}"
        )
    return values


def monte_carlo_refine(
    spec: ContinuousSystemSpec,
    delta: float,
    seed: int = 0,
    m_start: Optional[int] = None,
    m_cap: int = 1_048_576,
) -> SampledSystem:
    """Draw i.i.d. points until the empirical Gram is delta-close to I.

    Doubles the sample count, an integer from ``m_start`` >= n >= 1
    (None, the default, starts at max(64, n)) up to the integer
    ``m_cap`` >= ``m_start``, until the spectral deviation ||G - I|| is
    at most delta, else raises :class:`RefinementError` carrying the
    best deviation achieved.  The spectral condition is equivalent to
    |  ||f||_sampled^2 - ||f||^2 | <= delta ||f||^2 on the whole span.
    """
    if not (0.0 < delta < 1.0):
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    n = _validated_integer(spec.n, 1, "n")
    m = _validated_integer(max(64, n) if m_start is None else m_start, n, "m_start")
    m_cap = _validated_integer(m_cap, 1, "m_cap")
    if m_cap < m:
        raise PreconditionError(f"m_cap={m_cap} is below m_start={m}")
    rng = np.random.default_rng(_validated_integer(seed, 0, "seed"))
    best = np.inf
    while m <= m_cap:
        pts = np.asarray(spec.sampler(rng, m))
        if pts.shape[0] != m:
            raise PreconditionError(
                f"sampler returned {pts.shape[0]} points, expected {m}"
            )
        values = _evaluate_at(spec, pts)
        system = SampledSystem(values, pts)
        dev = system.orthonormality_residual()
        if dev <= delta:
            return system
        best = min(best, dev)
        m *= 2
    raise RefinementError(
        f"no sample of size <= {m_cap} met deviation {delta} "
        f"(best achieved {best:.6f})",
        best_deviation=float(best),
    )


def reorthonormalize(system: SampledSystem) -> SampledSystem:
    """Exactly orthonormal basis of the sampled span, same points.

    The numerical rank keeps singular values above 1e-10 of the largest.
    Each new basis function is phase-normalized so its leading
    significant value is real and positive.  The returned system
    records the change of basis T with old_values = T @ new_values, so
    certificates for the new span apply verbatim to the old one.

    Already-orthonormal input (residual <= 1e-12) is returned unchanged
    with an identity change of basis.
    """
    resid = system.orthonormality_residual()
    if resid <= 1e-12:
        return SampledSystem(
            system.values,
            system.points,
            system.point_weights,
            basis_change=BasisChange(
                matrix=np.eye(system.n), source_fingerprint=system.fingerprint()
            ),
        )
    sqrt_w = np.sqrt(system.point_weights)
    a = system.values * sqrt_w
    p, s, qh = np.linalg.svd(a, full_matrices=False)
    if s[0] <= 0.0:
        raise PreconditionError("cannot orthonormalize a zero row space")
    rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    b = qh[:rank]
    t = p[:, :rank] * s[:rank]
    # make each function's leading significant value real-positive
    for r in range(rank):
        row = b[r]
        lead = np.flatnonzero(np.abs(row) > 1e-8 * np.abs(row).max())[0]
        phase = row[lead] / abs(row[lead])
        b[r] = row * np.conj(phase)
        t[:, r] = t[:, r] * phase
    new_values = b / sqrt_w
    if np.isrealobj(system.values):
        new_values = new_values.real
        t = t.real
    return SampledSystem(
        new_values,
        system.points,
        system.point_weights,
        basis_change=BasisChange(matrix=t, source_fingerprint=system.fingerprint()),
    )


def discretize_continuous(
    spec: ContinuousSystemSpec,
    config: Optional[OracleConfig] = None,
    mc_delta: float = 0.5,
    seed: int = 0,
    m_start: Optional[int] = None,
    m_cap: int = 1_048_576,
) -> DiscretizationCertificate:
    """Equal-weight discretization of a system given only by sampling.

    Pipeline: random refinement at spectral deviation ``mc_delta``
    (default 1/2) from ``m_start`` samples (default max(64, n)),
    re-orthonormalization on the sampled points, then equal-weight
    selection at the exact measured concentration level of the
    orthonormalized basis.  The final constants are pulled back through
    the measured Gram deviation ``dev``:

        c_final = c_selected * (1 - dev),
        C_final = C_selected * (1 + dev),

    making them valid against the underlying (non-sampled) norm.
    """
    try:
        refined = monte_carlo_refine(
            spec, mc_delta, seed=seed, m_start=m_start, m_cap=m_cap
        )
    except DiscretizationError as exc:
        raise StageError("refine", str(exc)) from exc
    dev = refined.orthonormality_residual()
    ortho = reorthonormalize(refined)
    try:
        inner = discretize_equal_weight(ortho, config)
    except DiscretizationError as exc:
        raise StageError("select", str(exc)) from exc

    c, C = inner.constants
    log = (
        {
            "stage": "refine",
            "name": spec.name,
            "samples": refined.m,
            "deviation": dev,
            "target": mc_delta,
            "seed": int(seed),
        },
        {"stage": "reorthonormalize", "rank": ortho.n},
    ) + inner.pipeline_log + (
        {
            "stage": "pullback",
            "deviation": dev,
            "selected_lower": c,
            "selected_upper": C,
        },
    )
    return dataclasses.replace(
        inner,
        constants=FrameBounds(c * (1.0 - dev), C * (1.0 + dev)),
        input_fingerprint=refined.fingerprint(),
        pipeline_log=log,
    )


def discretize_weighted(
    system: SampledSystem,
    config: Optional[OracleConfig] = None,
    cap: int = COPY_CAP,
) -> DiscretizationCertificate:
    """Weighted point selection; handles unequal per-point mass.

    Requires orthonormality residual at most 1e-8; re-base other input
    with :func:`reorthonormalize` first, so that the certificate binds
    the system it was measured on.  Points whose frame vector
    (:func:`build_frame_from_samples`) is zero cannot carry weight and
    are skipped, since duplication refuses zero vectors.  Returned
    weights lambda_nu absorb the base point weights, so the certified
    sums are plain sum_nu lambda_nu |f(xi_nu)|^2.
    """
    _checked_residual(system, TIGHTNESS_TOL)
    frame = build_frame_from_samples(system)
    keep = np.flatnonzero(frame.norms_squared() > 0.0)
    wcert = weighted_select(FrameSystem(frame.vectors[:, keep]), config, cap=cap)

    frame_weights = np.asarray(wcert.weights)
    support_local = np.asarray(wcert.support, dtype=np.int64)
    support = keep[support_local]
    point_weights = frame_weights[support_local] * system.point_weights[support]

    log = (
        {
            "stage": "weighted",
            "copies": wcert.duplication.m_prime,
            "support_budget": wcert.support_budget,
            "selected_copies": len(wcert.halving.J),
        },
        _halving_stage(wcert.halving),
    )
    cert = _certificate(system, "weighted", support, point_weights, 2.0, log)
    tol = 1e-9 * max(1.0, wcert.bounds.upper)
    if abs(cert.constants.lower - wcert.bounds.lower) > tol:
        raise DiscretizationError("weighted constants failed cross-verification")
    return cert


@dataclass(frozen=True)
class ComplexRealMap:
    """Ties a complex system to its stacked real companion."""

    source_fingerprint: str
    real_fingerprint: str
    real_dim: int


def complexify_via_real(system: SampledSystem) -> tuple[SampledSystem, ComplexRealMap]:
    """Real orthonormal companion spanning all real and imaginary parts.

    Stacks Re(u_i) and Im(u_i) into a real system on the same points
    and re-orthonormalizes.  The rank is at most 2n (exactly n when the
    imaginary parts lie in the real span, e.g. for real-valued input).
    Any point set and weights discretizing the companion span transfer
    to the complex span with the same constants.
    """
    if not np.iscomplexobj(system.values):
        raise PreconditionError("complexify_via_real expects a complex-tagged system")
    stacked = np.vstack([system.values.real, system.values.imag])
    norms = np.einsum("ij,ij->i", stacked, stacked)
    rows = stacked[norms > 0.0]
    if rows.shape[0] == 0:
        raise PreconditionError("system values are identically zero")
    companion = reorthonormalize(
        SampledSystem(rows, system.points, system.point_weights)
    )
    mapping = ComplexRealMap(
        source_fingerprint=system.fingerprint(),
        real_fingerprint=companion.fingerprint(),
        real_dim=companion.n,
    )
    return companion, mapping


def transfer_certificate(
    real_cert: DiscretizationCertificate,
    system: SampledSystem,
    mapping: ComplexRealMap,
) -> DiscretizationCertificate:
    """Carry a real-companion certificate over to the complex system.

    Uses the same points and weights; the complex constants are
    recomputed by eigensolve and always land inside the real interval
    (within 1e-10), since |f|^2 splits into the real and imaginary
    parts' squares on both sides of the inequality.
    """
    if real_cert.input_fingerprint != mapping.real_fingerprint:
        raise MappingMismatchError(
            "certificate was not produced on the mapped real companion"
        )
    if system.fingerprint() != mapping.source_fingerprint:
        raise MappingMismatchError("mapping does not describe this complex system")
    _checked_residual(system, CONDITION_TOL)
    log = real_cert.pipeline_log + (
        {
            "stage": "complex_transfer",
            "real_lower": real_cert.constants.lower,
            "real_upper": real_cert.constants.upper,
            "real_dim": mapping.real_dim,
        },
    )
    indices, weights = real_cert.point_indices, real_cert.weights
    cert = _certificate(system, real_cert.kind, indices, weights, real_cert.theta, log)
    if cert.constants.lower < real_cert.constants.lower - 1e-10 or (
        cert.constants.upper > real_cert.constants.upper + 1e-10
    ):
        raise DiscretizationError(
            f"complex constants {tuple(cert.constants)} escape the real interval "
            f"{tuple(real_cert.constants)}"
        )
    return cert
