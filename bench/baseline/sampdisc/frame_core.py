"""Dense Hermitian linear algebra for finite frame systems.

Frame operators, their extreme eigenvalues, tightness checks, and
eigenvalue bounds of sub-systems.  Every constant reported anywhere in
this package is eventually measured here by a dense Hermitian
eigensolve; nothing is certified by estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EigensolverError, PreconditionError


class FrameBounds(NamedTuple):
    """Extreme constants of the two-sided frame inequality.

    ``lower`` and ``upper`` are the smallest and largest eigenvalues of
    the associated frame operator, so 0 <= lower <= upper for any
    positive semidefinite operator.
    """

    lower: float
    upper: float


@dataclass(frozen=True)
class FrameSystem:
    """An ordered system of m vectors in n-dimensional scalar space.

    ``vectors`` has shape (n, m); column j is the j-th vector.  Real
    systems keep a real dtype and share the complex code paths, where
    conjugation degenerates to the identity.
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors)
        if v.ndim != 2:
            raise PreconditionError(
                f"frame vectors must form a 2-d array, got ndim={v.ndim}"
            )
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise PreconditionError(f"frame must be non-empty, got shape {v.shape}")
        dtype = np.complex128 if np.iscomplexobj(v) else np.float64
        v = v.astype(dtype, copy=True)
        if not np.isfinite(v).all():
            raise PreconditionError("frame vectors contain non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        """Ambient dimension."""
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        """Number of vectors."""
        return self.vectors.shape[1]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.vectors) else "real"

    def norms_squared(self) -> np.ndarray:
        """Squared Euclidean norm of each vector, shape (m,)."""
        return np.einsum("ij,ij->j", self.vectors, self.vectors.conj()).real


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Explicitly symmetrize a nominally Hermitian matrix."""
    return (matrix + matrix.conj().T) / 2


def extreme_eigenvalues(matrix: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    The input is symmetrized before the solve so roundoff in its
    assembly cannot leak into complex eigenvalues.
    """
    h = hermitian_part(np.asarray(matrix))
    try:
        ev = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"dense eigensolver failed on a {h.shape[0]}x{h.shape[1]} matrix: {exc}"
        ) from exc
    return float(ev[0]), float(ev[-1])


def frame_operator(frame: FrameSystem) -> np.ndarray:
    """Sum of outer products v_j v_j* of all frame vectors.

    Returns an (n, n) Hermitian matrix (explicitly symmetrized).
    """
    s = frame.vectors @ frame.vectors.conj().T
    return hermitian_part(s)


def frame_bounds(frame: FrameSystem) -> FrameBounds:
    """Extreme eigenvalues of the frame operator.

    The operator is positive semidefinite by construction, so tiny
    negative eigenvalues produced by roundoff are clamped to zero.
    """
    lo, hi = extreme_eigenvalues(frame_operator(frame))
    return FrameBounds(max(lo, 0.0), max(hi, 0.0))


def verify_tight(frame: FrameSystem, tol: float) -> bool:
    """True when both frame bounds lie within [1 - tol, 1 + tol]."""
    if not tol > 0:
        raise PreconditionError(f"tolerance must be positive, got {tol}")
    b = frame_bounds(frame)
    return b.lower >= 1.0 - tol and b.upper <= 1.0 + tol


def _validated_indices(indices: Iterable[int], m: int) -> np.ndarray:
    idx = np.asarray(list(indices), dtype=np.int64)
    if idx.size == 0:
        return idx
    if idx.min() < 0 or idx.max() >= m:
        raise PreconditionError(
            f"index set not contained in 0..{m - 1}: offending value "
            f"{idx.min() if idx.min() < 0 else idx.max()}"
        )
    if np.unique(idx).size != idx.size:
        raise PreconditionError("index set contains duplicates")
    return idx


def subset_bounds(frame: FrameSystem, subset: Iterable[int]) -> FrameBounds:
    """Extreme eigenvalues of the operator restricted to a vector subset.

    The empty subset yields (0, 0).  Bounds are reported without any
    rescaling; callers working per-point apply their own m/n factor.
    """
    idx = _validated_indices(subset, frame.m)
    if idx.size == 0:
        return FrameBounds(0.0, 0.0)
    cols = frame.vectors[:, idx]
    lo, hi = extreme_eigenvalues(cols @ cols.conj().T)
    return FrameBounds(max(lo, 0.0), max(hi, 0.0))


def weighted_frame_operator(frame: FrameSystem, weights: Sequence[float]) -> np.ndarray:
    """Weighted sum of outer products, sum_j w_j v_j v_j*."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (frame.m,):
        raise PreconditionError(
            f"weights must have shape ({frame.m},), got {w.shape}"
        )
    if not np.isfinite(w).all() or (w < 0).any():
        raise PreconditionError("weights must be finite and nonnegative")
    return hermitian_part((frame.vectors * w) @ frame.vectors.conj().T)


def weighted_bounds(frame: FrameSystem, weights: Sequence[float]) -> FrameBounds:
    """Extreme eigenvalues of the weighted frame operator."""
    lo, hi = extreme_eigenvalues(weighted_frame_operator(frame, weights))
    return FrameBounds(max(lo, 0.0), max(hi, 0.0))
