"""Dense Hermitian linear algebra for finite frame systems.

Frame operators, their extreme eigenvalues, tightness checks, and
eigenvalue bounds of sub-systems.  Every constant reported anywhere in
this package is eventually measured here by a dense Hermitian
eigensolve; nothing is certified by estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import EigensolverError, PreconditionError

# Halving admits a frame whose bounds lie within this of 1, and the
# pipelines admit a system whose orthonormality residual ||G - I|| is at
# most this.  For the frame of a sampled system the two measure the same
# thing, so one tolerance keeps every admitted system tight for halving.
TIGHTNESS_TOL = 1e-8


class FrameBounds(NamedTuple):
    """Extreme constants of the two-sided frame inequality.

    ``lower`` and ``upper`` are the smallest and largest eigenvalues of
    the associated frame operator, so 0 <= lower <= upper for any
    positive semidefinite operator.
    """

    lower: float
    upper: float


@dataclass(frozen=True, eq=False)
class FrameSystem:
    """An ordered system of m vectors in n-dimensional scalar space.

    ``vectors`` has shape (n, m); column j is the j-th vector.  Real
    systems keep a real dtype and share the complex code paths, where
    conjugation degenerates to the identity.  Frames compare by
    identity.
    """

    vectors: np.ndarray

    def __post_init__(self):
        vectors = _frozen_matrix(self.vectors, "frame vectors")
        object.__setattr__(self, "vectors", vectors)

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
        """Squared Euclidean norm of each vector, shape (m,), read-only;
        measured once per frame, since halving reads them twice per call
        (its norm check and its zero-vector drop) and ``vectors`` is a
        read-only private copy."""
        return self._norms_squared

    @cached_property
    def _norms_squared(self) -> np.ndarray:
        norms = np.einsum("ij,ij->j", self.vectors, self.vectors.conj()).real
        norms.setflags(write=False)
        return norms


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Explicitly symmetrize a nominally Hermitian matrix, or each matrix
    of a stack of shape (..., k, k)."""
    return (matrix + np.swapaxes(matrix.conj(), -1, -2)) / 2


def extreme_eigenvalues(matrix: np.ndarray):
    """Smallest and largest eigenvalue of a Hermitian matrix.

    The input is symmetrized before the solve so roundoff in its
    assembly cannot leak into complex eigenvalues.  A stack of shape
    (..., k, k) gives two arrays of shape (...) instead of two floats.
    """
    h = hermitian_part(np.asarray(matrix))
    try:
        ev = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"dense eigensolver failed on a {h.shape[-2]}x{h.shape[-1]} matrix: {exc}"
        ) from exc
    if ev.ndim > 1:
        return ev[..., 0], ev[..., -1]
    return float(ev[0]), float(ev[-1])


def _gram(vectors: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Hermitian part of sum_j w_j v_j v_j* over the columns v_j of
    ``vectors``; w_j = 1 when ``weights`` is None.

    Every Gram matrix and frame operator in the package is built here.
    """
    scaled = vectors if weights is None else vectors * weights
    return hermitian_part(scaled @ vectors.conj().T)


def _gram_bounds(
    vectors: np.ndarray, weights: Optional[np.ndarray] = None
) -> FrameBounds:
    """Extreme eigenvalues of :func:`_gram`, the only constants the
    package measures.

    The operator is positive semidefinite by construction, so tiny
    negative eigenvalues produced by roundoff are clamped to zero.
    """
    return _operator_bounds(_gram(vectors, weights))


def _operator_bounds(operator: np.ndarray) -> FrameBounds:
    """Extreme eigenvalues of a positive semidefinite frame operator,
    with roundoff below zero clamped to zero."""
    lo, hi = extreme_eigenvalues(operator)
    return FrameBounds(max(lo, 0.0), max(hi, 0.0))


def frame_operator(frame: FrameSystem) -> np.ndarray:
    """Sum of outer products v_j v_j* of all frame vectors.

    Returns an (n, n) Hermitian matrix (explicitly symmetrized).
    """
    return _gram(frame.vectors)


def frame_bounds(frame: FrameSystem) -> FrameBounds:
    """Extreme eigenvalues of the frame operator."""
    return _gram_bounds(frame.vectors)


def verify_tight(frame: FrameSystem, tol: float) -> bool:
    """True when both frame bounds lie within [1 - tol, 1 + tol]."""
    if not tol > 0:
        raise PreconditionError(f"tolerance must be positive, got {tol}")
    b = frame_bounds(frame)
    return b.lower >= 1.0 - tol and b.upper <= 1.0 + tol


def _float_array(values, what: str, complex_ok: bool = False) -> np.ndarray:
    """A fresh float64 array of ``values``, or complex128 when they are
    complex and ``complex_ok`` is set; anything else, overflow included,
    raises :class:`PreconditionError` naming the input as ``what``."""
    try:
        v = np.asarray(values)
        v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64)
    except (TypeError, ValueError, OverflowError):
        raise PreconditionError(f"{what} are not numbers") from None
    if v.dtype == np.complex128 and not complex_ok:
        raise PreconditionError(f"{what} must be real, got complex numbers")
    return v


def _frozen_matrix(values, what: str) -> np.ndarray:
    """A read-only float64 (or complex128) copy of a non-empty, finite
    2-d array; ``what`` names it in error messages."""
    v = _float_array(values, what, complex_ok=True)
    if v.ndim != 2 or 0 in v.shape:
        raise PreconditionError(
            f"{what} must form a non-empty 2-d array, got shape {v.shape}"
        )
    if not np.isfinite(v).all():
        raise PreconditionError(f"{what} contain non-finite entries")
    v.setflags(write=False)
    return v


def _validated_integers(values: Iterable[int], what: str) -> np.ndarray:
    """A flat integer array-like as an int64 array; an int64 array is
    returned as is.

    Floats, bools (also among ints, where numpy would infer int64),
    strings, values outside int64 and nested lists raise
    :class:`PreconditionError`; ``what`` names the input in its message.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
        types = set(map(type, values))
        if bool in types or np.bool_ in types:
            raise PreconditionError(f"{what} entries are not 64-bit integers")
    try:
        ints = np.asarray(values)
    except (TypeError, ValueError):
        raise PreconditionError(f"{what} is not a flat list") from None
    if ints.ndim != 1:
        raise PreconditionError(f"{what} is not a flat list")
    if ints.size == 0:
        return ints.astype(np.int64, copy=False)
    if ints.dtype != np.int64:
        if ints.dtype.kind not in "iu" or ints.max() > np.iinfo(np.int64).max:
            raise PreconditionError(f"{what} entries are not 64-bit integers")
        ints = ints.astype(np.int64)
    return ints


def _validated_integer(value, minimum: int, what: str) -> int:
    """``value`` as a Python int when it is one integer under the rules
    of :func:`_validated_integers` and at least ``minimum``; anything
    else raises :class:`PreconditionError` naming it as ``what``."""
    try:
        number = int(_validated_integers([value], what)[0])
    except PreconditionError:
        number = minimum - 1
    if number < minimum:
        raise PreconditionError(f"{what} must be an integer >= {minimum}: {value!r}")
    return number


def _validated_indices(indices: Iterable[int], m: int, what: str) -> np.ndarray:
    """Distinct integer indices in 0..m-1 as an int64 array.

    Entries follow the rules of :func:`_validated_integers`; values
    outside 0..m-1 and duplicates also raise
    :class:`PreconditionError`.
    """
    idx = _validated_integers(indices, what)
    if idx.size == 0:
        return idx
    lo, hi = idx.min(), idx.max()
    if lo < 0 or hi >= m:
        raise PreconditionError(
            f"{what} out of range 0..{m - 1}: offending value "
            f"{lo if lo < 0 else hi}"
        )
    # a strictly increasing set has no duplicates; skip the unique pass
    if not (np.diff(idx) > 0).all() and np.unique(idx).size != idx.size:
        raise PreconditionError(f"{what} contains duplicates")
    return idx


def _validated_weights(weights, size: int, what: str) -> np.ndarray:
    """One finite, nonnegative weight per entry as a fresh float64 array
    of shape (size,); ``what`` names the weights in error messages."""
    w = _float_array(weights, what)
    if w.shape != (size,):
        raise PreconditionError(f"{what} for {size} entries have shape {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise PreconditionError(f"{what} must be finite and nonnegative")
    return w


def subset_bounds(frame: FrameSystem, subset: Iterable[int]) -> FrameBounds:
    """Extreme eigenvalues of the operator restricted to a vector subset.

    ``subset`` may be any integer array-like (a tuple, a list, a numpy
    array) of distinct integer indices in 0..m-1; columns are summed in
    the given order.  The empty subset yields (0, 0).  Bounds are
    reported without any rescaling; callers working per-point apply
    their own m/n factor.
    """
    idx = _validated_indices(subset, frame.m, "index set")
    if idx.size == 0:
        return FrameBounds(0.0, 0.0)
    return _gram_bounds(frame.vectors[:, idx])


def weighted_bounds(frame: FrameSystem, weights: Sequence[float]) -> FrameBounds:
    """Extreme eigenvalues of the weighted frame operator
    sum_j w_j v_j v_j*; one finite, nonnegative weight per frame
    vector."""
    return _gram_bounds(frame.vectors, _validated_weights(weights, frame.m, "weights"))
