"""Dense Hermitian linear algebra for finite frame systems.

Frame operators, their extreme eigenvalues, tightness checks, and
eigenvalue bounds of sub-systems.  Every constant reported anywhere in
this package is eventually measured here by a dense Hermitian
eigensolve; nothing is certified by estimation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter
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
        (its norm check and its zero-vector drop) and ``vectors`` is
        read-only."""
        return self._norms_squared

    @cached_property
    def _norms_squared(self) -> np.ndarray:
        return _column_norms_squared(self.vectors)

    @cached_property
    def _operator(self) -> np.ndarray:
        """Read-only frame operator, measured once per frame: halving
        starts from it, and :func:`frame_operator` returns a copy."""
        return _frozen(_gram(self.vectors))


def _column_norms_squared(matrix: np.ndarray) -> np.ndarray:
    """Read-only sum_i |a_ij|^2 of each column j of ``matrix``."""
    return _frozen(np.einsum("ij,ij->j", matrix, matrix.conj()).real)


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Explicitly symmetrize a nominally Hermitian matrix, or each matrix
    of a stack of shape (..., k, k)."""
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2


def extreme_eigenvalues(matrix: np.ndarray):
    """Smallest and largest eigenvalue of a Hermitian matrix.

    The input is symmetrized before the solve so roundoff in its
    assembly cannot leak into complex eigenvalues.  A stack of shape
    (..., k, k) gives two arrays of shape (...) instead of two floats.
    Input that is not a float64 or complex128 array is read under the
    rules of :func:`_float_array`; a matrix that is empty, not square or
    not finite raises :class:`PreconditionError`.
    """
    # float64 ('d') and complex128 ('D') arrays, all the package makes,
    # pay no conversion
    if type(matrix) is not np.ndarray or matrix.dtype.char not in "dD":
        matrix = _float_array(matrix, "matrix entries", complex_ok=True)
    shape = matrix.shape
    if len(shape) < 2 or shape[-1] != shape[-2] or not shape[-1]:
        raise PreconditionError(f"matrix must be square and non-empty, got shape {shape}")
    h = hermitian_part(matrix)
    try:
        ev = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(h).all():
            raise PreconditionError("matrix contains non-finite entries") from None
        raise EigensolverError(
            f"dense eigensolver failed on a {h.shape[-2]}x{h.shape[-1]} matrix: {exc}"
        ) from exc
    # a non-finite entry gives non-finite extremes or, on the diagonal,
    # finite ones beside a non-finite trace
    if len(shape) > 2:
        lo, hi = ev[..., 0], ev[..., -1]
        finite = np.isfinite(lo + hi + h.trace(axis1=-2, axis2=-1).real).all()
    else:
        lo, hi = float(ev[0]), float(ev[-1])
        finite = cmath.isfinite(lo + hi + sum(h.diagonal().tolist()))
    if not finite:
        raise PreconditionError("matrix contains non-finite entries")
    return lo, hi


def _gram(
    vectors: np.ndarray,
    weights: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Hermitian part of sum_j w_j v_j v_j* over the columns v_j of
    ``vectors``; w_j = 1 when ``weights`` is None.

    Every Gram matrix and frame operator in the package is built here.
    ``scratch``, an array of the shape and memory order of ``vectors``,
    receives the weighted columns instead of a fresh array; the product
    and the BLAS call that reads it are the same.
    """
    scaled = vectors if weights is None else np.multiply(vectors, weights, out=scratch)
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

    Returns a fresh, writable (n, n) Hermitian matrix (explicitly
    symmetrized).
    """
    return frame._operator.copy()


def frame_bounds(frame: FrameSystem) -> FrameBounds:
    """Extreme eigenvalues of the frame operator."""
    return _operator_bounds(frame._operator)


def verify_tight(frame: FrameSystem, tol: float) -> bool:
    """True when both frame bounds lie within [1 - tol, 1 + tol], 0 < tol < inf."""
    tol = _validated_real(tol, "tolerance")
    if not 0 < tol < np.inf:
        raise PreconditionError(f"tolerance must be positive and finite, got {tol}")
    b = frame_bounds(frame)
    return b.lower >= 1.0 - tol and b.upper <= 1.0 + tol


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` if read-only, else a read-only copy in its own memory order:
    the one copy rule for every array the package keeps."""
    return _frozen(array.copy(order="K")) if array.flags.writeable else array


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, which its caller has just made and shares with no one,
    marked read-only, so that :func:`_read_only` keeps it as is."""
    array.setflags(write=False)
    return array


def _holds_bool_or_none(values) -> bool:
    """Whether a Python or numpy bool, or None, sits at any depth of
    ``values`` (a list, a tuple or an array) and of the lists, tuples
    and arrays it holds.

    Scanned one level of nesting at a time, not row by row: the arrays
    of a level are judged by their dtypes, and the items of its lists,
    tuples and object arrays together form the next level."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind != "O":
            return values.dtype.kind == "b"
        values = values.ravel().tolist()
    level, items = [values], chain.from_iterable
    while level:
        types = set(map(type, items(level)))
        if bool in types or np.bool_ in types or type(None) in types:
            return True
        inner = []
        if any(issubclass(t, np.ndarray) for t in types):
            arrays = [x for x in items(level) if isinstance(x, np.ndarray)]
            kinds = {dtype.kind for dtype in set(map(attrgetter("dtype"), arrays))}
            if "b" in kinds:
                return True
            if "O" in kinds:
                inner += [x.ravel().tolist() for x in arrays if x.dtype.kind == "O"]
        if any(issubclass(t, (list, tuple)) for t in types):
            inner += [x for x in items(level) if isinstance(x, (list, tuple))]
        level = inner
    return False


def _float_array(values, what: str, complex_ok: bool = False) -> np.ndarray:
    """``values`` as float64, or complex128 when complex and ``complex_ok``,
    copied only to convert, and the converted array frozen, so that
    :func:`_read_only` keeps it; anything else (bools, also among
    numbers, strings, bytes, None and overflow too) raises
    :class:`PreconditionError` naming it ``what``."""
    listed = isinstance(values, (list, tuple))
    try:
        given = np.asarray(values)
        # numpy would read a bool among numbers as 0 or 1 and None as NaN;
        # an array of numbers holds neither
        if given.dtype.kind in "bUS" or (
            (listed or given.dtype.kind == "O")
            and _holds_bool_or_none(values if listed else given)
        ):
            raise TypeError
        dtype = np.complex128 if np.iscomplexobj(given) else np.float64
        v = given.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise PreconditionError(f"{what} are not numbers") from None
    if v.dtype == np.complex128 and not complex_ok:
        raise PreconditionError(f"{what} must be real, got complex numbers")
    # a memoryview or an __array__ object may be viewed, never frozen
    return _frozen(v) if v is not given or listed else v


def _frozen_matrix(values, what: str) -> np.ndarray:
    """A non-empty, finite 2-d float64 (or complex128) array, kept under
    :func:`_read_only`; ``what`` names it in error messages."""
    v = _float_array(values, what, complex_ok=True)
    if v.ndim != 2 or 0 in v.shape:
        raise PreconditionError(
            f"{what} must form a non-empty 2-d array, got shape {v.shape}"
        )
    if not np.isfinite(v).all():
        raise PreconditionError(f"{what} contain non-finite entries")
    return _read_only(v)


def _validated_integers(values: Iterable[int], what: str) -> np.ndarray:
    """A flat integer array-like as an int64 array; an int64 array is
    returned as is.

    Floats, bools (also among ints, where numpy would infer int64),
    strings, values outside int64 and nested lists raise
    :class:`PreconditionError`; ``what`` names the input in its message.
    """
    listed = not isinstance(values, np.ndarray)
    try:
        if listed:
            values = list(values)
            types = set(map(type, values))
            if bool in types or np.bool_ in types:
                raise PreconditionError(f"{what} entries are not 64-bit integers")
        ints = np.asarray(values)
    except (TypeError, ValueError):
        raise PreconditionError(f"{what} is not a flat list") from None
    if ints.ndim != 1:
        raise PreconditionError(f"{what} is not a flat list")
    if ints.size and ints.dtype != np.int64 and (
        ints.dtype.kind not in "iu" or ints.max() > np.iinfo(np.int64).max
    ):
        raise PreconditionError(f"{what} entries are not 64-bit integers")
    converted = ints.astype(np.int64, copy=False)
    return _frozen(converted) if listed or converted is not ints else converted


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


def _validated_real(value, what: str) -> float:
    """``value`` as a Python float when it is one real number under the
    rules of :func:`_float_array`; anything else (a bool, a string, a
    complex number, a list) raises :class:`PreconditionError` naming it
    as ``what``.  Range checks are the caller's."""
    try:
        number = _float_array(value, what)
    except PreconditionError:
        number = np.empty(0)
    if number.ndim != 0:
        raise PreconditionError(f"{what} must be one real number: {value!r}")
    return float(number)


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
    """One finite, nonnegative weight per entry as a float64 array of
    shape (size,), copied only to convert; ``what`` names the weights."""
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
