"""Independent oracles, generators and stubs shared by the test modules.

The oracles deliberately avoid the library's code paths: subset bounds
come from singular values of the raw submatrix (the library eigensolves
assembled operators), operators are accumulated with a plain Python
loop, and quadratic forms are evaluated pointwise.
"""

import tracemalloc

import numpy as np

from sampdisc import FrameSystem


def random_tight_frame(rng, n, m, field="real", max_norm_sq=None, max_tries=200):
    """Random tight frame: columns are the first n rows of a Haar-ish
    m x m unitary, so the frame operator is the identity to machine
    precision.  Optionally resamples until every squared column norm is
    at most ``max_norm_sq``."""
    for _ in range(max_tries):
        if field == "complex":
            g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        else:
            g = rng.standard_normal((m, m))
        q, r = np.linalg.qr(g)
        vectors = q.conj().T[:n, :]
        frame = FrameSystem(vectors)
        if max_norm_sq is None or frame.norms_squared().max() <= max_norm_sq:
            return frame
    raise AssertionError(
        f"no tight frame with norms <= {max_norm_sq} in {max_tries} draws"
    )


def svd_subset_bounds(frame, indices):
    """Oracle for subset operator bounds via singular values.

    Eigenvalues of sum_{j in S} v_j v_j* are the squared singular
    values of the column submatrix, padded with zeros up to n.
    """
    idx = np.asarray(sorted(indices), dtype=np.int64)
    if idx.size == 0:
        return 0.0, 0.0
    s = np.linalg.svd(frame.vectors[:, idx], compute_uv=False)
    eigs = np.zeros(frame.n)
    eigs[: s.size] = s**2
    return float(eigs.min()), float(eigs.max())


def loop_frame_operator(frame):
    """Frame operator accumulated one outer product at a time."""
    op = np.zeros((frame.n, frame.n), dtype=frame.vectors.dtype)
    for j in range(frame.m):
        v = frame.vectors[:, j]
        op += np.outer(v, v.conj())
    return op


def quad_form(frame, weights, w):
    """sum_j lambda_j |<w, v_j>|^2 evaluated pointwise."""
    total = 0.0
    for j in range(frame.m):
        total += weights[j] * abs(np.vdot(w, frame.vectors[:, j])) ** 2
    return total


def point_quad_mean(values, indices, point_weights, coeffs):
    """sum_nu lambda_nu |f(x_nu)|^2 for f with the given coefficients."""
    f_at = coeffs @ values[:, np.asarray(indices, dtype=np.int64)]
    return float(np.sum(np.asarray(point_weights) * np.abs(f_at) ** 2))


def traced_peak(call):
    """``call()``'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def failing_eigvalsh(matrix):
    """Stand-in for ``numpy.linalg.eigvalsh`` whose solver never converges."""
    raise np.linalg.LinAlgError("Eigenvalues did not converge")
