"""Frame operators, bounds, and their eigensolve plumbing."""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from sampdisc import (
    DuplicationMap,
    EigensolverError,
    FrameBounds,
    FrameSystem,
    HalvingCertificate,
    PartitionRequest,
    PartitionResult,
    PreconditionError,
    SampledSystem,
    check_cardinality_sandwich,
    extreme_eigenvalues,
    frame_bounds,
    frame_operator,
    recompute_constants,
    subset_bounds,
    verify_certificate,
    verify_tight,
    weighted_bounds,
)
from sampdisc import frame_core
from sampdisc.frame_core import hermitian_part
from sampdisc.halving_select import HalvingRound

from helpers import (
    failing_eigvalsh,
    loop_frame_operator,
    quad_form,
    random_tight_frame,
    svd_subset_bounds,
    traced_peak,
)

R2 = 1.0 / np.sqrt(2.0)


def test_extreme_eigenvalues_frozen_2x2():
    # analytic eigenvalues of [[3/2, 1/2], [1/2, 1/2]] are 1 -+ sqrt(2)/2
    lo, hi = extreme_eigenvalues(np.array([[1.5, 0.5], [0.5, 0.5]]))
    assert abs(lo - 0.2928932188134524) < 1e-14
    assert abs(hi - 1.7071067811865475) < 1e-14


def test_extreme_eigenvalues_symmetrizes():
    lo, hi = extreme_eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # hermitian part is [[1, .5], [.5, 1]]
    assert abs(lo - 0.5) < 1e-14 and abs(hi - 1.5) < 1e-14


def test_eigensolver_failure_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    with pytest.raises(EigensolverError, match="failed on a 3x3 matrix: Eigenvalues"):
        extreme_eigenvalues(np.eye(3))


def test_frame_system_validation():
    with pytest.raises(PreconditionError):
        FrameSystem(np.array([1.0, 2.0]))
    with pytest.raises(PreconditionError):
        FrameSystem(np.zeros((2, 0)))
    with pytest.raises(PreconditionError):
        FrameSystem(np.array([[np.nan, 1.0]]))
    for vectors in ([["a", "b"]], [[10**400, 1.0]]):
        with pytest.raises(PreconditionError, match="frame vectors are not numbers"):
            FrameSystem(vectors)
    frame = FrameSystem(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        frame.vectors[0, 0] = 5.0  # stored read-only


def test_fields():
    assert FrameSystem(np.eye(2)).field == "real"
    assert FrameSystem(np.eye(2) + 0j).field == "complex"


def test_two_copies_and_axis_frame():
    frame = FrameSystem(np.array([[R2, R2, 0.0], [0.0, 0.0, 1.0]]))
    op = frame_operator(frame)
    assert np.allclose(op, np.eye(2), atol=1e-15)
    assert verify_tight(frame, 1e-12)
    lo, hi = subset_bounds(frame, [0])
    assert lo == 0.0
    assert abs(hi - 0.5) < 1e-14
    assert subset_bounds(frame, []) == FrameBounds(0.0, 0.0)
    w_lo, w_hi = weighted_bounds(frame, [1.0, 0.0, 1.0])
    assert abs(w_lo - 0.5) < 1e-14 and abs(w_hi - 1.0) < 1e-14


def test_frame_operator_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for field in ("real", "complex"):
        frame = random_tight_frame(rng, 4, 17, field=field)
        direct = frame_operator(frame)
        looped = loop_frame_operator(frame)
        assert np.abs(direct - looped).max() < 1e-13
        assert np.abs(direct - direct.conj().T).max() == 0.0  # exactly hermitian


def test_subset_bounds_match_svd_oracle():
    rng = np.random.default_rng(5)
    for field in ("real", "complex"):
        frame = random_tight_frame(rng, 3, 12, field=field)
        for _ in range(40):
            k = int(rng.integers(1, 12))
            subset = rng.choice(12, size=k, replace=False)
            got = subset_bounds(frame, subset)
            want_lo, want_hi = svd_subset_bounds(frame, subset)
            assert abs(got.lower - want_lo) < 1e-10
            assert abs(got.upper - want_hi) < 1e-10


def test_bounds_sandwich_quadratic_form():
    rng = np.random.default_rng(7)
    frame = random_tight_frame(rng, 3, 10, field="complex")
    lam = rng.uniform(0.0, 2.0, 10)
    lo, hi = weighted_bounds(frame, lam)
    for _ in range(100):
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w /= np.linalg.norm(w)
        val = quad_form(frame, lam, w)
        assert lo - 1e-10 <= val <= hi + 1e-10


def test_subset_bounds_monotone_under_inclusion():
    rng = np.random.default_rng(3)
    frame = random_tight_frame(rng, 3, 9)
    small = [1, 4, 7]
    big = [1, 2, 4, 7, 8]
    b_small = subset_bounds(frame, small)
    b_big = subset_bounds(frame, big)
    assert b_big.lower >= b_small.lower - 1e-12
    assert b_big.upper >= b_small.upper - 1e-12


def test_psd_clamping():
    rng = np.random.default_rng(9)
    frame = random_tight_frame(rng, 4, 6)
    b = subset_bounds(frame, [0, 1])  # rank <= 2 in dim 4
    assert b.lower == 0.0


def test_index_validation():
    frame = FrameSystem(np.eye(3))
    with pytest.raises(PreconditionError):
        subset_bounds(frame, [0, 3])
    with pytest.raises(PreconditionError):
        subset_bounds(frame, [-1])
    with pytest.raises(PreconditionError):
        subset_bounds(frame, [1, 1])
    with pytest.raises(PreconditionError, match="index set is not a flat list"):
        subset_bounds(frame, [[1, 2], [0]])


@pytest.mark.parametrize(
    "subset, message",
    [
        ((0, 3), "offending value 3"),
        ((2, -1), "offending value -1"),
        ((1, 1), "index set contains duplicates"),
        ((0, 1, 1), "index set contains duplicates"),
        ((2, 0, 2), "index set contains duplicates"),
    ],
)
def test_index_errors_same_for_arrays(subset, message):
    frame = FrameSystem(np.eye(3))
    for given in (subset, list(subset), np.array(subset, dtype=np.int64)):
        with pytest.raises(PreconditionError, match=message):
            subset_bounds(frame, given)


def test_subset_bounds_accept_arrays():
    rng = np.random.default_rng(17)
    frame = random_tight_frame(rng, 3, 9, field="complex")
    for subset in ((0, 4, 8, 2), (1, 2, 3, 5, 7)):
        assert subset_bounds(frame, np.array(subset)) == subset_bounds(frame, subset)
    assert subset_bounds(frame, np.array([], dtype=np.int64)) == (0.0, 0.0)


def test_weight_validation():
    frame = FrameSystem(np.eye(3))
    with pytest.raises(PreconditionError):
        weighted_bounds(frame, [1.0, -0.5, 1.0])
    with pytest.raises(PreconditionError):
        weighted_bounds(frame, [1.0, 1.0])
    with pytest.raises(PreconditionError):
        weighted_bounds(frame, [1.0, np.inf, 1.0])
    lo, hi = weighted_bounds(frame, [2.0, 3.0, 4.0])
    assert abs(lo - 2.0) < 1e-14 and abs(hi - 4.0) < 1e-14


# one bad input each; weight cases pair their weights with indices 0, 1, 2
BAD_INPUTS = [
    ("float indices", [0.9, 1.9, 2.9], None),
    ("bool indices", [False, True], None),
    ("bool among ints", [True, 2], None),
    ("index -1", [0, -1], None),
    ("index m", [0, 3], None),
    ("duplicate index", [0, 0, 1], None),
    ("index 2**70", [0, 2**70], None),
    ("int", 5, None),
    ("numpy int", np.int64(3), None),
    ("None", None, None),
    ("weight count", [0, 1, 2], [0.5, 0.5]),
    ("negative weight", [0, 1, 2], [0.5, -1.0, 0.5]),
    ("nan weight", [0, 1, 2], [0.5, np.nan, 0.5]),
    ("weight 10**400", [0, 1, 2], [0.5, 10**400, 0.5]),
    ("complex weight", [0, 1, 2], np.array([1 + 5j, 1, 1])),
]


@pytest.mark.parametrize(
    "indices, weights",
    [case[1:] for case in BAD_INPUTS],
    ids=[case[0] for case in BAD_INPUTS],
)
def test_every_entry_rejects_the_same_bad_input(indices, weights):
    # m = 3 everywhere: the system is orthonormal under uniform weights
    # and its frame is the identity
    frame = FrameSystem(np.eye(3))
    system = SampledSystem(np.sqrt(3.0) * np.eye(3), np.arange(3.0))
    if weights is None:
        cert = HalvingCertificate(
            J=indices,
            theta=1.0,
            delta=1.0,
            schedule=None,
            theoretical_lower=1.0,
            theoretical_upper=1.0,
            actual=FrameBounds(1.0, 1.0),
            rescale=1.0,
            fast_path=True,
            rounds=(),
        )
        entries = [
            lambda: subset_bounds(frame, indices),
            lambda: recompute_constants(system, indices),
            lambda: PartitionRequest(
                frame=frame, active=indices, delta=0.1, alpha=1.0, beta=1.0
            ),
            lambda: check_cardinality_sandwich(cert, frame),
        ]
    else:
        entries = [
            lambda: recompute_constants(system, indices, weights),
            lambda: weighted_bounds(frame, weights),
        ]
    for entry in entries:
        with pytest.raises(PreconditionError):
            entry()

    with pytest.raises(PreconditionError) as rejected:
        recompute_constants(system, indices, weights)
    document = {
        "constants_decoded": FrameBounds(1.0, 1.0),
        "input_fingerprint": system.fingerprint(),
        "point_indices": indices,
        "weights": weights,
    }
    report = verify_certificate(system, document)
    assert not report.passed
    assert report.messages == [str(rejected.value)]


# the integer cases of BAD_INPUTS, and lists the result types once
# truncated, parsed or kept nested
BAD_INTEGERS = [
    case[:2]
    for case in BAD_INPUTS
    if case[0] in ("float indices", "bool indices", "bool among ints", "index 2**70")
    or case[0] in ("int", "numpy int", "None")
] + [
    ("floats and a bool", [1.5, 2.7, True]),
    ("string", ["x"]),
    ("nested list", [[1, 2]]),
    ("numeric string", ["1"]),
    ("float and bool", [1.5, True]),
]


@pytest.mark.parametrize(
    "indices",
    [case[1] for case in BAD_INTEGERS],
    ids=[case[0] for case in BAD_INTEGERS],
)
def test_result_types_read_indices_under_the_integer_rule(indices):
    bounds = FrameBounds(0.4, 0.6)
    with pytest.raises(PreconditionError):
        HalvingRound(0, indices, bounds, 0.3, 0.7, 1)
    with pytest.raises(PreconditionError):
        PartitionResult(indices, (0,), bounds, bounds, 0.3, 0.7, 1)
    with pytest.raises(PreconditionError):
        PartitionResult((0,), indices, bounds, bounds, 0.3, 0.7, 1)
    with pytest.raises(PreconditionError):
        DuplicationMap(indices, 0)


def test_converted_inputs_are_allocated_once():
    # the copy rule copied each conversion once more: 2.0 x the kept bytes;
    # each first call pays for lazy imports
    values = np.random.default_rng(0).standard_normal((8, 8192)).astype(np.float32)
    for given in (values, values.tolist()):
        SampledSystem(given, np.arange(8192.0))
        system, peak = traced_peak(lambda: SampledSystem(given, np.arange(8192.0)))
        assert peak <= 1.5 * system.values.nbytes
    indices, bounds = np.arange(0, 131072, 2, dtype=np.int32), FrameBounds(0.4, 0.6)
    kept, peak = traced_peak(lambda: HalvingRound(0, indices, bounds, 0.3, 0.7, 1))
    assert peak <= 1.5 * kept.kept_indices.nbytes
    # the counts are also kept as a tuple of ints, built through a list
    counts = np.full(65536, 3, dtype=np.int32)
    dup, peak = traced_peak(lambda: DuplicationMap(counts, 0))
    assert peak <= 1.5 * dup._counts.nbytes + 2 * sys.getsizeof(dup.counts)


def _clamped(matrix):
    lo, hi = extreme_eigenvalues(matrix)
    return FrameBounds(max(lo, 0.0), max(hi, 0.0))


def test_bounds_keep_each_callers_arithmetic():
    # the shared Gram kernel reproduces, bit for bit, the product each
    # measurement formed before it existed
    rng = np.random.default_rng(17)
    for field in ("real", "complex"):
        frame = random_tight_frame(rng, 4, 40, field=field)
        v = frame.vectors
        subset = np.array([3, 1, 7, 20, 33])
        lam = rng.uniform(0.0, 2.0, 40)
        cols = v[:, subset]
        assert subset_bounds(frame, subset) == _clamped(cols @ cols.conj().T)
        assert frame_bounds(frame) == _clamped(hermitian_part(v @ v.conj().T))
        assert weighted_bounds(frame, lam) == _clamped(
            hermitian_part((v * lam) @ v.conj().T)
        )
        assert np.array_equal(frame_operator(frame), hermitian_part(v @ v.conj().T))


def test_verify_tight_rejects_scaled():
    frame = FrameSystem(np.eye(3) * 1.1)
    assert not verify_tight(frame, 1e-8)
    assert verify_tight(frame, 0.3)
    with pytest.raises(PreconditionError):
        verify_tight(frame, 0.0)


def test_tight_random_frames_have_unit_bounds():
    rng = np.random.default_rng(21)
    for field in ("real", "complex"):
        frame = random_tight_frame(rng, 5, 23, field=field)
        lo, hi = frame_bounds(frame)
        assert abs(lo - 1.0) < 1e-12 and abs(hi - 1.0) < 1e-12


def test_norms_squared_matches_loop():
    rng = np.random.default_rng(13)
    frame = random_tight_frame(rng, 4, 11, field="complex")
    norms = frame.norms_squared()
    for j in range(11):
        v = frame.vectors[:, j]
        assert abs(norms[j] - float(np.vdot(v, v).real)) < 1e-15
    assert abs(norms.sum() - 4.0) < 1e-12  # trace of identity


def test_hermitian_part():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    h = hermitian_part(m)
    assert np.array_equal(h, h.conj().T)
    assert np.allclose(h, [[1.0, 1.0], [1.0, 1.0]])


def test_only_the_copy_rule_sets_array_flags():
    # every array the package keeps is frozen by _frozen or copied by
    # _read_only, so no other code marks an array read-only by hand
    rule = [inspect.getsource(f) for f in (frame_core._read_only, frame_core._frozen)]
    for path in sorted(Path(frame_core.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name == "frame_core.py":
            assert all(part in text for part in rule)
            for part in rule:
                text = text.replace(part, "")
        assert "setflags(" not in text, path.name
