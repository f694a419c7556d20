"""Sampled-system pipelines: concentration constant, equal-weight and
weighted selection, random refinement, re-orthonormalization, and the
complex-to-real transfer."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from sampdisc import (
    ContinuousSystemSpec,
    DiscretizationError,
    FrameBounds,
    FrameSystem,
    MappingMismatchError,
    OracleConfig,
    PartitionRequest,
    PreconditionError,
    RefinementError,
    SampledSystem,
    StageError,
    SystemDescriptor,
    build_frame_from_samples,
    complexify_via_real,
    condition_e_constant,
    discretize_continuous,
    discretize_equal_weight,
    discretize_weighted,
    halving_schedule,
    halving_select,
    make_system,
    monte_carlo_refine,
    partition_targets,
    recompute_constants,
    reorthonormalize,
    save_certificate,
    spectral_partition,
    transfer_certificate,
    verify_certificate,
    verify_tight,
    weighted_select,
)

from sampdisc import discretize
from sampdisc.discretize import (
    _legacy_fingerprint,
    fingerprint_matches,
    system_fingerprint,
)

from helpers import loop_frame_operator, traced_peak


def trig_eval(n):
    # matches the trig generator's row order: 1, sqrt2 cos kx, sqrt2 sin kx
    def ev(x):
        row = [1.0]
        for k in range(1, (n - 1) // 2 + 1):
            row.append(np.sqrt(2.0) * np.cos(k * x))
            row.append(np.sqrt(2.0) * np.sin(k * x))
        return np.array(row)

    return ev


def trig_spec(n, name="trig"):
    def sampler(rng, count):
        return rng.uniform(0.0, 2.0 * np.pi, count)

    return ContinuousSystemSpec(n=n, sampler=sampler, evaluator=trig_eval(n), name=name)


# ---------------------------------------------------------------- concentration


def test_flat_systems_concentration_is_one():
    for desc in (
        SystemDescriptor("dft", n=3, m=16),
        SystemDescriptor("walsh", n=4, m=16),
        SystemDescriptor("trig", n=5, m=24),
    ):
        system = make_system(desc)
        report = condition_e_constant(system)
        assert abs(report.t - 1.0) < 1e-12
        assert abs(report.t_squared - 1.0) < 1e-12
        assert report.n == desc.n
        assert report.per_point_sums.shape == (desc.m,)


def test_indicator_system_concentration():
    # u_i = sqrt(m) * indicator of point i: orthonormal, all mass on one point
    for n, m in ((3, 7), (4, 4)):
        values = np.zeros((n, m))
        values[np.arange(n), np.arange(n)] = np.sqrt(m)
        system = SampledSystem(values, np.arange(m, dtype=float))
        assert system.orthonormality_residual() < 1e-13
        report = condition_e_constant(system)
        assert abs(report.t_squared - m / n) < 1e-12
        assert report.argmax_index < n


def test_concentration_witness_attains_bound():
    # the function with coefficients conj(u_i(x0)) meets |f(x0)|^2 = t^2 n ||f||^2
    system = make_system(SystemDescriptor("dft", n=3, m=11))
    report = condition_e_constant(system)
    coeffs = system.values[:, report.argmax_index].conj()
    f_vals = coeffs @ system.values
    norm_sq = float(np.sum(system.point_weights * np.abs(f_vals) ** 2))
    peak = float(np.abs(f_vals[report.argmax_index]) ** 2)
    assert abs(peak - report.t_squared * system.n * norm_sq) < 1e-9 * peak


def test_per_point_bound_on_random_functions():
    system = make_system(SystemDescriptor("trig", n=5, m=37))
    report = condition_e_constant(system)
    rng = np.random.default_rng(3)
    for _ in range(50):
        coeffs = rng.standard_normal(5)
        f_vals = coeffs @ system.values
        norm_sq = float(np.sum(system.point_weights * f_vals**2))
        assert np.max(f_vals**2) <= report.t_squared * 5 * norm_sq * (1 + 1e-12)


def test_concentration_requires_orthonormality():
    system = SampledSystem(np.array([[1.2, 1.2, 1.2]]), np.arange(3.0))
    with pytest.raises(PreconditionError, match="not orthonormal"):
        condition_e_constant(system)


# ------------------------------------------------------------- system plumbing


def test_build_frame_operator_equals_gram():
    rng = np.random.default_rng(11)
    w = rng.uniform(0.5, 1.5, 10)
    w /= w.sum()
    values = rng.standard_normal((3, 10))
    system = SampledSystem(values, np.arange(10.0), point_weights=w)
    frame = build_frame_from_samples(system)
    assert np.abs(loop_frame_operator(frame) - system.gram()).max() < 1e-13


@pytest.mark.parametrize(
    "points, message",
    [
        (["a", "b"], "not numbers"),
        ([[0.0, 1.0], [2.0]], "not numbers"),
        ([0.0, np.nan], "non-finite"),
        ([[0.0, 1.0], [np.inf, 2.0]], "non-finite"),
        ([10**400, 0.0], "not numbers"),
        (np.array([0.0, 1j]), "must be real"),
    ],
    ids=["strings", "ragged", "nan", "inf", "overflow", "complex"],
)
def test_points_must_be_finite_numbers(points, message):
    with pytest.raises(PreconditionError, match=message):
        SampledSystem(np.sqrt(2.0) * np.eye(2), points)


def test_fingerprint_sensitivity():
    base = make_system(SystemDescriptor("trig", n=3, m=8))
    same = SampledSystem(base.values, base.points, base.point_weights)
    assert base.fingerprint() == same.fingerprint()

    bumped = np.array(base.values)
    bumped[0, 0] += 1e-9
    assert SampledSystem(bumped, base.points).fingerprint() != base.fingerprint()
    moved = np.array(base.points)
    moved[0] += 1e-9
    assert SampledSystem(base.values, moved).fingerprint() != base.fingerprint()
    # complex tagging is part of the identity even with zero imaginary part
    assert (
        SampledSystem(np.array(base.values, dtype=complex), base.points).fingerprint()
        != base.fingerprint()
    )
    # a point weight moved while the weights still sum to 1
    shifted = np.array(base.point_weights)
    shifted[0] += 1e-13
    shifted[1] -= 1e-13
    assert SampledSystem(base.values, base.points, shifted).fingerprint() != (
        base.fingerprint()
    )
    # -0.0 and 0.0 are different doubles, in both hash versions
    assert base.values[2, 0] == 0.0 and not np.signbit(base.values[2, 0])
    signed = np.array(base.values)
    signed[2, 0] = -0.0
    negzero = SampledSystem(signed, base.points)
    assert negzero.fingerprint() != base.fingerprint()
    assert _legacy_fingerprint(negzero) != _legacy_fingerprint(base)

    current, legacy = base.fingerprint(), _legacy_fingerprint(base)
    assert current.startswith("sha256v2:") and legacy.startswith("sha256:")
    assert fingerprint_matches(base, current)
    assert fingerprint_matches(base, legacy)
    digest = current.split(":", 1)[1]
    # a v2 digest under the legacy prefix is checked as legacy and fails
    assert not fingerprint_matches(base, "sha256:" + digest)
    # unknown prefixes and non-strings are mismatches, never exceptions
    for stored in ("md5:" + digest, "sha256v3:" + digest, digest, "", None, 12):
        assert not fingerprint_matches(base, stored)


def test_orthonormality_residual_measured_once(monkeypatch):
    calls = []
    gram = SampledSystem.gram

    def counting_gram(self):
        calls.append(self)
        return gram(self)

    monkeypatch.setattr(SampledSystem, "gram", counting_gram)
    system = make_system(SystemDescriptor("trig", n=5, m=32))
    first = system.orthonormality_residual()
    assert system.orthonormality_residual() == first
    assert len(calls) == 1
    # another system with the same arrays measures its own
    twin = SampledSystem(system.values, system.points)
    assert twin.orthonormality_residual() == first
    assert len(calls) == 2
    # a frame's squared norms are measured once too, and stay read-only
    einsums = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a: einsums.append(a) or einsum(*a))
    frame = FrameSystem(system.values)
    norms = frame.norms_squared()
    assert frame.norms_squared() is norms and len(einsums) == 1
    assert not norms.flags.writeable
    np.testing.assert_allclose(norms, np.full(32, 5.0))


def test_selection_inputs_measured_once_per_system():
    system = make_system(SystemDescriptor("dft", n=8, m=8192), field="complex")
    report = condition_e_constant(system)
    assert condition_e_constant(system).per_point_sums is report.per_point_sums
    assert not report.per_point_sums.flags.writeable
    discretize_equal_weight(system, OracleConfig(seed=3))
    assert not system._frame._operator.flags.writeable
    # a second selection reuses the frame, its norms and its operator,
    # so it allocates about one half-frame gather, not the n x m copies
    _, peak = traced_peak(lambda: discretize_equal_weight(system, OracleConfig(seed=4)))
    assert peak <= 1.5 * system.values.nbytes


def _arrays(dtype, order):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((3, 16)) + (1j if dtype == np.complex128 else 0)
    return np.asarray(values, dtype=dtype, order=order), np.arange(16.0), np.full(16, 1 / 16)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("order", ["C", "F"])
def test_writable_arrays_are_copied_in_their_memory_order(dtype, order):
    given = _arrays(dtype, order)
    system = SampledSystem(*given)
    frame = FrameSystem(given[0])
    kept = (system.values, system.points, system.point_weights, frame.vectors)
    for array, source in zip(kept, given + given[:1]):
        assert array is not source and not np.shares_memory(array, source)
        assert not array.flags.writeable and source.flags.writeable
        assert array.flags.c_contiguous == source.flags.c_contiguous
        assert array.flags.f_contiguous == source.flags.f_contiguous
    before = [array.copy() for array in kept]
    for source in given:
        source[0] += 1.0
    for array, old in zip(kept, before):
        np.testing.assert_array_equal(array, old)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_read_only_arrays_are_kept_as_they_are(dtype):
    given = _arrays(dtype, "F")
    for array in given:
        array.setflags(write=False)
    system = SampledSystem(*given)
    kept = (system.values, system.points, system.point_weights)
    assert all(array is source for array, source in zip(kept, given))
    assert FrameSystem(given[0]).vectors is given[0]
    # a conversion makes an array of the package's own, read-only too
    ints = np.arange(6).reshape(2, 3)
    ints.setflags(write=False)
    vectors = FrameSystem(ints).vectors
    assert vectors.dtype == np.float64 and not vectors.flags.writeable
    # re-basing an orthonormal system shares its arrays
    orthonormal = make_system(SystemDescriptor("trig", n=3, m=16))
    rebased = reorthonormalize(orthonormal)
    assert rebased.values is orthonormal.values and rebased.points is orthonormal.points


def test_frame_keeps_the_product_it_is_built_from():
    system = make_system(SystemDescriptor("dft", n=8, m=8192))
    frame, peak = traced_peak(lambda: build_frame_from_samples(system))
    # the parent held the product and its copy: 2.06 x values.nbytes
    assert peak <= 1.25 * system.values.nbytes
    assert not frame.vectors.flags.writeable


def second_call_peak(call, system):
    """Peak traced bytes of the second ``call(system)`` in units of
    ``system.values.nbytes``; the first call pays for lazy imports."""
    call(system)
    return traced_peak(lambda: call(system))[1] / system.values.nbytes


def test_reorthonormalize_keeps_the_arrays_it_makes():
    rng = np.random.default_rng(0)
    system = SampledSystem(rng.standard_normal((8, 8192)), np.arange(8192.0))
    # copying the new values into the system again took 3.02 x values.nbytes
    assert second_call_peak(reorthonormalize, system) <= 2.5
    assert not reorthonormalize(system).basis_change.matrix.flags.writeable


def test_complexify_via_real_keeps_the_rows_it_stacks():
    system = make_system(SystemDescriptor("dft", n=8, m=8192))
    # copying the stacked rows and the new values again took 6.64 x values.nbytes
    assert second_call_peak(complexify_via_real, system) <= 5.5


def test_certificate_points_are_read_only():
    system = make_system(SystemDescriptor("walsh", n=4, m=64))
    assert not discretize_equal_weight(system).points.flags.writeable


def test_pipelines_read_the_system_frame(monkeypatch):
    builds = []
    build = discretize.build_frame_from_samples
    monkeypatch.setattr(
        discretize, "build_frame_from_samples", lambda s: builds.append(s) or build(s)
    )
    system = make_system(SystemDescriptor("random_orthonormal", n=3, m=256, seed=1))
    first = discretize_weighted(system, OracleConfig(seed=1))
    discretize_equal_weight(system, OracleConfig(seed=1))
    assert discretize_weighted(system, OracleConfig(seed=1)) == first
    assert builds == [system]
    skew = SampledSystem(system.values * np.array([[1.0], [2.0], [1.0]]), system.points)
    rebased = reorthonormalize(skew)
    assert builds == [system, skew]
    frame = skew._frame.vectors
    assert frame.tobytes() == (skew.values * np.sqrt(skew.point_weights)).tobytes()
    assert reorthonormalize(skew).values.tobytes() == rebased.values.tobytes()
    assert builds == [system, skew]


@pytest.mark.parametrize("kind, n, field", [("dft", 8, "complex"), ("trig", 9, "real")])
def test_reused_system_writes_the_bytes_of_a_fresh_one(tmp_path, kind, n, field):
    desc = SystemDescriptor(kind, n=n, m=8192)
    system = make_system(desc, field=field)
    path = tmp_path / "cert.json"

    def saved(cert):
        save_certificate(cert, str(path))
        return path.read_bytes()

    def weighted():
        return saved(discretize_weighted(system, OracleConfig(seed=1)))

    before = weighted()
    for seed in (3, 4, 3):
        reused = saved(discretize_equal_weight(system, OracleConfig(seed=seed)))
        fresh = make_system(desc, field=field)
        assert reused == saved(discretize_equal_weight(fresh, OracleConfig(seed=seed)))
    assert weighted() == before


@pytest.mark.parametrize("field", ["real", "complex"])
def test_fingerprint_is_the_same_in_either_memory_order(field):
    # random_orthonormal values are F-ordered; they and 2-d points in F
    # order are hashed through a buffer, and the digest is that of the
    # C-ordered bytes
    system = make_system(
        SystemDescriptor("random_orthonormal", n=8, m=8192, seed=1), field=field
    )
    planar = np.column_stack((system.points, -system.points))
    digests = {
        order: (
            SampledSystem(np.array(system.values, order=order), system.points),
            SampledSystem(system.values, np.array(planar, order=order)),
        )
        for order in "CF"
    }
    assert digests["F"][0].values.flags.f_contiguous
    assert digests["F"][1].points.flags.f_contiguous
    for kind in range(2):
        assert digests["C"][kind].fingerprint() == digests["F"][kind].fingerprint()
    assert digests["F"][0].fingerprint() == system.fingerprint()
    # shapes that do not fill the buffer evenly
    rng = np.random.default_rng(0)
    odd = rng.standard_normal((3, 10001)) * (1j if field == "complex" else 1.0)
    points = rng.standard_normal((10001, 3))
    found = {
        SampledSystem(np.array(odd, order=a), np.array(points, order=b)).fingerprint()
        for a in "CF"
        for b in "CF"
    }
    assert len(found) == 1


def test_fingerprint_of_f_ordered_values_copies_a_block_at_a_time():
    system = make_system(SystemDescriptor("random_orthonormal", n=8, m=8192, seed=1))
    assert system.values.flags.f_contiguous
    system_fingerprint(system)
    _, peak = traced_peak(lambda: system_fingerprint(system))
    assert peak <= 0.25 * system.values.nbytes


def test_fingerprint_hashed_once_but_matches_hash_again(monkeypatch):
    calls = []
    hashed = discretize.system_fingerprint

    def counting_fingerprint(system):
        calls.append(system)
        return hashed(system)

    monkeypatch.setattr(discretize, "system_fingerprint", counting_fingerprint)
    system = make_system(SystemDescriptor("trig", n=5, m=32))
    first = system.fingerprint()
    assert system.fingerprint() == first
    assert len(calls) == 1
    # another system with the same arrays hashes its own
    twin = SampledSystem(system.values, system.points)
    assert twin.fingerprint() == first
    assert len(calls) == 2
    # the integrity check hashes the arrays in hand on every call
    assert fingerprint_matches(system, first) and fingerprint_matches(system, first)
    assert len(calls) == 4


# ------------------------------------------------------------------ refinement


def test_refine_success_and_determinism():
    spec = trig_spec(3)
    system = monte_carlo_refine(spec, 0.5, seed=5)
    assert system.orthonormality_residual() <= 0.5
    assert system.m >= 64 and system.m % 64 == 0
    again = monte_carlo_refine(spec, 0.5, seed=5)
    assert again.fingerprint() == system.fingerprint()
    assert monte_carlo_refine(spec, 0.5, seed=6).fingerprint() != system.fingerprint()


def test_refine_domain_errors():
    # the domain of each argument, and of what each callback returns, is
    # in tests/test_input_contract.py
    spec = trig_spec(3)
    assert monte_carlo_refine(spec, 0.5, m_start=64, m_cap=64).m == 64
    with pytest.raises(StageError, match=r"\[refine\] m_cap=32 is below m_start=64"):
        discretize_continuous(spec, m_start=64, m_cap=32)
    # the refine stage records a Python int, which JSON can write
    cert = discretize_continuous(spec, seed=np.int64(5))
    assert type(cert.pipeline_log[0]["seed"]) is int


def _scalar_entries():
    frame = FrameSystem(np.eye(2))
    system = make_system(SystemDescriptor("trig", n=3, m=64))
    return {
        "halving_select": lambda x: halving_select(frame, x),
        "halving_schedule": halving_schedule,
        "partition_targets": lambda x: partition_targets(x, 1, 0.1),
        "PartitionRequest": lambda x: PartitionRequest(frame, (0, 1), x, 1.0, 1.0),
        "monte_carlo_refine": lambda x: monte_carlo_refine(trig_spec(3), x),
        "discretize_continuous": lambda x: discretize_continuous(trig_spec(3), mc_delta=x),
        "verify_tight": lambda x: verify_tight(frame, x),
        "verify_certificate": lambda x: verify_certificate(system, {}, tol=x),
        "discretize_equal_weight": lambda x: discretize_equal_weight(system, theta=x),
    }


@pytest.mark.parametrize(
    "entry, bad",
    [
        (entry, bad)
        for entry in _scalar_entries()
        for bad in ("1", True, None, [0.5], 1 + 0j)
        # theta=None selects the measured level
        if (entry, bad) != ("discretize_equal_weight", None)
    ],
)
def test_scalar_parameters_are_one_real_number(entry, bad):
    # the continuous pipeline reports a bad refine input as its stage error
    error = StageError if entry == "discretize_continuous" else PreconditionError
    with pytest.raises(error, match="must be one real number"):
        _scalar_entries()[entry](bad)


@pytest.mark.parametrize("mc_delta", [np.float32(0.5), Fraction(1, 2)])
def test_refine_stage_records_the_validated_target(tmp_path, mc_delta):
    cert = discretize_continuous(trig_spec(3), mc_delta=mc_delta)
    assert type(cert.pipeline_log[0]["target"]) is float
    path = tmp_path / "cert.json"
    save_certificate(cert, str(path))
    assert json.loads(path.read_text())["pipeline_log"][0]["target"] == "0.5"


def test_default_start_admits_spans_wider_than_64():
    # the default start is max(64, n): n = 65 starts at 65 and doubles
    spec = trig_spec(65)
    system = monte_carlo_refine(spec, 0.5)
    assert system.n == 65 and system.m % 65 == 0
    assert system.orthonormality_residual() <= 0.5
    cert = discretize_continuous(spec)
    assert cert.pipeline_log[0]["samples"] == system.m
    assert 0.0 < cert.constants.lower <= cert.constants.upper
    # a narrow span still starts at 64
    assert monte_carlo_refine(trig_spec(3), 0.5, m_cap=64).m == 64


def test_refine_failure_carries_best_deviation():
    # constant evaluator never orthonormalizes: Gram stays [[1,1],[1,1]]
    spec = ContinuousSystemSpec(
        n=2,
        sampler=lambda rng, count: rng.uniform(0, 1, count),
        evaluator=lambda x: np.array([1.0, 1.0]),
    )
    with pytest.raises(RefinementError) as err:
        monte_carlo_refine(spec, 0.4, seed=1, m_start=64, m_cap=256)
    assert abs(err.value.best_deviation - 1.0) < 1e-12


# ----------------------------------------------------------- reorthonormalize


def test_reorthonormalize_fast_path():
    system = make_system(SystemDescriptor("dft", n=2, m=8))
    out = reorthonormalize(system)
    assert np.array_equal(out.values, system.values)
    assert np.array_equal(out.basis_change.matrix, np.eye(2))
    assert out.basis_change.source_fingerprint == system.fingerprint()


def test_reorthonormalize_duplicate_row():
    base = make_system(SystemDescriptor("trig", n=3, m=12))
    values = np.vstack([base.values, base.values[1]])
    system = SampledSystem(values, base.points)
    out = reorthonormalize(system)
    assert out.n == 3  # duplicated direction collapses
    assert out.orthonormality_residual() < 1e-12
    t = out.basis_change.matrix
    assert t.shape == (4, 3)
    assert np.abs(t @ out.values - values).max() < 1e-12
    # already orthonormal now: second pass is the identity fast path
    twice = reorthonormalize(out)
    assert np.array_equal(twice.basis_change.matrix, np.eye(3))


def test_reorthonormalize_complex_phase_is_pinned():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((2, 10)) + 1j * rng.standard_normal((2, 10))
    system = SampledSystem(values, np.arange(10.0))
    out = reorthonormalize(system)
    assert out.orthonormality_residual() < 1e-12
    assert np.abs(out.basis_change.matrix @ out.values - system.values).max() < 1e-12
    for row in out.values:
        lead = np.flatnonzero(np.abs(row) > 1e-8 * np.abs(row).max())[0]
        assert abs(row[lead].imag) < 1e-12 and row[lead].real > 0


def test_reorthonormalize_zero_rowspace():
    system = SampledSystem(np.zeros((1, 3)), np.arange(3.0))
    with pytest.raises(PreconditionError, match="zero row space"):
        reorthonormalize(system)


# ---------------------------------------------------------------- equal weight


def test_equal_weight_canonical_trig():
    system = make_system(SystemDescriptor("trig", n=3, m=24))
    cert = discretize_equal_weight(system)
    # delta = 3/24 >= 1/100: every point is kept and the mean is the Gram
    assert cert.point_indices == tuple(range(24))
    assert cert.weights is None
    assert abs(cert.theta - 1.0) < 1e-12
    assert abs(cert.constants.lower - 1.0) < 1e-12
    assert abs(cert.constants.upper - 1.0) < 1e-12
    stages = [entry["stage"] for entry in cert.pipeline_log]
    assert stages == ["concentration", "halving"]
    assert cert.pipeline_log[1]["fast_path"]


def test_equal_weight_iterative_dft():
    system = make_system(SystemDescriptor("dft", n=2, m=256))
    cert = discretize_equal_weight(system)
    halving = cert.pipeline_log[1]
    assert not halving["fast_path"]
    assert halving["rounds"] == 1
    assert halving["schedule"] == [
        [1.0, 1.0],
        [0.2790291308792039, 0.7209708691207961],
    ]
    assert cert.m == 128
    # constants are the kept-half mean: subset frame bounds times m/|J| = 2
    assert abs(cert.constants.lower - 2.0 * halving["actual_lower"]) < 1e-12
    assert abs(cert.constants.upper - 2.0 * halving["actual_upper"]) < 1e-12
    assert cert.constants.lower >= 2.0 * 0.2790291308792039 - 1e-9
    assert cert.constants.upper <= 2.0 * 0.7209708691207961 + 1e-9


def test_equal_weight_theta_override():
    system = make_system(SystemDescriptor("trig", n=3, m=24))
    cert = discretize_equal_weight(system, theta=1.5)
    assert cert.theta == 1.5
    assert cert.m == 24
    # below the measured concentration the norm precondition must trip
    with pytest.raises(PreconditionError):
        discretize_equal_weight(system, theta=0.5)


def test_equal_weight_requires_uniform_weights():
    w = np.array([0.5, 0.25, 0.25])
    system = SampledSystem(np.array([[1.0, 1.0, 1.0]]), np.arange(3.0), point_weights=w)
    with pytest.raises(PreconditionError, match="uniform"):
        discretize_equal_weight(system)


# The shape of the paper's bound |J| <= C t^2 n: at the default level and
# search seed 0, halving keeps about 128 t^2 n points.  Each row is a
# system, its t^2, the points kept and C/c to 3 decimals.
PINNED_SUPPORT = [
    (SystemDescriptor("walsh", 8, 8192), 1.0, 1024, 1.309),
    (SystemDescriptor("dft", 8, 8192), 1.0, 1024, 1.233),
    (SystemDescriptor("trig", 9, 16384), 1.0, 1024, 1.238),
    (SystemDescriptor("random_orthonormal", 8, 8192, 1), 4.3906, 4096, 1.119),
]


@pytest.mark.parametrize(
    "desc, t_squared, support, ratio", PINNED_SUPPORT, ids=[r[0].kind for r in PINNED_SUPPORT]
)
def test_support_is_pinned_at_the_default_level(desc, t_squared, support, ratio):
    cert = discretize_equal_weight(make_system(desc), OracleConfig(seed=0))
    stages = {stage["stage"]: stage for stage in cert.pipeline_log}
    assert round(stages["concentration"]["t_squared"], 4) == t_squared
    assert cert.m == desc.m // 2 ** stages["halving"]["rounds"] == support
    c, C = cert.constants
    assert round(C / c, 3) == ratio


# ------------------------------------------------------------------ continuous


def test_continuous_trig_pipeline():
    cert = discretize_continuous(trig_spec(5), seed=0)
    stages = [entry["stage"] for entry in cert.pipeline_log]
    assert stages == ["refine", "reorthonormalize", "concentration", "halving", "pullback"]
    dev = cert.pipeline_log[0]["deviation"]
    assert 0.0 < dev <= 0.5
    pull = cert.pipeline_log[-1]
    assert abs(cert.constants.lower - pull["selected_lower"] * (1 - dev)) < 1e-15
    assert abs(cert.constants.upper - pull["selected_upper"] * (1 + dev)) < 1e-15
    assert 0.0 < cert.constants.lower < 1.0 < cert.constants.upper
    assert cert.kind == "equal_weight"
    # measured concentration of a random sample sits strictly above 1
    assert cert.theta > 1.0
    # rerun is byte-identical in substance
    again = discretize_continuous(trig_spec(5), seed=0)
    assert again.point_indices == cert.point_indices
    assert again.constants == cert.constants


def test_continuous_grid_sampler_matches_direct():
    # a sampler that ignores the rng and returns the uniform grid turns the
    # pipeline into plain equal-weight selection with a vanishing pullback
    n = 3

    def grid_sampler(rng, count):
        return 2.0 * np.pi * np.arange(count) / count

    spec = ContinuousSystemSpec(n=n, sampler=grid_sampler, evaluator=trig_eval(n))
    cert = discretize_continuous(spec, seed=9, m_start=64)

    pts = grid_sampler(None, 64)
    values = np.stack([trig_eval(n)(x) for x in pts], axis=1)
    direct = discretize_equal_weight(SampledSystem(values, pts))
    assert cert.point_indices == direct.point_indices
    assert abs(cert.constants.lower - direct.constants.lower) < 1e-12
    assert abs(cert.constants.upper - direct.constants.upper) < 1e-12


# -------------------------------------------------------------------- weighted


def test_weighted_single_point_canonical():
    cert = discretize_weighted(SampledSystem(np.array([[1.0]]), np.zeros(1)))
    assert cert.kind == "weighted"
    assert cert.point_indices == (0,)
    assert cert.weights == (0.5,)
    assert cert.constants == (0.5, 0.5)
    assert cert.theta == 2.0
    assert cert.m == 1


def test_weighted_drops_zero_mass_points():
    values = np.array([[np.sqrt(3.0), 0.0, 0.0], [0.0, np.sqrt(3.0), 0.0]])
    system = SampledSystem(values, np.arange(3.0))
    cert = discretize_weighted(system)
    assert cert.point_indices == (0, 1)
    assert cert.weights == (1.0 / 6.0, 1.0 / 6.0)
    assert abs(cert.constants.lower - 0.5) < 1e-12
    assert abs(cert.constants.upper - 0.5) < 1e-12


def test_weighted_support_leaner_than_equal_weight():
    # one heavy point plus 100 light ones; norm is 1 under uniform weights
    m = 101
    values = np.concatenate([[np.sqrt(80.0)], np.full(100, np.sqrt(0.21))])[None, :]
    system = SampledSystem(values, np.arange(float(m)))
    assert system.orthonormality_residual() < 1e-12

    eq = discretize_equal_weight(system)
    assert eq.m == m  # delta = t^2/m = 80/101 keeps everything

    cert = discretize_weighted(system, OracleConfig(seed=2))
    assert cert.m < m
    assert cert.m >= 2
    assert cert.constants.upper <= 160.0


def test_weighted_reorthonormalizes_first():
    # that the certificate verifies against the re-based system and not
    # against the input is part of tests/test_selector_contract.py
    system = SampledSystem(np.array([[2.0, 1.0, 1.0, 1.0]]), np.arange(4.0))
    cert = discretize_weighted(reorthonormalize(system))
    stages = [entry["stage"] for entry in cert.pipeline_log]
    assert stages == ["weighted", "halving"]
    # certificate speaks about the normalized span u/||u||
    scale = np.sqrt(7.0 / 4.0)
    u = system.values[0] / scale
    quad = float(np.sum(np.asarray(cert.weights) * u[list(cert.point_indices)] ** 2))
    assert cert.constants.lower - 1e-9 <= quad <= cert.constants.upper + 1e-9


# ------------------------------------------------------------ complex transfer


def test_complexify_rank_counts():
    # real-valued but complex-tagged: imaginary rows vanish, rank n
    trig = make_system(SystemDescriptor("trig", n=3, m=16))
    tagged = SampledSystem(np.array(trig.values, dtype=complex), trig.points)
    companion, mapping = complexify_via_real(tagged)
    assert companion.n == 3 and mapping.real_dim == 3

    # dft n=2: constant row contributes 1, the k=1 row a cos and a sin
    dft = make_system(SystemDescriptor("dft", n=2, m=16))
    companion, mapping = complexify_via_real(dft)
    assert companion.n == 3
    assert companion.field == "real"
    assert companion.orthonormality_residual() < 1e-12

    # generic complex span: real and imaginary parts independent, rank 2n
    rnd = make_system(SystemDescriptor("random_orthonormal", n=3, m=32, seed=4), field="complex")
    companion, mapping = complexify_via_real(rnd)
    assert companion.n == 6


def test_complexify_requires_complex_tag():
    system = make_system(SystemDescriptor("trig", n=3, m=16))
    with pytest.raises(PreconditionError, match="complex-tagged"):
        complexify_via_real(system)
    zero = SampledSystem(np.zeros((2, 4), dtype=np.complex128), np.arange(4.0))
    with pytest.raises(PreconditionError, match="system values are identically zero"):
        complexify_via_real(zero)


def test_transfer_equal_weight_dft():
    system = make_system(SystemDescriptor("dft", n=2, m=64))
    companion, mapping = complexify_via_real(system)
    real_cert = discretize_equal_weight(companion)
    moved = transfer_certificate(real_cert, system, mapping)
    assert moved.point_indices == real_cert.point_indices
    assert moved.constants.lower >= real_cert.constants.lower - 1e-10
    assert moved.constants.upper <= real_cert.constants.upper + 1e-10
    assert abs(moved.constants.lower - 1.0) < 1e-12
    assert abs(moved.constants.upper - 1.0) < 1e-12
    assert moved.pipeline_log[-1]["stage"] == "complex_transfer"
    assert moved.pipeline_log[-1]["real_dim"] == 3
    assert moved.input_fingerprint == system.fingerprint()


def test_transfer_zero_imag_is_equality():
    trig = make_system(SystemDescriptor("trig", n=3, m=30))
    tagged = SampledSystem(np.array(trig.values, dtype=complex), trig.points)
    companion, mapping = complexify_via_real(tagged)
    real_cert = discretize_equal_weight(companion)
    moved = transfer_certificate(real_cert, tagged, mapping)
    assert abs(moved.constants.lower - real_cert.constants.lower) < 1e-12
    assert abs(moved.constants.upper - real_cert.constants.upper) < 1e-12


def test_transfer_weighted_random_complex():
    system = make_system(
        SystemDescriptor("random_orthonormal", n=2, m=48, seed=13), field="complex"
    )
    companion, mapping = complexify_via_real(system)
    real_cert = discretize_weighted(companion, OracleConfig(seed=1))
    moved = transfer_certificate(real_cert, system, mapping)
    assert moved.kind == "weighted"
    assert moved.weights == real_cert.weights
    assert moved.constants.lower >= real_cert.constants.lower - 1e-10
    assert moved.constants.upper <= real_cert.constants.upper + 1e-10
    redone = recompute_constants(system, moved.point_indices, moved.weights)
    assert abs(redone.lower - moved.constants.lower) < 1e-10
    assert abs(redone.upper - moved.constants.upper) < 1e-10


def test_transfer_mapping_mismatches():
    system = make_system(SystemDescriptor("dft", n=2, m=32))
    companion, mapping = complexify_via_real(system)
    real_cert = discretize_equal_weight(companion)

    stranger = discretize_equal_weight(make_system(SystemDescriptor("trig", n=3, m=32)))
    with pytest.raises(MappingMismatchError, match="real companion"):
        transfer_certificate(stranger, system, mapping)

    other = make_system(SystemDescriptor("dft", n=2, m=34))
    with pytest.raises(MappingMismatchError, match="this complex system"):
        transfer_certificate(real_cert, other, mapping)


# ---------------------------------------------------------- one constants kernel


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["trig", "dft", "walsh", "random_orthonormal"])
def test_pipelines_measure_constants_with_the_shared_kernel(kind, field):
    # a transferred certificate's constants are exactly what verification
    # recomputes, as the selector contract checks for each selector
    n = 3 if kind == "trig" else 2
    system = make_system(SystemDescriptor(kind, n=n, m=512, seed=3), field=field)
    tagged = SampledSystem(np.array(system.values, dtype=complex), system.points)
    companion, mapping = complexify_via_real(tagged)
    for real_cert in (
        discretize_equal_weight(companion),
        discretize_weighted(companion, OracleConfig(seed=2)),
    ):
        cert = transfer_certificate(real_cert, tagged, mapping)
        assert cert.constants == recompute_constants(
            tagged, cert.point_indices, cert.weights
        )


# ------------------------------------------------------------- continuous norm


def _closed_form(kind, n, m, points):
    """Basis functions of a generated system on its continuous domain,
    evaluated at ``points``, shape (n, len(points))."""
    if kind == "trig":
        return np.stack([trig_eval(n)(x) for x in points], axis=1)
    k = np.arange(n)[:, None]
    if kind == "dft":
        return np.exp(2j * np.pi * k * points)
    # walsh: point j stands for the dyadic cell [j/m, (j+1)/m), on which
    # w_k is -1 to the number of bits k and j share
    return (-1.0) ** np.bitwise_count(k & points.astype(np.int64))


@pytest.mark.parametrize("kind, n, m", [("trig", 5, 2048), ("dft", 8, 4096), ("walsh", 4, 4096)])
def test_certificates_hold_for_the_continuous_norm(kind, n, m):
    # on these grids the mean of |f|^2 over the grid is its integral, so
    # the constants bound sum_nu lambda_nu |f(xi_nu)|^2 / ||f||^2 for f in
    # the continuous span; f is taken from its closed form
    system = make_system(SystemDescriptor(kind, n=n, m=m))
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((20, n))
    if system.field == "complex":
        coeffs = coeffs + 1j * rng.standard_normal((20, n))
    for cert in (discretize_equal_weight(system), discretize_weighted(system)):
        assert not cert.pipeline_log[-1]["fast_path"]
        weights = np.full(cert.m, 1.0 / cert.m) if cert.weights is None else cert.weights
        f = coeffs @ _closed_form(kind, n, m, cert.points)
        ratios = np.abs(f) ** 2 @ weights / np.sum(np.abs(coeffs) ** 2, axis=1)
        lower, upper = cert.constants
        assert (lower - 1e-12 <= ratios).all() and (ratios <= upper + 1e-12).all()


# ------------------------------------------------------ plain result fields


def _assert_plain(values, kind):
    """A tuple of exactly ``kind`` (no numpy scalars) that JSON encodes."""
    assert type(values) is tuple and len(values) > 0
    assert {type(v) for v in values} == {kind}
    json.dumps(values)


def test_result_index_and_weight_fields_are_python_scalars():
    system = make_system(SystemDescriptor("random_orthonormal", n=2, m=512, seed=7))
    wcert = weighted_select(build_frame_from_samples(system), OracleConfig(seed=5))
    hcert = wcert.halving
    assert not hcert.fast_path and len(hcert.rounds) >= 2
    for field in (
        hcert.J,
        wcert.support,
        wcert.duplication.counts,
        wcert.duplication.copy_to_source,
        *(r.kept for r in hcert.rounds),
    ):
        _assert_plain(field, int)
    _assert_plain(wcert.weights, float)

    frame = build_frame_from_samples(system)
    req = PartitionRequest(
        frame=frame,
        active=np.arange(system.m),
        delta=float(frame.norms_squared().max()),
        alpha=1.0,
        beta=1.0,
    )
    part = spectral_partition(req, seed=5)
    _assert_plain(req.active, int)
    _assert_plain(part.s1, int)
    _assert_plain(part.s2, int)


# ------------------------------------------------------------ fault detectors
# No input reaches these checks: each compares two measurements that agree
# by construction, so one measurement is replaced to make it fire.


def _lower_zero(*args):
    return FrameBounds(0.0, 1.0)


def test_trace_floor_refuses_a_concentration_below_it(monkeypatch):
    # the weighted mean of the per-point sums is n (1 - residual) or more;
    # a residual reported as -1 moves the floor above every point
    monkeypatch.setattr(discretize, "_checked_residual", lambda system, tol: -1.0)
    with pytest.raises(DiscretizationError, match="below the trace floor"):
        condition_e_constant(make_system(SystemDescriptor("trig", n=3, m=8)))


def test_equal_weight_refuses_a_selection_that_lost_rank(monkeypatch):
    monkeypatch.setattr(discretize, "recompute_constants", _lower_zero)
    with pytest.raises(DiscretizationError, match="lost rank: lower constant is 0"):
        discretize_equal_weight(make_system(SystemDescriptor("trig", n=3, m=24)))


def test_continuous_reports_a_select_failure_as_its_stage(monkeypatch):
    monkeypatch.setattr(discretize, "recompute_constants", _lower_zero)
    with pytest.raises(StageError, match="\\[select\\] selected points lost rank"):
        discretize_continuous(trig_spec(3), seed=0)


def test_weighted_refuses_constants_that_disagree_with_the_frame(monkeypatch):
    # the frame of this system gives lower bound 0.5
    fake = FrameBounds(0.25, 0.5)
    monkeypatch.setattr(discretize, "recompute_constants", lambda *args: fake)
    with pytest.raises(DiscretizationError, match="failed cross-verification"):
        discretize_weighted(SampledSystem(np.array([[1.0]]), np.zeros(1)))


def test_transfer_refuses_constants_outside_the_real_interval(monkeypatch):
    system = make_system(SystemDescriptor("dft", n=2, m=64))
    companion, mapping = complexify_via_real(system)
    real_cert = discretize_equal_weight(companion)
    fake = FrameBounds(0.5, 2.0)
    monkeypatch.setattr(discretize, "recompute_constants", lambda *args: fake)
    with pytest.raises(DiscretizationError, match="escape the real interval"):
        transfer_certificate(real_cert, system, mapping)


# ------------------------------------------------------------------ equality


def test_results_compare_by_value_and_systems_by_identity():
    system = make_system(SystemDescriptor("dft", n=2, m=256))
    cert = discretize_equal_weight(system)
    assert cert == dataclasses.replace(cert)
    assert cert != dataclasses.replace(cert, constants=FrameBounds(0.5, 2.0))
    report = condition_e_constant(system)
    assert report == dataclasses.replace(report)
    assert report != dataclasses.replace(report, t=2.0)
    twin = make_system(SystemDescriptor("dft", n=2, m=256))
    assert (system == system) is True and (system == twin) is False
    frame = build_frame_from_samples(system)
    assert (frame == build_frame_from_samples(system)) is False
    change = reorthonormalize(system).basis_change
    assert (change == change) is True
    assert (change == reorthonormalize(system).basis_change) is False
