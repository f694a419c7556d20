"""Halving schedules and iterated selection certificates."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampdisc import (
    DiscretizationError,
    DomainError,
    DuplicationMap,
    FrameBounds,
    FrameSystem,
    HalvingSchedule,
    OracleConfig,
    PartitionRequest,
    PreconditionError,
    SystemDescriptor,
    build_frame_from_samples,
    check_cardinality_sandwich,
    condition_e_constant,
    duplicate_normalize,
    halving_schedule,
    halving_select,
    make_system,
    partition_targets,
    spectral_partition,
)
from sampdisc.halving_select import HalvingRound

from helpers import svd_subset_bounds


def dft_frame(n, m):
    values = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(m)) / m)
    return FrameSystem(values / np.sqrt(m))


def test_schedule_frozen_delta_1_over_400():
    sched = halving_schedule(1.0 / 400.0)
    assert sched.steps[0] == (1.0, 1.0)
    assert sched.steps[1] == (0.375, 0.625)
    assert sched.steps[2] == (0.11095344553802569, 0.4400775907699572)
    assert sched.rounds == 2 and sched.L == 1
    assert sched.final_lower == 0.11095344553802569


def test_schedule_frozen_delta_009():
    sched = halving_schedule(0.009)
    assert sched.rounds == 1 and sched.L == 0
    assert sched.steps[1] == (0.26282917548737156, 0.7371708245126285)


def test_schedule_domain():
    for bad in (0.01, 0.0, -1e-3, 0.5):
        with pytest.raises(DomainError):
            halving_schedule(bad)


def test_schedule_consistency_guard():
    delta = 1.0 / 400.0
    sched = HalvingSchedule(delta)
    assert sched == halving_schedule(delta)
    assert sched.steps[:2] == ((1.0, 1.0), partition_targets(1.0, 1.0, delta))
    # a numpy delta still gives a ladder of Python floats
    steps = HalvingSchedule(np.float64(delta)).steps
    assert steps == sched.steps
    assert {type(x) for step in steps for x in step} == {float}
    # steps are worked out from delta, never supplied
    with pytest.raises(TypeError):
        HalvingSchedule(delta=delta, steps=((1.0, 1.0), (0.375, 0.625)))
    with pytest.raises(DomainError):
        HalvingSchedule(0.01)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.009999999))
def test_schedule_recursion_and_sandwich(delta):
    sched = halving_schedule(delta)
    a, b = 1.0, 1.0
    for j in range(sched.rounds):
        assert sched.steps[j] == (a, b)
        assert a >= 100.0 * delta  # only qualifying steps are split
        a, b = partition_targets(a, b, delta)
    assert sched.steps[-1] == (a, b)
    assert 25.0 * delta <= a + 1e-12
    assert a < 100.0 * delta


def test_fast_path_identity():
    cert = halving_select(FrameSystem(np.eye(2)), 1.0)
    assert cert.fast_path
    assert cert.J == (0, 1)
    assert cert.schedule is None
    assert (cert.theoretical_lower, cert.theoretical_upper) == (1.0, 1.0)
    assert abs(cert.actual.lower - 1.0) < 1e-14
    assert cert.rescale == 1.0
    assert cert.rounds == ()


def test_iterative_path_rounds_are_a_tuple():
    cert = halving_select(dft_frame(2, 1024), 1.0)
    assert not cert.fast_path and len(cert.rounds) == cert.schedule.rounds == 2
    assert type(cert.rounds) is tuple
    assert all(isinstance(r, HalvingRound) for r in cert.rounds)
    assert [r.index for r in cert.rounds] == list(range(cert.schedule.rounds))
    hash(cert)


def test_fast_path_drops_zero_vectors():
    frame = FrameSystem(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    cert = halving_select(frame, 1.5)
    assert cert.fast_path
    assert cert.J == (0, 1)
    assert abs(cert.actual.lower - 1.0) < 1e-14
    assert abs(cert.actual.upper - 1.0) < 1e-14


def test_norm_condition_names_offender():
    # vector 1 carries half the trace: norm^2 = 0.5 > delta = 2/8
    r2 = 1.0 / np.sqrt(2.0)
    vals = np.array(
        [[r2, r2, 0, 0, 0, 0, 0, 0], [0, 0, 0.5, 0.5, 0.5, 0.5, 0, 0]]
    )
    frame = FrameSystem(vals)
    with pytest.raises(PreconditionError) as err:
        halving_select(frame, 1.0)
    assert "vector 0" in str(err.value) or "vector 1" in str(err.value)


def test_theta_exceeding_ratio():
    with pytest.raises(PreconditionError):
        halving_select(FrameSystem(np.eye(2)), 1.5)
    # a nonpositive or NaN level is named as such, before any other check
    for theta in (-1.0, 0.0, float("nan")):
        with pytest.raises(PreconditionError, match="theta must be positive"):
            halving_select(FrameSystem(np.eye(2) * 1.1), theta)


def test_non_tight_rejected():
    with pytest.raises(PreconditionError):
        halving_select(FrameSystem(np.eye(2) * 1.1), 1.0)


def test_iterative_dft_one_round():
    frame = dft_frame(2, 256)
    cert = halving_select(frame, 1.0, OracleConfig(seed=3))
    delta = 2.0 / 256.0
    assert not cert.fast_path
    assert cert.delta == delta
    assert cert.schedule.rounds == 1 and cert.schedule.L == 0
    assert len(cert.J) == 128
    assert cert.actual.lower >= 25.0 * delta - 1e-10
    assert cert.actual.lower >= cert.theoretical_lower - 1e-10
    assert cert.actual.upper <= cert.theoretical_upper + 1e-10
    assert cert.theoretical_lower == 0.2790291308792039
    assert cert.theoretical_upper == 0.7209708691207961
    # measured bounds are reproducible from the stored index set
    lo, up = svd_subset_bounds(frame, cert.J)
    assert abs(cert.actual.lower - lo) < 1e-12
    assert abs(cert.actual.upper - up) < 1e-12
    assert check_cardinality_sandwich(cert, frame)


def test_iterative_dft_two_rounds_nested():
    frame = dft_frame(2, 1024)
    cert = halving_select(frame, 1.0, OracleConfig(seed=2))
    assert cert.schedule.rounds == 2
    assert len(cert.J) <= 1024 / 4
    kept_chain = [r.kept for r in cert.rounds]
    assert set(kept_chain[1]) < set(kept_chain[0])
    assert set(cert.J) == set(kept_chain[1])
    for j, rnd in enumerate(cert.rounds):
        lo_t, up_t = partition_targets(
            cert.schedule.steps[j][0], cert.schedule.steps[j][1], cert.delta
        )
        assert rnd.target_lower == lo_t and rnd.target_upper == up_t
        assert rnd.measured.lower >= lo_t - 1e-10
        assert rnd.measured.upper <= up_t + 1e-10
        lo, up = svd_subset_bounds(frame, rnd.kept)
        assert abs(rnd.measured.lower - lo) < 1e-12
        assert abs(rnd.measured.upper - up) < 1e-12


def _trig_golden_case():
    system = make_system(SystemDescriptor("trig", n=5, m=2048))
    frame = build_frame_from_samples(system)
    return frame, condition_e_constant(system).t_squared


def _weighted_copy_case():
    system = make_system(SystemDescriptor("random_orthonormal", n=4, m=1024, seed=11))
    copies, _ = duplicate_normalize(build_frame_from_samples(system))
    return copies, min(2.0, copies.m / system.n)


@pytest.mark.parametrize("case", [_trig_golden_case, _weighted_copy_case])
def test_rounds_agree_with_the_one_step_api(case):
    # each round, replayed through PartitionRequest/spectral_partition,
    # keeps the same side with the same bounds, targets and candidates
    frame, theta = case()
    cfg = OracleConfig(seed=3)
    cert = halving_select(frame, theta, cfg)
    assert len(cert.rounds) >= 2
    active = tuple(range(frame.m))
    for j, rnd in enumerate(cert.rounds):
        alpha, beta = cert.schedule.steps[j]
        req = PartitionRequest(
            frame=frame, active=active, delta=cert.delta, alpha=alpha, beta=beta
        )
        res = spectral_partition(req, budget=cfg.budget, seed=cfg.seed + j)
        if len(res.s1) <= len(res.s2):
            kept, measured = res.s1, res.bounds_s1
        else:
            kept, measured = res.s2, res.bounds_s2
        assert rnd.kept == kept and rnd.measured == measured
        assert (rnd.target_lower, rnd.target_upper) == (
            res.lower_target,
            res.upper_target,
        )
        assert rnd.candidates_tried == res.candidates_tried
        active = rnd.kept


@pytest.mark.parametrize(
    "kind, n, m, field",
    [("trig", 5, 2048, "real"), ("walsh", 8, 8192, "real"), ("dft", 8, 4096, "complex")],
)
def test_plain_frame_halves_as_the_multiset_copying_each_column_once(kind, n, m, field):
    # one halving path: a plain frame and the same frame given as copies
    # with every count 1 agree bit for bit, round by round
    system = make_system(SystemDescriptor(kind, n=n, m=m), field=field)
    frame = build_frame_from_samples(system)
    theta = condition_e_constant(system).t_squared
    cfg = OracleConfig(seed=3)
    plain = halving_select(frame, theta, cfg)
    ones = DuplicationMap(np.ones(m, dtype=np.int64), 0)
    multiset = halving_select(frame, theta, cfg, copies=ones)
    assert plain.rounds
    assert plain.J == multiset.J and plain.actual == multiset.actual
    for got, want in zip(multiset.rounds, plain.rounds, strict=True):
        assert got.kept == want.kept
        assert got.candidates_tried == want.candidates_tried
        assert got.measured == want.measured


def test_iterative_determinism():
    frame = dft_frame(2, 256)
    a = halving_select(frame, 1.0, OracleConfig(seed=9))
    b = halving_select(frame, 1.0, OracleConfig(seed=9))
    assert a.J == b.J
    assert a.actual == b.actual
    assert a.rounds and a.rounds == b.rounds
    # rounds compare kept sides too: same scalars, one kept index fewer
    first = a.rounds[0]
    shorter = dataclasses.replace(first, kept_indices=first.kept_indices[1:])
    assert shorter != first and first != shorter
    assert dataclasses.replace(first, kept_indices=list(first.kept)) == first
    assert first != first.kept


def test_theta_at_ratio_fast_path_and_randomized_only():
    # theta = m/n gives delta = 1, the largest level, on the fast path
    frame = dft_frame(2, 8)
    cert = halving_select(frame, 4.0)
    assert cert.fast_path
    assert cert.delta == 1.0
    assert cert.J == tuple(range(8))
    assert (cert.theoretical_lower, cert.theoretical_upper) == (1.0, 1.0)
    assert abs(cert.actual.lower - 1.0) < 1e-14
    with pytest.raises(PreconditionError):
        halving_select(frame, 4.0 * (1.0 + 1e-9))
    # a halving round needs m > 100 n theta >= 100 vectors, beyond the
    # exhaustive enumeration limit of 24, so only the randomized search
    # is configurable
    with pytest.raises(PreconditionError):
        OracleConfig(strategy="exhaustive")
    assert OracleConfig(strategy="randomized") == OracleConfig()
    # strategy is checked, not stored: replace keeps working without it
    assert [f.name for f in dataclasses.fields(OracleConfig)] == ["budget", "seed"]
    assert dataclasses.replace(OracleConfig(seed=3), budget=7) == OracleConfig(budget=7, seed=3)
    assert "strategy" not in vars(OracleConfig(strategy="randomized"))


def test_cardinality_sandwich_rejections():
    frame = dft_frame(2, 256)
    cert = halving_select(frame, 1.0, OracleConfig(seed=3))
    assert check_cardinality_sandwich(cert, frame)
    empty = dataclasses.replace(cert, J=())
    assert not check_cardinality_sandwich(empty, frame)
    with pytest.raises(PreconditionError):
        check_cardinality_sandwich(dataclasses.replace(cert, J=(0, 999)), frame)
    # a zero vector smuggled into J defeats the norm-based bound
    padded = FrameSystem(
        np.hstack([frame.vectors, np.zeros((2, 1), dtype=complex)])
    )
    smuggled = dataclasses.replace(cert, J=cert.J + (256,))
    assert not check_cardinality_sandwich(smuggled, padded)


@pytest.mark.parametrize(
    "bounds, message",
    [((0.0, 0.5), "fell below schedule value"), ((0.5, 10.0), "exceeds schedule value")],
    ids=["lower", "upper"],
)
def test_verified_bounds_outside_the_schedule_are_refused(monkeypatch, bounds, message):
    # each round's split already meets its step, so the final measurement
    # is replaced to make the verification fire; ``sampdisc.halving_select``
    # is the function, so the module is taken from sys.modules
    module = sys.modules["sampdisc.halving_select"]
    monkeypatch.setattr(module, "_gram_bounds", lambda *args: FrameBounds(*bounds))
    frame = build_frame_from_samples(make_system(SystemDescriptor("dft", n=2, m=256)))
    with pytest.raises(DiscretizationError, match=message):
        halving_select(frame, 1.0)
