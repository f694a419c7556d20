"""Spectral partition search against hand values and brute force."""

import numpy as np
import pytest

from sampdisc import (
    FrameSystem,
    OracleConfig,
    PartitionRequest,
    PartitionResult,
    PartitionSizeError,
    PreconditionError,
    SearchFailureError,
    SystemDescriptor,
    build_frame_from_samples,
    condition_e_constant,
    duplicate_normalize,
    halving_select,
    make_system,
    partition_targets,
    spectral_partition,
    subset_bounds,
)
from sampdisc.frame_core import _gram, _gram_bounds, frame_operator
from sampdisc.partition_oracle import VERIFY_SLACK, _randomized, _split_ok
from sampdisc.weighted_sparsify import COPY_CAP, _scaled_sources

from helpers import random_tight_frame, svd_subset_bounds

R2 = 1.0 / np.sqrt(2.0)
SLACK = 1e-10


def brute_force_accept_set(frame, active, lo_t, up_t):
    """All splits (0 pinned to s1, both sides nonempty) meeting the
    targets, judged by the SVD oracle.  Returns {s1 tuple: upper of the
    smaller side}."""
    active = list(active)
    rest = active[1:]
    accepted = {}
    for mask in range(1, 1 << len(rest)):
        s1 = [active[0]] + [rest[b] for b in range(len(rest)) if (mask >> b) & 1]
        s2 = [j for j in active if j not in s1]
        if not s2 or len(s1) == len(active):
            continue
        lo1, up1 = svd_subset_bounds(frame, s1)
        lo2, up2 = svd_subset_bounds(frame, s2)
        if (
            lo1 >= lo_t - SLACK
            and lo2 >= lo_t - SLACK
            and up1 <= up_t + SLACK
            and up2 <= up_t + SLACK
        ):
            small_up = up1 if len(s1) <= len(s2) else up2
            accepted[tuple(sorted(s1))] = small_up
    return accepted


def test_targets_frozen_quarter():
    # r = 5 sqrt(1/400) = 1/4 exactly
    lo, up = partition_targets(1.0, 1.0, 1.0 / 400.0)
    assert lo == 0.375 and up == 0.625


def test_targets_scale_with_beta():
    lo, up = partition_targets(1.0, 2.0, 1.0 / 400.0)
    assert lo == 0.375 and up == 1.25


def test_targets_validation():
    with pytest.raises(PreconditionError):
        partition_targets(0.5, 1.0, 0.5)
    with pytest.raises(PreconditionError):
        partition_targets(1.0, 0.5, 0.1)
    with pytest.raises(PreconditionError):
        partition_targets(1.0, 1.0, 0.0)


def test_request_validation():
    frame = FrameSystem(np.eye(2))
    with pytest.raises(PreconditionError):
        PartitionRequest(frame=frame, active=(), delta=0.1, alpha=1.0, beta=1.0)
    with pytest.raises(PreconditionError):
        PartitionRequest(frame=frame, active=(0, 0), delta=0.1, alpha=1.0, beta=1.0)
    with pytest.raises(PreconditionError):
        PartitionRequest(frame=frame, active=(0, 2), delta=0.1, alpha=1.0, beta=1.0)
    with pytest.raises(PreconditionError):
        PartitionRequest(frame=frame, active=(0, 1), delta=0.1, alpha=0.05, beta=1.0)
    with pytest.raises(PreconditionError):
        PartitionRequest(frame=frame, active=(0, 1), delta=0.1, alpha=1.0, beta=0.5)
    req = PartitionRequest(frame=frame, active=(1, 0), delta=1.1, alpha=1.2, beta=1.2)
    assert req.active == (0, 1)  # normalized to sorted


@pytest.mark.parametrize(
    "active, message",
    [
        ((), "active index set is empty"),
        ((2, 0, 2), "active index set contains duplicates"),
        ((1, 1, 2), "active index set contains duplicates"),
        ((0, 3), r"active index set out of range 0\.\.2: offending value 3"),
        ((1, -1), r"active index set out of range 0\.\.2: offending value -1"),
    ],
)
def test_request_rejects_arrays_like_tuples(active, message):
    frame = FrameSystem(np.eye(3))
    for given in (active, list(active), np.array(active, dtype=np.int64)):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            PartitionRequest(frame=frame, active=given, delta=0.1, alpha=1.0, beta=1.0)


def test_request_and_result_from_unsorted_array():
    rng = np.random.default_rng(3)
    frame = random_tight_frame(rng, 2, 12)
    delta = float(frame.norms_squared().max())
    active = np.array([7, 2, 11, 0, 5, 9, 3, 1, 10, 4, 8, 6], dtype=np.int64)
    from_array = PartitionRequest(frame=frame, active=active, delta=delta, alpha=1.0, beta=1.0)
    from_tuple = PartitionRequest(
        frame=frame, active=tuple(range(12)), delta=delta, alpha=1.0, beta=1.0
    )
    assert from_array.active == tuple(range(12))
    assert all(type(j) is int for j in from_array.active)
    assert active[0] == 7  # the caller's array is left as it was
    one = spectral_partition(from_array, budget=50, seed=4)
    two = spectral_partition(from_tuple, budget=50, seed=4)
    assert one == two
    assert all(type(j) is int for j in one.s1 + one.s2)

    s1 = np.array([3, 0], dtype=np.int64)
    s2 = np.array([1, 2], dtype=np.int64)
    res = PartitionResult(
        s1=s1, s2=s2, bounds_s1=one.bounds_s1, bounds_s2=one.bounds_s2,
        lower_target=0.0, upper_target=1.0, candidates_tried=1,
    )
    assert res.s1 == (3, 0) and res.s2 == (1, 2)
    assert all(type(j) is int for j in res.s1 + res.s2)
    s1[0] = 5  # the caller's arrays stay writable and unshared
    s2[0] = 6
    assert res.s1 == (3, 0) and res.s2 == (1, 2)


def test_two_halves_line():
    frame = FrameSystem(np.array([[R2, R2]]))
    req = PartitionRequest(frame=frame, active=(0, 1), delta=0.6, alpha=1.0, beta=1.0)
    for strategy in ("exhaustive", "randomized"):
        res = spectral_partition(req, strategy=strategy, seed=0)
        assert res.s1 == (0,) and res.s2 == (1,)
        assert abs(res.bounds_s1.lower - 0.5) < 1e-14
        assert abs(res.bounds_s2.upper - 0.5) < 1e-14


def test_identical_pairs_tiebreak_frozen():
    # four vectors, two per axis; six splits tie at smaller-side upper
    # 1/2 and the lexicographically smallest s1 must win
    frame = FrameSystem(np.array([[R2, R2, 0, 0], [0, 0, R2, R2]]))
    req = PartitionRequest(
        frame=frame, active=(0, 1, 2, 3), delta=0.51, alpha=1.0, beta=1.0
    )
    res = spectral_partition(req, strategy="exhaustive")
    assert res.s1 == (0,)
    assert res.s2 == (1, 2, 3)
    assert res.candidates_tried == 8
    assert abs(res.bounds_s1.upper - 0.5) < 1e-14


def test_exhaustive_matches_brute_force_dft():
    sysvals = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(8)) / 8)
    frame = FrameSystem(sysvals / np.sqrt(8))
    req = PartitionRequest(
        frame=frame, active=tuple(range(8)), delta=0.51, alpha=1.0, beta=1.0
    )
    res = spectral_partition(req, strategy="exhaustive")
    accepted = brute_force_accept_set(frame, range(8), res.lower_target, res.upper_target)
    assert res.s1 in accepted
    # the oracle minimizes the smaller side's upper bound
    assert accepted[res.s1] <= min(accepted.values()) + 1e-10


def min_side_lower(frame, active):
    """Per split: the smaller of the two sides' lowest eigenvalues."""
    active = list(active)
    rest = active[1:]
    stats = {}
    for mask in range(1, 1 << len(rest)):
        s1 = [active[0]] + [rest[b] for b in range(len(rest)) if (mask >> b) & 1]
        s2 = [j for j in active if j not in s1]
        if not s2 or len(s1) == len(active):
            continue
        lo1, _ = svd_subset_bounds(frame, s1)
        lo2, _ = svd_subset_bounds(frame, s2)
        stats[tuple(sorted(s1))] = min(lo1, lo2)
    return stats


def inflate_alpha(delta, lower_target):
    """The declared alpha whose lower target equals ``lower_target``.

    Inverts alpha/2 - 2.5 sqrt(delta alpha) = target (quadratic in
    sqrt(alpha), positive root).
    """
    x = 2.5 * np.sqrt(delta) + np.sqrt(6.25 * delta + 2.0 * lower_target)
    return float(x * x)


def test_dishonest_request_rejects_match_brute_force():
    # an inflated declared lower bound pushes the lower target to the
    # median of the per-split statistic, so roughly half the splits
    # must be rejected; oracle and brute force must agree exactly
    rng = np.random.default_rng(42)
    frame = random_tight_frame(rng, 3, 9, max_norm_sq=0.7)
    delta = float(frame.norms_squared().max()) * 1.000001
    stats = min_side_lower(frame, range(9))
    target = float(np.median(list(stats.values())))
    alpha = inflate_alpha(delta, target)
    lo_t, up_t = partition_targets(alpha, alpha, delta)
    assert abs(lo_t - target) < 1e-12
    accepted = brute_force_accept_set(frame, range(9), lo_t, up_t)
    assert 0 < len(accepted) < len(stats)  # genuinely mixed
    req = PartitionRequest(
        frame=frame, active=tuple(range(9)), delta=delta, alpha=alpha, beta=alpha
    )
    res = spectral_partition(req, strategy="exhaustive")
    assert res.s1 in accepted
    assert accepted[res.s1] <= min(accepted.values()) + 1e-10


def test_impossible_targets_fail_both_strategies():
    # frame operator is 0.05 I but the request claims (1, 1); the lower
    # target 0.11 exceeds the whole operator, so no split can verify
    rng = np.random.default_rng(2)
    base = random_tight_frame(rng, 2, 16, max_norm_sq=0.45)
    frame = FrameSystem(base.vectors * np.sqrt(0.05))
    req = PartitionRequest(
        frame=frame, active=tuple(range(16)), delta=0.024, alpha=1.0, beta=1.0
    )
    with pytest.raises(SearchFailureError):
        spectral_partition(req, strategy="exhaustive")
    with pytest.raises(SearchFailureError) as err:
        spectral_partition(req, strategy="randomized", budget=50, seed=1)
    assert "missed targets" in str(err.value)


def test_randomized_determinism():
    rng = np.random.default_rng(8)
    frame = random_tight_frame(rng, 3, 20, max_norm_sq=0.4)
    req = PartitionRequest(
        frame=frame, active=tuple(range(20)), delta=0.41, alpha=1.0, beta=1.0
    )
    a = spectral_partition(req, strategy="randomized", seed=7)
    b = spectral_partition(req, strategy="randomized", seed=7)
    assert a.s1 == b.s1 and a.s2 == b.s2
    assert a.candidates_tried == b.candidates_tried
    assert len(a.s1) == 10  # balanced candidates


def test_result_bounds_reverify():
    rng = np.random.default_rng(14)
    frame = random_tight_frame(rng, 3, 16, max_norm_sq=0.5, field="complex")
    req = PartitionRequest(
        frame=frame, active=tuple(range(16)), delta=0.51, alpha=1.0, beta=1.0
    )
    for strategy in ("exhaustive", "randomized"):
        res = spectral_partition(req, strategy=strategy, seed=3)
        for side, bounds in ((res.s1, res.bounds_s1), (res.s2, res.bounds_s2)):
            lo, up = svd_subset_bounds(frame, side)
            assert abs(bounds.lower - lo) < 1e-12
            assert abs(bounds.upper - up) < 1e-12
        assert sorted(res.s1 + res.s2) == list(range(16))


def test_exhaustive_size_limit():
    rng = np.random.default_rng(1)
    frame = random_tight_frame(rng, 2, 25, max_norm_sq=0.6)
    req = PartitionRequest(
        frame=frame, active=tuple(range(25)), delta=0.61, alpha=1.0, beta=1.0
    )
    with pytest.raises(PartitionSizeError):
        spectral_partition(req, strategy="exhaustive")


def test_randomized_needs_two_vectors():
    frame = FrameSystem(np.array([[1.0, 0.0], [0.0, 1.0]]))
    req = PartitionRequest(frame=frame, active=(0,), delta=1.5, alpha=1.6, beta=1.6)
    with pytest.raises(SearchFailureError):
        spectral_partition(req, strategy="randomized")


def test_norm_precondition_names_offender():
    frame = FrameSystem(np.array([[R2, 0.0, R2], [0.0, 1.0, 0.0]]))
    req = PartitionRequest(
        frame=frame, active=(0, 1, 2), delta=0.7, alpha=1.0, beta=1.0
    )
    with pytest.raises(PreconditionError) as err:
        spectral_partition(req, strategy="exhaustive")
    assert "vector 1" in str(err.value)


def test_strategy_and_budget_validation():
    frame = FrameSystem(np.array([[R2, R2]]))
    req = PartitionRequest(frame=frame, active=(0, 1), delta=0.6, alpha=1.0, beta=1.0)
    with pytest.raises(PreconditionError):
        spectral_partition(req, strategy="greedy")
    with pytest.raises(PreconditionError):
        spectral_partition(req, strategy="randomized", budget=0)
    # budgets are integers >= 1 and seeds integers >= 0, under the
    # integer rules of the index checks; numpy integers count
    for name, minimum, bad in [
        ("budget", 1, [0, -1, 1.5, 2.0, True, "3", None, 2**63]),
        ("seed", 0, [-1, 1.5, 0.0, True, "0", None, 2**63]),
    ]:
        message = f"{name} must be an integer >= {minimum}"
        for value in bad:
            with pytest.raises(PreconditionError, match=message):
                OracleConfig(**{name: value})
            for strategy in ("randomized", "exhaustive"):
                with pytest.raises(PreconditionError, match=message):
                    spectral_partition(req, strategy=strategy, **{name: value})
    # kept as Python ints, so that round j's seed + j cannot wrap
    config = OracleConfig(budget=np.int64(5), seed=np.uint8(255))
    assert (config.budget, config.seed + 1) == (5, 256)
    assert type(config.budget) is type(config.seed) is int
    res = spectral_partition(req, budget=np.int32(5), seed=np.int64(3))
    assert res == spectral_partition(req, budget=5, seed=3)


def _equal_weight_case(kind, n, m, field="real"):
    system = make_system(SystemDescriptor(kind, n=n, m=m), field=field)
    return build_frame_from_samples(system), condition_e_constant(system).t_squared


def _weighted_copy_case():
    system = make_system(SystemDescriptor("random_orthonormal", n=4, m=1024, seed=11))
    copies, _ = duplicate_normalize(build_frame_from_samples(system))
    return copies, min(2.0, copies.m / system.n)


@pytest.mark.parametrize(
    "case",
    [
        lambda: _equal_weight_case("trig", 5, 2048),
        _weighted_copy_case,
        lambda: _equal_weight_case("dft", 8, 8192, field="complex"),
    ],
    ids=["trig-5x2048", "weighted-copies-4x1024", "dft-complex-8x8192"],
)
def test_side_two_by_subtraction_matches_direct(case):
    # replay every halving round: side 1 is measured exactly as
    # subset_bounds measures it, side 2 (active operator minus side 1's)
    # to rounding, and the kept side's operator carries into the next round
    frame, theta = case()
    cfg = OracleConfig(seed=3)
    cert = halving_select(frame, theta, cfg)
    assert len(cert.rounds) >= 2
    active = src = np.arange(frame.m, dtype=np.int64)
    active_op = frame_operator(frame)
    for j, rnd in enumerate(cert.rounds):
        s1, b1, b2, tried, op1 = _randomized(
            frame, src, active, active_op, rnd.target_lower, rnd.target_upper,
            cfg.budget, cfg.seed + j,
        )
        s2 = np.setdiff1d(active, s1)
        assert tuple(s1.tolist()) == rnd.kept and tried == rnd.candidates_tried
        assert np.array_equal(np.union1d(s1, s2), active)
        assert s1.size + s2.size == active.size and s1.size <= s2.size
        assert b1 == subset_bounds(frame, s1) == rnd.measured
        direct = subset_bounds(frame, s2)
        tol = 1e-12 * max(1.0, direct.upper)
        assert abs(b2.lower - direct.lower) <= tol
        assert abs(b2.upper - direct.upper) <= tol
        assert np.array_equal(op1, _gram(frame.vectors[:, s1]))
        active, active_op = s1, op1


def test_side_two_near_a_target_takes_the_direct_verdict():
    # a target within rounding of side 2's bound is judged on a direct
    # measurement of side 2, so subtraction rounding cannot flip a verdict
    frame, _ = _equal_weight_case("trig", 5, 2048)
    active = src = np.arange(frame.m, dtype=np.int64)
    active_op = frame_operator(frame)
    for seed in range(50):
        perm = np.random.default_rng(seed).permutation(frame.m)
        s1 = np.sort(perm[: frame.m // 2])
        s2 = np.sort(perm[frame.m // 2:])
        d1, d2 = subset_bounds(frame, s1), subset_bounds(frame, s2)
        if d2.lower < d1.lower:
            break
    else:
        pytest.fail("no candidate whose side 2 has the smaller lower bound")
    up_t = 2.0 * max(d1.upper, d2.upper)
    verdicts = set()
    for step in (-1e-13, -1e-15, -1e-16, 0.0, 1e-16, 1e-15, 1e-13):
        lo_t = d2.lower + step + VERIFY_SLACK
        expected = _split_ok(d1, d2, lo_t, up_t)
        verdicts.add(expected)
        if expected:
            found = _randomized(frame, src, active, active_op, lo_t, up_t, 1, seed)
            assert found[2] == d2
        else:
            with pytest.raises(SearchFailureError):
                _randomized(frame, src, active, active_op, lo_t, up_t, 1, seed)
    assert verdicts == {True, False}


def test_side_one_near_a_target_takes_the_direct_verdict():
    # on copies, side 1's operator is formed from its distinct columns
    # weighted by copy counts, which matches the gathered copies only to
    # rounding; a target within rounding of side 1's bound is judged on
    # the gathered copies, so that rounding cannot flip a verdict
    system = make_system(SystemDescriptor("random_orthonormal", n=4, m=1024, seed=11))
    scaled, dup = _scaled_sources(build_frame_from_samples(system), COPY_CAP)
    frame, src, k = FrameSystem(scaled), dup._copy_to_source, dup.m_prime
    active = np.arange(k, dtype=np.int64)
    active_op = _gram(frame.vectors, dup._counts)
    for seed in range(50):
        perm = np.random.default_rng(seed).permutation(k)
        s1, s2 = np.sort(perm[: k // 2]), np.sort(perm[k // 2:])
        d1 = _gram_bounds(frame.vectors[:, src[s1]])
        d2 = _gram_bounds(frame.vectors[:, src[s2]])
        copied = np.bincount(src[s1])
        cols = np.flatnonzero(copied)
        by_counts = _gram_bounds(frame.vectors[:, cols], copied[cols])
        if d1.lower < d2.lower and by_counts.lower != d1.lower:
            break
    else:
        pytest.fail("no candidate whose side 1 decides and rounds differently")
    up_t = 2.0 * max(d1.upper, d2.upper)
    verdicts, flips = set(), 0
    ulp = np.spacing(d1.lower)
    for step in range(-40, 41):
        lo_t = d1.lower + step * ulp + VERIFY_SLACK
        expected = _split_ok(d1, d2, lo_t, up_t)
        verdicts.add(expected)
        flips += expected != _split_ok(by_counts, d2, lo_t, up_t)
        if expected:
            found = _randomized(frame, src, active, active_op, lo_t, up_t, 1, seed)
            assert found[1] == d1
        else:
            with pytest.raises(SearchFailureError):
                _randomized(frame, src, active, active_op, lo_t, up_t, 1, seed)
    assert verdicts == {True, False}
    assert flips  # the counted operator alone would have judged otherwise
