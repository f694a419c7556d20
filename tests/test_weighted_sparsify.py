"""Norm-equalizing duplication and weighted selection."""

import dataclasses

import numpy as np
import pytest

from sampdisc import (
    DiscretizationError,
    DuplicationMap,
    DuplicationOverflowError,
    FrameBounds,
    FrameSystem,
    OracleConfig,
    PreconditionError,
    SystemDescriptor,
    build_frame_from_samples,
    duplicate_normalize,
    halving_select,
    make_system,
    weighted_select,
)
from sampdisc import weighted_sparsify
from sampdisc.weighted_sparsify import COPY_CAP, _scaled_sources

from helpers import loop_frame_operator, quad_form, random_tight_frame, traced_peak


def line_frame(norms_squared):
    """Tight frame in R^1 from prescribed squared norms (must sum to 1)."""
    arr = np.sqrt(np.asarray(norms_squared, dtype=np.float64))
    return FrameSystem(arr[None, :])


def test_equal_norms_no_duplication():
    vals = np.exp(2j * np.pi * np.outer(np.arange(2), np.arange(8)) / 8)
    frame = FrameSystem(vals / np.sqrt(8))
    copies, dup = duplicate_normalize(frame)
    assert dup.counts == (1,) * 8
    assert dup.copy_to_source == tuple(range(8))
    assert dup.m_prime == 8
    assert dup.anchor == 0
    assert np.array_equal(copies.vectors, frame.vectors)


def test_one_to_four_split_frozen():
    frame = line_frame([0.2, 0.8])
    copies, dup = duplicate_normalize(frame)
    assert dup.counts == (1, 4)
    assert dup.copy_to_source == (0, 1, 1, 1, 1)
    assert dup.anchor == 0
    # the array the weight fold reads is the same layout as the tuple
    assert dup._copy_to_source.tolist() == [0, 1, 1, 1, 1]
    assert dup._counts.tolist() == [1, 4]
    norms = copies.norms_squared()
    assert abs(norms[0] - 0.2) < 1e-15
    assert np.allclose(norms[1:], 0.2, atol=1e-15)


def test_fractional_ratio_floors():
    frame = line_frame([0.2, 0.5, 0.3])
    copies, dup = duplicate_normalize(frame)
    assert dup.counts == (1, 2, 1)
    assert dup.m_prime == 4
    # copy norms: 0.2, 0.25, 0.25, 0.3 -- all in [base, 2 base)
    norms = copies.norms_squared()
    assert norms.min() >= 0.2 - 1e-15
    assert norms.max() < 0.4


def test_zero_vector_rejected():
    # tight frame (operator = I) with a dead third column
    frame = FrameSystem(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(PreconditionError) as err:
        duplicate_normalize(frame)
    assert "vector 2" in str(err.value)


def test_non_tight_rejected():
    with pytest.raises(PreconditionError, match="tight"):
        duplicate_normalize(FrameSystem(np.eye(2) * 1.2))


def test_copy_cap_overflow():
    frame = line_frame([1e-8, 1.0 - 1e-8])
    with pytest.raises(DuplicationOverflowError):
        duplicate_normalize(frame)
    # a generous cap lets it through; the count is floor of the realized
    # norm ratio (squaring the sqrt entries shifts it by an ulp, so the
    # naive (1-1e-8)/1e-8 arithmetic can land one off)
    copies, dup = duplicate_normalize(frame, cap=200_000_000)
    norms = frame.norms_squared()
    assert dup.counts[1] == int(np.floor(norms[1] / norms[0]))
    assert abs(dup.counts[1] - 1e8) <= 2


def test_duplication_preserves_operator_and_trace():
    rng = np.random.default_rng(17)
    for field in ("real", "complex"):
        frame = random_tight_frame(rng, 3, 15, field=field)
        copies, dup = duplicate_normalize(frame)
        op_orig = loop_frame_operator(frame)
        op_copy = loop_frame_operator(copies)
        assert np.abs(op_copy - op_orig).max() < 1e-13
        norms = copies.norms_squared()
        assert abs(norms.sum() - 3.0) < 1e-12
        assert norms.max() < 2.0 * 3.0 / dup.m_prime
        assert norms.min() >= frame.norms_squared().min() * (1.0 - 1e-12)
        # copies of one source are contiguous, sources ascending
        assert list(dup.copy_to_source) == sorted(dup.copy_to_source)


def test_copies_match_the_gathered_construction():
    # np.repeat of the scaled sources forms the products of a per-copy
    # gather, vectors[:, src] * scale[src], bit for bit (signed zeros too)
    system = make_system(SystemDescriptor("random_orthonormal", n=4, m=1024, seed=11))
    z = complex(-0.0, -0.0)
    signed_zeros = FrameSystem(
        np.array([[complex(-0.0, 0.6), complex(0.8, -0.0), z], [z, 0.0, 1.0]])
    )
    for frame in (build_frame_from_samples(system), signed_zeros):
        copies, dup = duplicate_normalize(frame)
        counts = np.array(dup.counts)
        src = np.repeat(np.arange(frame.m), counts)
        scale = 1.0 / np.sqrt(counts.astype(np.float64))
        gathered = np.ascontiguousarray(frame.vectors[:, src] * scale[src])
        assert copies.vectors.dtype == gathered.dtype
        assert np.array_equal(
            copies.vectors.view(np.int64), gathered.view(np.int64)
        )
    # the signed-zero frame, checked last, is duplicated and keeps its -0.0
    assert counts.tolist() == [1, 1, 2]
    assert np.signbit(copies.vectors.real[0, 0])


def test_duplication_preserves_quadratic_form():
    rng = np.random.default_rng(23)
    frame = random_tight_frame(rng, 3, 12, field="complex")
    copies, _ = duplicate_normalize(frame)
    ones_orig = np.ones(frame.m)
    ones_copy = np.ones(copies.m)
    for _ in range(50):
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w /= np.linalg.norm(w)
        a = quad_form(frame, ones_orig, w)
        b = quad_form(copies, ones_copy, w)
        assert abs(a - b) < 1e-10


def test_weighted_single_vector_half():
    cert = weighted_select(line_frame([1.0]))
    assert cert.weights == (0.5,)
    assert cert.support == (0,)
    assert cert.bounds == (0.5, 0.5)
    assert cert.support_budget == 1
    assert cert.halving.fast_path


def test_weighted_fast_path_dft_frozen():
    vals = np.exp(2j * np.pi * np.outer(np.arange(2), np.arange(8)) / 8)
    frame = FrameSystem(vals / np.sqrt(8))
    cert = weighted_select(frame)
    # scale m'/2n = 2, every copy kept, counts 1
    assert cert.weights == (2.0,) * 8
    assert cert.support == tuple(range(8))
    assert abs(cert.bounds.lower - 2.0) < 1e-12
    assert abs(cert.bounds.upper - 2.0) < 1e-12


def test_weighted_iterative_line():
    # 300 equal vectors in R^1: copies = sources, delta = 1/150 < 1/100,
    # one halving round keeps 150, weights scale to 150 each
    frame = line_frame(np.full(300, 1.0 / 300.0))
    cert = weighted_select(frame, OracleConfig(seed=1))
    assert not cert.halving.fast_path
    assert cert.halving.schedule.rounds == 1
    assert cert.support_budget == 150
    assert len(cert.support) == 150
    assert abs(cert.bounds.lower - 75.0) < 1e-9  # 150 kept * 150 / 300
    nonzero = [w for w in cert.weights if w > 0]
    assert np.allclose(nonzero, 150.0)


def test_weighted_mixed_norms_iterative():
    # one heavy direction duplicated many times; support maps back to
    # far fewer sources than copies
    norms = np.concatenate([[80.0], np.full(100, 0.21)]) / 101.0
    frame = line_frame(norms / norms.sum())
    cert = weighted_select(frame, OracleConfig(seed=2))
    dup = cert.duplication
    assert dup.counts[0] == int(80.0 / 0.21)
    assert not cert.halving.fast_path
    assert len(cert.support) <= len(cert.halving.J)
    assert len(cert.support) < frame.m


def test_weighted_respects_cap():
    frame = line_frame([1e-8, 1.0 - 1e-8])
    with pytest.raises(DuplicationOverflowError):
        weighted_select(frame, cap=1000)
    # every entry that takes a cap holds it to one integer rule
    for bad in (None, "x", 1.5, True, -1, 0):
        for entry in (weighted_select, duplicate_normalize):
            with pytest.raises(PreconditionError, match="cap must be an integer >= 1"):
                entry(frame, cap=bad)


def test_weighted_reconstruction_identity():
    rng = np.random.default_rng(31)
    frame = random_tight_frame(rng, 4, 20)
    cert = weighted_select(frame, OracleConfig(seed=3))
    lam = np.asarray(cert.weights)
    assert (lam >= 0.0).all()
    assert set(np.flatnonzero(lam)) == set(cert.support)
    # the measured interval really bounds the weighted form
    for _ in range(50):
        w = rng.standard_normal(4)
        w /= np.linalg.norm(w)
        val = quad_form(frame, lam, w)
        assert cert.bounds.lower - 1e-9 <= val <= cert.bounds.upper + 1e-9


def _multiset_case(seed, field):
    system = make_system(
        SystemDescriptor("random_orthonormal", n=4, m=1024, seed=seed), field=field
    )
    return build_frame_from_samples(system)


@pytest.mark.parametrize(
    "gen_seed, field, search_seed",
    [(11, "real", 3), (11, "complex", 3), (5, "real", 8)],
    ids=["golden-weighted", "complex", "other-seed"],
)
def test_multiset_halving_equals_halving_the_copies(gen_seed, field, search_seed):
    # halving the scaled sources with their copy counts selects what
    # halving the built copies selects, and measures J bit for bit alike
    frame = _multiset_case(gen_seed, field)
    cfg = OracleConfig(seed=search_seed)
    copies, dup = duplicate_normalize(frame)
    scaled, dup2 = _scaled_sources(frame, COPY_CAP)
    assert dup2 == dup
    level = min(2.0, dup.m_prime / frame.n)
    multiset = halving_select(FrameSystem(scaled), level, cfg, copies=dup)
    direct = halving_select(copies, level, cfg)
    assert len(direct.rounds) >= 2
    assert len(multiset.J) <= dup.m_prime / 2 ** len(multiset.rounds)
    assert multiset.J == direct.J
    assert multiset.actual == direct.actual
    assert (multiset.delta, multiset.rescale) == (direct.delta, direct.rescale)
    for got, want in zip(multiset.rounds, direct.rounds, strict=True):
        assert got.kept == want.kept
        assert got.candidates_tried == want.candidates_tried
        tol = 1e-12 * max(1.0, want.measured.upper)
        assert abs(got.measured.lower - want.measured.lower) <= tol
        assert abs(got.measured.upper - want.measured.upper) <= tol


def test_multiset_norm_check_names_the_copy():
    # sources of squared norm 0.1 and 0.35 with 3 and 2 copies form a
    # tight multiset of copies 0 1 2 | 3 4; at delta = 1/5 the heavy
    # source offends and the message names its first copy
    frame = FrameSystem(np.sqrt([[0.1, 0.35]]))
    with pytest.raises(PreconditionError, match="vector 3 "):
        halving_select(frame, 1.0, copies=DuplicationMap(counts=[3, 2], anchor=0))
    with pytest.raises(PreconditionError, match="1 copy counts for 2 vectors"):
        halving_select(frame, 1.0, copies=DuplicationMap(counts=[5], anchor=0))


def test_copy_map_and_round_tuples_are_built_when_read():
    wcert = weighted_select(_multiset_case(11, "real"), OracleConfig(seed=3))
    dup = wcert.duplication
    assert "copy_to_source" not in vars(dup) and "counts" not in vars(dup)
    assert dup.m_prime == sum(dup.counts)
    assert dup.copy_to_source == tuple(np.repeat(np.arange(len(dup.counts)), dup.counts))
    for rnd in wcert.halving.rounds:
        assert "kept" not in vars(rnd)
        assert rnd.kept == tuple(rnd.kept_indices.tolist())
        assert not rnd.kept_indices.flags.writeable


def test_copy_counts_must_be_positive_integers():
    # bad counts and anchors are refused in tests/test_input_contract.py
    dup = DuplicationMap(counts=np.array([3, 2], dtype=np.int32), anchor=np.int64(1))
    assert dup == DuplicationMap(counts=(3, 2), anchor=1) != DuplicationMap([2, 3], 1)
    assert (dup.counts, dup.anchor) == ((3, 2), 1)
    assert repr(dup) == "DuplicationMap(counts=(3, 2), anchor=1)"
    with pytest.raises(AttributeError):
        dup.count
    assert type(dup.anchor) is int
    # a writable int64 array is copied, a read-only one kept as it is
    counts = np.array([3, 2], dtype=np.int64)
    assert not np.shares_memory(DuplicationMap(counts, 0)._counts, counts)
    counts.setflags(write=False)
    assert DuplicationMap(counts, 0)._counts is counts


def test_weighted_select_builds_no_copy_columns():
    # building the copies takes at least one n x m' array; selecting
    # weights on the same frame stays below what building them takes
    frame = build_frame_from_samples(
        make_system(SystemDescriptor("random_orthonormal", n=16, m=4096, seed=11))
    )
    copies_bytes = frame.n * duplicate_normalize(frame)[1].m_prime * 8
    building = traced_peak(lambda: duplicate_normalize(frame))[1]
    assert building >= copies_bytes
    assert traced_peak(lambda: weighted_select(frame, OracleConfig(seed=3)))[1] < building


def test_duplicated_copies_are_kept_as_they_were_made():
    # the repeated columns are fresh, so the frame of the copies keeps
    # them read-only instead of copying them a second time
    frame = build_frame_from_samples(
        make_system(SystemDescriptor("random_orthonormal", n=8, m=2048, seed=1))
    )
    duplicate_normalize(frame)
    (copies, dup), peak = traced_peak(lambda: duplicate_normalize(frame))
    assert dup.m_prime == 23246 and not copies.vectors.flags.writeable
    assert peak <= 1.3 * copies.vectors.nbytes


@pytest.mark.parametrize("order", ["F", "C"])
def test_weighted_select_peak_per_copy(order):
    # halving holds few arrays with one entry per copy at once: the
    # candidate permutation, its side mask, side 1's positions (which
    # its kept copies overwrite) and columns, and the copy-to-source map;
    # each round's kept side is logged without a second copy.  The frame
    # of a random_orthonormal system is F-ordered, and its halving keeps
    # side 1's Gram operands from round 0; a C-ordered copy gathers them
    # afresh
    frame = build_frame_from_samples(
        make_system(SystemDescriptor("random_orthonormal", n=8, m=8192, seed=1))
    )
    frame = FrameSystem(np.array(frame.vectors, order=order))
    assert frame.vectors.flags[f"{order}_CONTIGUOUS"]
    m_prime = _scaled_sources(frame, COPY_CAP)[1].m_prime
    peak = traced_peak(lambda: weighted_select(frame, OracleConfig(seed=3)))[1]
    assert peak < 37 * m_prime


def test_weights_are_kept_as_an_array_and_read_as_a_tuple():
    system = make_system(SystemDescriptor("random_orthonormal", n=2, m=512, seed=7))
    cert = weighted_select(build_frame_from_samples(system), OracleConfig(seed=5))
    kept = cert._weights
    assert kept.dtype == np.float64 and not kept.flags.writeable
    assert "weights" not in vars(cert)
    assert cert.weights == tuple(kept.tolist())
    assert cert.weights is cert.weights and cert._weights is kept
    # given as a tuple or a writable array, the weights are kept as a
    # read-only copy; a read-only array is kept as it is
    for given in (cert.weights, np.array(kept)):
        again = dataclasses.replace(cert, weights=given)
        assert again == cert and again._weights is not given
        assert not again._weights.flags.writeable
    assert dataclasses.replace(cert, weights=kept)._weights is kept


def test_weighted_lower_bound_below_25_is_refused(monkeypatch):
    # halving guarantees 25 on the iterative path, so the weighted
    # measurement is replaced to make the check fire
    fake = FrameBounds(1.0, 30.0)
    monkeypatch.setattr(weighted_sparsify, "_gram_bounds", lambda *args: fake)
    system = make_system(SystemDescriptor("random_orthonormal", n=2, m=512, seed=7))
    with pytest.raises(DiscretizationError, match="below the guaranteed 25"):
        weighted_select(build_frame_from_samples(system), OracleConfig(seed=5))
