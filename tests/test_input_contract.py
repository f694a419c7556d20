"""The input contract: every public entry crossed with every kind of bad
input, in one table.

A row of ``ENTRIES`` names a public callable and the argument slot it
fills: the slot's class, the name its error message must give, an
accepted value and the slot's own out-of-range values.  A callback's
slot is filled by what the callback returns.  ``CATALOGUES``
holds, per class, the bad inputs made from a row's accepted value.
Three tests read the table:

1. every row refuses its class's catalogue and its own values with a
   ``PreconditionError`` (``StageError`` for ``discretize_continuous``)
   whose message names the slot;
2. every other form of an accepted value (a list, a tuple, an integer
   dtype, a read-only or F-order array, a numpy scalar) gives the result
   of its canonical form;
3. every public callable that takes a number, an array, an index set or
   a choice has a row; ``TAKES_NO_INPUT`` lists those that take none.

A new public entry or knob is one more row.
"""

import dataclasses
import functools
import re
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

import sampdisc
from sampdisc import (
    ContinuousSystemSpec,
    DuplicationMap,
    FrameBounds,
    FrameSystem,
    HalvingCertificate,
    HalvingSchedule,
    OracleConfig,
    PartitionRequest,
    PartitionResult,
    PreconditionError,
    SampledSystem,
    StageError,
    SystemDescriptor,
    check_cardinality_sandwich,
    complexify_via_real,
    discretize_continuous,
    discretize_equal_weight,
    discretize_weighted,
    duplicate_normalize,
    extreme_eigenvalues,
    halving_schedule,
    halving_select,
    make_system,
    monte_carlo_refine,
    partition_targets,
    recompute_constants,
    spectral_partition,
    subset_bounds,
    transfer_certificate,
    verify_certificate,
    verify_tight,
    weighted_bounds,
    weighted_select,
)

NAN, INF = float("nan"), float("inf")


def _spec(n):
    """A spec of dimension ``n`` whose evaluator returns 1, sqrt2 cos x
    and sqrt2 sin x, orthonormal on the uniform circle: only a valid
    form of 3 fits it."""
    return ContinuousSystemSpec(
        n,
        lambda rng, count: rng.uniform(0.0, 2.0 * np.pi, count),
        lambda x: np.array([1.0, np.sqrt(2.0) * np.cos(x), np.sqrt(2.0) * np.sin(x)]),
    )


@functools.cache
def _fx():
    """The objects the rows act on, built on first use."""
    dft = make_system(SystemDescriptor("dft", n=2, m=32))
    companion, mapping = complexify_via_real(dft)
    return SimpleNamespace(
        eye2=FrameSystem(np.eye(2)),
        eye3=FrameSystem(np.eye(3)),
        # tight, with squared norms 1/2, 1/4, 1/4
        line=FrameSystem(np.sqrt([[0.5, 0.25, 0.25]])),
        # orthonormal under uniform weights, frame the identity
        sqrt3=SampledSystem(np.sqrt(3.0) * np.eye(3), np.arange(3.0)),
        dft=dft,
        real_cert=discretize_equal_weight(companion),
        mapping=mapping,
        half=PartitionRequest(FrameSystem([[0.5**0.5] * 2]), (0, 1), 0.6, 1.0, 1.0),
        cert=HalvingCertificate(
            (0, 1), 1.0, 1.0, None, 1.0, 1.0, FrameBounds(1.0, 1.0), 1.0, True, ()
        ),
    )


def _verified(tol):
    fx = _fx()
    document = {
        "constants_decoded": FrameBounds(1.0, 1.0),
        "input_fingerprint": fx.sqrt3.fingerprint(),
        "point_indices": [0, 1, 2],
    }
    report = verify_certificate(fx.sqrt3, document, tol=tol)
    return report.passed, report.messages, report.recomputed


@dataclasses.dataclass(frozen=True)
class Entry:
    entry: str  # the public name
    slot: str
    kind: str  # a key of CATALOGUES
    call: Callable  # the entry with the slot filled by its one argument
    what: str  # the name the error message gives the slot
    good: object  # an accepted value
    own: tuple = ()  # the slot's own out-of-range values
    accepts: tuple = ()  # catalogue cases that mean something else here
    error: type = PreconditionError

    def __str__(self):
        return f"{self.entry}.{self.slot}"


def _refine(spec=None, n=3, delta=0.5, **given):
    return monte_carlo_refine(spec or _spec(n), delta, **given)


def _continuous(spec=None, n=3, **given):
    return discretize_continuous(spec or _spec(n), **given)


# the first draw for n = 3, which starts at 64 points
GRID = np.arange(64.0)


def _circle(x):
    """1, sqrt2 cos and sqrt2 sin at x/64 turns: orthonormal on GRID."""
    turn = np.pi * x / 32.0
    return np.array([1.0, np.sqrt(2.0) * np.cos(turn), np.sqrt(2.0) * np.sin(turn)])


@dataclasses.dataclass(frozen=True)
class Callback:
    """An own value of a callback's slot: the callback itself, not what
    it returns."""

    function: object


def _callback(value, returning):
    """``returning``, or the callback that ``value`` stands for."""
    return value.function if isinstance(value, Callback) else returning


def _draw(value):
    """A spec whose sampler returns ``value`` and whose evaluator is
    :func:`_circle`."""
    return ContinuousSystemSpec(3, _callback(value, lambda rng, count: value), _circle)


def _row(value):
    """A spec that draws GRID and whose evaluator returns ``value`` at
    point 5 and the circle elsewhere."""
    return ContinuousSystemSpec(
        3,
        lambda rng, count: GRID,
        _callback(value, lambda x: value if x == 5.0 else _circle(x)),
    )


# a draw of 63 points, a draw of one, and a sampler that is no function
_DRAW_OWN = (GRID[:-1], 0.5, Callback(None))
# rows of two entries at every point, and an evaluator that is no function
_ROW_OWN = (Callback(lambda x: _circle(x)[:2]), Callback(None))


def _system(kind="dft", n=2, m=4, seed=None, field="real"):
    return make_system(SystemDescriptor(kind, n, m, seed), field=field).fingerprint()


ENTRIES = [
    # frame_core
    Entry("FrameSystem", "vectors", "array", lambda v: FrameSystem(v).vectors,
          "frame vectors", [[1.0, 0.0], [0.0, 1.0]]),
    Entry("extreme_eigenvalues", "matrix", "array", extreme_eigenvalues, "matrix",
          [[2.0, 1.0], [1.0, 2.0]], own=(np.ones((2, 3)), np.ones((2, 2, 3)))),
    Entry("subset_bounds", "subset", "index set", lambda v: subset_bounds(_fx().eye3, v),
          "index set", [0, 2], own=([0, 3], [2, -1], [1, 1], [2, 0, 2])),
    Entry("weighted_bounds", "weights", "weights", lambda v: weighted_bounds(_fx().eye3, v),
          "weights", [2.0, 3.0, 4.0]),
    Entry("verify_tight", "tol", "real", lambda v: verify_tight(_fx().eye3, v), "tolerance",
          0.5, own=(0.0, -1.0, NAN, INF)),
    # partition_oracle
    Entry("OracleConfig", "strategy", "choice", lambda v: OracleConfig(strategy=v),
          "strategy", "randomized", own=("exhaustive",)),
    Entry("OracleConfig", "budget", "integer", lambda v: OracleConfig(budget=v), "budget",
          5, own=(0, -1)),
    Entry("OracleConfig", "seed", "integer", lambda v: OracleConfig(seed=v), "seed", 3,
          own=(-1,)),
    Entry("PartitionRequest", "active", "index set",
          lambda v: PartitionRequest(_fx().eye3, v, 0.1, 1.0, 1.0), "active index set",
          [2, 0], own=((), [0, 3], [1, -1], [1, 1, 2])),
    Entry("PartitionRequest", "delta", "real",
          lambda v: PartitionRequest(_fx().eye3, (0, 1), v, 1.0, 1.0), "delta", 0.1,
          own=(0.0, 1.0, NAN)),
    Entry("PartitionRequest", "alpha", "real",
          lambda v: PartitionRequest(_fx().eye3, (0, 1), 0.1, v, 1.0), "alpha", 1.0,
          own=(0.05, NAN)),
    Entry("PartitionRequest", "beta", "real",
          lambda v: PartitionRequest(_fx().eye3, (0, 1), 0.1, 1.0, v), "beta", 1.0,
          own=(0.5, NAN, INF)),
    Entry("PartitionResult", "s1", "index set",
          lambda v: PartitionResult(v, (1,), None, None, 0.0, 1.0, 1), "s1", [3, 0]),
    Entry("PartitionResult", "s2", "index set",
          lambda v: PartitionResult((1,), v, None, None, 0.0, 1.0, 1), "s2", [3, 0]),
    Entry("partition_targets", "alpha", "real", lambda v: partition_targets(v, 1.0, 0.1),
          "alpha", 1.0, own=(0.05, 0.1, NAN)),
    Entry("partition_targets", "beta", "real", lambda v: partition_targets(1.0, v, 0.1),
          "beta", 1.0, own=(0.5, NAN, INF)),
    Entry("partition_targets", "delta", "real", lambda v: partition_targets(1.0, 1.0, v),
          "delta", 0.1, own=(0.0, -1e-3, 1.0, NAN)),
    Entry("spectral_partition", "strategy", "choice",
          lambda v: spectral_partition(_fx().half, strategy=v, budget=50, seed=4),
          "strategy", "exhaustive", own=("greedy",)),
    Entry("spectral_partition", "budget", "integer",
          lambda v: spectral_partition(_fx().half, budget=v, seed=4), "budget", 5, own=(0,)),
    Entry("spectral_partition", "seed", "integer",
          lambda v: spectral_partition(_fx().half, budget=50, seed=v), "seed", 3, own=(-1,)),
    # halving_select
    Entry("HalvingSchedule", "delta", "real", HalvingSchedule, "delta", 0.009,
          own=(0.01, 0.0, -1e-3, 0.5, NAN)),
    Entry("halving_schedule", "delta", "real", halving_schedule, "delta", 0.009,
          own=(0.01, 0.0, -1e-3, 0.5, NAN)),
    # theta <= m/n = 1 on the identity; theta is checked before tightness
    Entry("halving_select", "theta", "real", lambda v: halving_select(_fx().eye2, v), "theta",
          1.0, own=(1.5, 0.0, -1.0, NAN)),
    Entry("check_cardinality_sandwich", "cert.J", "index set",
          lambda v: check_cardinality_sandwich(dataclasses.replace(_fx().cert, J=v), _fx().eye3),
          "certificate index set", [0, 1], own=([0, 999], [-1], [1, 1])),
    # weighted_sparsify
    Entry("DuplicationMap", "counts", "index set", lambda v: DuplicationMap(v, 0),
          "copy counts", [3, 2], own=([1, 0], [], [3, -2])),
    Entry("DuplicationMap", "anchor", "integer", lambda v: DuplicationMap([3, 2], v),
          "copy anchor", 1, own=(-1, 2, 99)),
    Entry("duplicate_normalize", "cap", "integer",
          lambda v: duplicate_normalize(_fx().line, v)[1], "cap", 4, own=(0, -1)),
    Entry("weighted_select", "cap", "integer", lambda v: weighted_select(_fx().line, cap=v),
          "cap", 4, own=(0, -1)),
    # discretize
    Entry("SampledSystem", "values", "array",
          lambda v: SampledSystem(v, [0.0, 1.0]).fingerprint(), "sampled values",
          [[1.0, 1.0], [1.0, -1.0]]),
    Entry("SampledSystem", "points", "real array",
          lambda v: SampledSystem(np.eye(2), v).fingerprint(), "points", [0.0, 1.0],
          own=([0.0, 1.0, 2.0], np.zeros((2, 2, 1)))),
    # None stands for uniform weights
    Entry("SampledSystem", "point_weights", "weights",
          lambda v: SampledSystem(np.eye(2), [0.0, 1.0], v).fingerprint(), "point weights",
          [0.25, 0.75], own=([0.5, 0.7], [1.0, 0.0]), accepts=("None",)),
    Entry("recompute_constants", "indices", "index set",
          lambda v: recompute_constants(_fx().dft, v), "point index set", [0, 1],
          own=([0, 32], [-1], [1, 1])),
    Entry("recompute_constants", "weights", "weights",
          lambda v: recompute_constants(_fx().dft, [0, 1], v), "weights", [1.0, 2.0],
          accepts=("None",)),
    Entry("transfer_certificate", "real_cert.point_indices", "index set",
          lambda v: transfer_certificate(
              dataclasses.replace(_fx().real_cert, point_indices=v), _fx().dft, _fx().mapping
          ),
          "point index set", list(range(32)), own=([0, 32], [0, 0])),
    # None selects the measured level
    Entry("discretize_equal_weight", "theta", "real",
          lambda v: discretize_equal_weight(_fx().sqrt3, theta=v), "theta", 1.0,
          own=(0.0, -1.0, NAN, 1.5), accepts=("None",)),
    Entry("discretize_weighted", "cap", "integer",
          lambda v: discretize_weighted(_fx().sqrt3, cap=v), "cap", 3, own=(0, -1)),
    Entry("monte_carlo_refine", "delta", "real", lambda v: _refine(delta=v).fingerprint(),
          "delta", 0.5, own=(0.0, 1.0, NAN)),
    Entry("monte_carlo_refine", "seed", "integer", lambda v: _refine(seed=v).fingerprint(),
          "seed", 5, own=(-1,)),
    # None starts at max(64, n), and an explicit start is at least n
    Entry("monte_carlo_refine", "m_start", "integer",
          lambda v: _refine(m_start=v).fingerprint(), "m_start", 64, own=(0, 2),
          accepts=("None",)),
    Entry("monte_carlo_refine", "m_cap", "integer", lambda v: _refine(m_cap=v).fingerprint(),
          "m_cap", 64, own=(0, 32)),
    Entry("monte_carlo_refine", "spec.n", "integer", lambda v: _refine(n=v).fingerprint(), "n",
          3, own=(0,)),
    Entry("monte_carlo_refine", "spec.sampler", "real array",
          lambda v: _refine(_draw(v)).fingerprint(), "sampler", GRID, own=_DRAW_OWN),
    Entry("monte_carlo_refine", "spec.evaluator", "row",
          lambda v: _refine(_row(v)).fingerprint(), "evaluator", _circle(5.0), own=_ROW_OWN),
    Entry("discretize_continuous", "mc_delta", "real", lambda v: _continuous(mc_delta=v),
          "mc_delta", 0.5, own=(0.0, 1.0, NAN), error=StageError),
    Entry("discretize_continuous", "seed", "integer", lambda v: _continuous(seed=v), "seed", 5,
          own=(-1,), error=StageError),
    Entry("discretize_continuous", "m_start", "integer", lambda v: _continuous(m_start=v),
          "m_start", 64, own=(2,), accepts=("None",), error=StageError),
    Entry("discretize_continuous", "m_cap", "integer", lambda v: _continuous(m_cap=v),
          "m_cap", 64, own=(32,), error=StageError),
    Entry("discretize_continuous", "spec.n", "integer", lambda v: _continuous(n=v), "n", 3,
          own=(0,), error=StageError),
    Entry("discretize_continuous", "spec.sampler", "real array",
          lambda v: _continuous(_draw(v)), "sampler", GRID, own=_DRAW_OWN, error=StageError),
    Entry("discretize_continuous", "spec.evaluator", "row", lambda v: _continuous(_row(v)),
          "evaluator", _circle(5.0), own=_ROW_OWN, error=StageError),
    # verify
    Entry("verify_certificate", "tol", "real", _verified, "tol", 1e-10,
          own=(-1.0, INF, NAN)),
    # systems_io
    Entry("make_system", "kind", "choice", lambda v: _system(kind=v), "system kind", "dft",
          own=("fourier", "file")),
    Entry("make_system", "field", "choice", lambda v: _system(field=v), "field", "real",
          own=("Complex",)),
    Entry("make_system", "n", "integer", lambda v: _system(n=v), "n", 2, own=(0, 5)),
    Entry("make_system", "m", "integer", lambda v: _system(m=v), "m", 4, own=(0, 1)),
    Entry("make_system", "n (trig)", "integer", lambda v: _system("trig", n=v, m=8), "n", 3,
          own=(4, 9)),
    Entry("make_system", "m (walsh)", "integer", lambda v: _system("walsh", m=v), "m", 4,
          own=(12,)),
    # random_orthonormal needs a seed: None is no default here
    Entry("make_system", "seed", "integer",
          lambda v: _system("random_orthonormal", n=2, m=8, seed=v), "seed", 3, own=(-2,)),
]


def _first(good, bad):
    """``good`` as nested lists with its first number replaced by ``bad``."""
    nested = np.asarray(good).tolist()
    inner = nested
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = bad
    return nested


_NUMBERS = {
    "bool array": lambda g: np.ones(np.shape(g), dtype=bool),
    "bool among numbers": lambda g: _first(g, True),
    "numpy bool among numbers": lambda g: _first(g, np.True_),
    "numeric strings": lambda g: np.asarray(g).astype(str).tolist(),
    "bytes": lambda g: np.full(np.shape(g), b"1"),
    "None": lambda g: None,
    "None among numbers": lambda g: _first(g, None),
    "ragged": lambda g: [[0.0, 1.0], [2.0]],
    "10**400": lambda g: _first(g, 10**400),
    "nan": lambda g: _first(g, NAN),
    "inf": lambda g: _first(g, INF),
}
_REAL_NUMBERS = {**_NUMBERS, "complex": lambda g: np.asarray(g) + 1j}
_SCALAR = {
    "string": str,
    "bytes": lambda g: str(g).encode(),
    "bool": lambda g: True,
    "numpy bool": lambda g: np.True_,
    "None": lambda g: None,
    "list": lambda g: [g],
    "array": lambda g: np.array([g]),
    "complex": complex,
}

CATALOGUES = {
    # sampled values, frame vectors and matrices: 2-d, real or complex
    "array": {
        **_NUMBERS,
        "1-d": np.ravel,
        "empty": lambda g: np.asarray(g)[:, :0],
    },
    "real array": _REAL_NUMBERS,
    # an evaluator's row: 1-d, real or complex
    "row": _NUMBERS,
    "weights": {
        **_REAL_NUMBERS,
        "negative": lambda g: _first(g, -1.0),
        "count": lambda g: list(g)[:-1],
    },
    "index set": {
        "floats": lambda g: [j + 0.5 for j in g],
        "integral floats": lambda g: [float(j) for j in g],
        "float array": lambda g: np.asarray(g, dtype=float),
        "bools": lambda g: [j > 0 for j in g],
        "bool among ints": lambda g: _first(g, True),
        "numpy bool among ints": lambda g: _first(g, np.True_),
        "None among ints": lambda g: _first(g, None),
        "2**70": lambda g: _first(g, 2**70),
        "strings": lambda g: [str(j) for j in g],
        "nested": lambda g: [list(g)],
        "None": lambda g: None,
        "int": lambda g: g[0],
        "numpy int": lambda g: np.int64(g[0]),
    },
    "real": _SCALAR,
    "integer": {
        **_SCALAR,
        "float": lambda g: g + 0.5,
        "integral float": float,
        "numpy float": np.float64,
        "2**63": lambda g: 2**63,
    },
    "choice": {
        "None": lambda g: None,
        "bytes": str.encode,
        "int": lambda g: 1,
        "list": lambda g: [g],
        "array of one": lambda g: np.array([g]),
        "array of two": lambda g: np.array([g, g]),
        "upper case": str.upper,
        "empty": lambda g: "",
    },
}


def _bad_inputs(row):
    for name, make in CATALOGUES[row.kind].items():
        if name not in row.accepts:
            yield name, make(row.good)
    for value in row.own:
        yield f"own value {value!r}", value


@pytest.mark.parametrize("row", ENTRIES, ids=str)
def test_bad_input_is_refused_naming_its_slot(row):
    names_slot = re.compile(rf"\b{re.escape(row.what)}\b")
    missed = {}
    for name, bad in _bad_inputs(row):
        try:
            row.call(bad)
            missed[name] = "accepted"
        except row.error as exc:
            if not names_slot.search(str(exc)):
                missed[name] = str(exc)
        except Exception as exc:  # any other error leaks
            missed[name] = repr(exc)
    assert not missed


def _read_only_copy(array):
    copy = array.copy()
    copy.setflags(write=False)
    return copy


def _integral(good):
    as_ints = np.asarray(good).astype(np.int64)
    return np.array_equal(as_ints, good)


def _forms(row):
    """The canonical form of the row's accepted value, and the other
    forms that must give its result."""
    good = row.good
    if row.kind == "choice":
        return good, [np.str_(good)]
    if row.kind == "real":
        forms = [np.float64(good), np.array(good)]
        if _integral(good):
            forms += [int(good), np.int64(good), np.uint8(good)]
        return float(good), forms
    if row.kind == "integer":
        return int(good), [np.int64(good), np.int32(good), np.uint8(good), np.array(good)]
    dtype = np.int64 if row.kind == "index set" else np.float64
    canonical = np.asarray(good, dtype=dtype)
    listed = canonical.tolist()
    forms = [
        listed,
        tuple(map(tuple, listed)) if canonical.ndim == 2 else tuple(listed),
        _read_only_copy(canonical),
        np.asfortranarray(canonical),
    ]
    if _integral(good):
        forms.append(canonical.astype(np.int32))
        if np.min(good) >= 0:
            forms.append(canonical.astype(np.uint8))
    return canonical, forms


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("row", ENTRIES, ids=str)
def test_every_form_of_an_accepted_value_gives_the_same_result(row):
    canonical, forms = _forms(row)
    want = row.call(canonical)
    for form in forms:
        assert _same(row.call(form), want), repr(form)


_CONTINUOUS = {"monte_carlo_refine": _refine, "discretize_continuous": _continuous}


@pytest.mark.parametrize("entry", _CONTINUOUS)
def test_a_non_finite_row_is_reported_at_its_point(entry):
    with pytest.raises((PreconditionError, StageError), match="sampled point index 5$"):
        _CONTINUOUS[entry](_row(_first(_circle(5.0), NAN)))


@pytest.mark.parametrize("slot", ["sampler", "evaluator"])
@pytest.mark.parametrize("entry", _CONTINUOUS)
def test_an_error_a_callback_raises_reaches_the_caller_unchanged(entry, slot):
    error = TypeError("the caller's own")

    def raising(*args):
        raise error

    with pytest.raises(TypeError) as caught:
        _CONTINUOUS[entry](dataclasses.replace(_spec(3), **{slot: raising}))
    assert caught.value is error


# public callables that take no number, array, index set or choice
TAKES_NO_INPUT = {
    # records: the entry that reads a field checks it, under its own rows
    "BasisChange", "ComplexRealMap", "ContinuousSystemSpec", "DiscretizationCertificate",
    "FrameBounds", "HalvingCertificate", "NikolskiiReport", "SystemDescriptor",
    "VerifyReport", "WeightedCertificate",
    # a system or a frame only
    "build_frame_from_samples", "complexify_via_real", "condition_e_constant",
    "frame_bounds", "frame_operator", "reorthonormalize",
    # files, whose parse errors are tested with the files
    "load_certificate", "load_system", "save_certificate", "save_system",
}


def test_every_public_entry_that_takes_input_has_a_row():
    public = {
        name
        for name in sampdisc.__all__
        if callable(obj := getattr(sampdisc, name))
        and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    rows = {row.entry for row in ENTRIES}
    assert TAKES_NO_INPUT <= public
    assert not rows & TAKES_NO_INPUT
    assert public - TAKES_NO_INPUT == rows
