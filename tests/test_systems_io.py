"""Generators, file round trips, and certificate verification."""

import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sampdisc import (
    DiscretizationCertificate,
    DiscretizationError,
    FrameBounds,
    OracleConfig,
    ParseError,
    PreconditionError,
    SampledSystem,
    SystemDescriptor,
    discretize_equal_weight,
    discretize_weighted,
    load_certificate,
    load_system,
    make_system,
    recompute_constants,
    save_certificate,
    save_system,
    verify_certificate,
)
from sampdisc import _reprs, systems_io
from sampdisc.cli import main
from sampdisc.discretize import _legacy_fingerprint

from helpers import traced_peak


# ------------------------------------------------------------------ generators


def test_generators_orthonormal_and_deterministic():
    descs = (
        SystemDescriptor("trig", n=5, m=32),
        SystemDescriptor("dft", n=4, m=32),
        SystemDescriptor("walsh", n=8, m=32),
        SystemDescriptor("random_orthonormal", n=3, m=32, seed=7),
    )
    for desc in descs:
        system = make_system(desc)
        assert system.orthonormality_residual() < 1e-12
        assert system.fingerprint() == make_system(desc).fingerprint()
    a = make_system(SystemDescriptor("random_orthonormal", n=3, m=32, seed=7))
    b = make_system(SystemDescriptor("random_orthonormal", n=3, m=32, seed=8))
    assert a.fingerprint() != b.fingerprint()
    c = make_system(
        SystemDescriptor("random_orthonormal", n=3, m=32, seed=7), field="complex"
    )
    assert c.field == "complex"
    assert c.orthonormality_residual() < 1e-12


# ----------------------------------------------------------------- round trips


def test_roundtrip_real(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=10))
    path = str(tmp_path / "trig.csv")
    save_system(system, path)
    back = load_system(path)
    assert np.array_equal(back.values, system.values)
    assert np.array_equal(back.points, system.points)
    assert np.array_equal(back.point_weights, system.point_weights)
    assert back.fingerprint() == system.fingerprint()
    # one-coordinate points may also be written as plain numbers
    side = tmp_path / "trig.csv.json"
    meta = json.loads(side.read_text())
    meta["points"] = [p[0] for p in meta["points"]]
    side.write_text(json.dumps(meta))
    scalar = load_system(path)
    assert np.array_equal(scalar.points, system.points)
    assert scalar.fingerprint() == system.fingerprint()


def test_roundtrip_complex(tmp_path):
    system = make_system(
        SystemDescriptor("random_orthonormal", n=2, m=9, seed=3), field="complex"
    )
    path = str(tmp_path / "cx.csv")
    save_system(system, path)
    back = load_system(path)
    assert back.field == "complex"
    assert np.array_equal(back.values, system.values)
    assert back.fingerprint() == system.fingerprint()


def test_roundtrip_planar_points_and_weights(tmp_path):
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 1.5, 6)
    w /= w.sum()
    system = SampledSystem(
        rng.standard_normal((2, 6)), rng.standard_normal((6, 2)), point_weights=w
    )
    path = str(tmp_path / "planar.csv")
    save_system(system, path)
    back = load_system(path)
    assert back.points.shape == (6, 2)
    assert np.array_equal(back.points, system.points)
    assert np.array_equal(back.point_weights, system.point_weights)
    assert back.fingerprint() == system.fingerprint()


def test_save_bytes_deterministic(tmp_path):
    system = make_system(SystemDescriptor("dft", n=2, m=7))
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    save_system(system, p1)
    save_system(system, p2)
    with open(p1, "rb") as fh:
        one = fh.read()
    with open(p2, "rb") as fh:
        two = fh.read()
    assert one == two
    with open(p1 + ".json", "rb") as fh:
        one = fh.read()
    with open(p2 + ".json", "rb") as fh:
        two = fh.read()
    assert one == two


# ---------------------------------------------------------------- parse errors


def test_load_missing_sidecar(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=8))
    path = str(tmp_path / "sys.csv")
    save_system(system, path)
    (tmp_path / "sys.csv.json").unlink()
    with pytest.raises(ParseError, match="missing metadata sidecar"):
        load_system(path)


def test_load_invalid_sidecar_json(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=8))
    path = str(tmp_path / "sys.csv")
    save_system(system, path)
    side = tmp_path / "sys.csv.json"
    for text, message in (
        (b"{not json", "invalid JSON"),
        (b'{"field": "r\xe9al"}', "invalid JSON"),  # not UTF-8
        (b"[1, 2]", "not a JSON object"),
    ):
        side.write_bytes(text)
        with pytest.raises(ParseError, match=message):
            load_system(path)


def test_load_missing_metadata_key(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=8))
    path = str(tmp_path / "sys.csv")
    save_system(system, path)
    side = tmp_path / "sys.csv.json"
    meta = json.loads(side.read_text())
    del meta["field"]
    side.write_text(json.dumps(meta))
    with pytest.raises(ParseError, match="lacks 'field'"):
        load_system(path)


def test_load_wrong_column_count(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=8))
    path = str(tmp_path / "sys.csv")
    save_system(system, path)
    lines = (tmp_path / "sys.csv").read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1])  # drop last cell of row 1
    (tmp_path / "sys.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="expected 8 columns, found 7") as err:
        load_system(path)
    assert err.value.row == 1
    assert "(row 1)" in str(err.value)


def test_load_wrong_row_count(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=8))
    path = str(tmp_path / "sys.csv")
    save_system(system, path)
    lines = (tmp_path / "sys.csv").read_text().splitlines()
    (tmp_path / "sys.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError, match="expected 3 rows, found 2"):
        load_system(path)
    # a declared n below one skips the binary copy; the CSV still disagrees
    save_system(system, path)
    side = tmp_path / "sys.csv.json"
    meta = json.loads(side.read_text())
    meta["n"] = 0
    side.write_text(json.dumps(meta))
    with pytest.raises(ParseError, match="expected 0 rows, found 3"):
        load_system(path)


def test_load_bad_number(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=8))
    path = str(tmp_path / "sys.csv")
    save_system(system, path)
    text = (tmp_path / "sys.csv").read_text()
    (tmp_path / "sys.csv").write_text(text.replace("1.0", "abc", 1))
    with pytest.raises(ParseError, match="bad number 'abc'") as info:
        load_system(path)
    assert info.value.row == 0
    # a bad cell in a later row is reported with that row
    lines = text.splitlines(keepends=True)
    lines[2] = lines[2].replace("-1.0", "1.0.0", 1)
    (tmp_path / "sys.csv").write_text("".join(lines))
    with pytest.raises(ParseError, match=r"bad number '1\.0\.0' \(row 2\)"):
        load_system(path)

    # sidecar points and weights name the bad value without a row
    (tmp_path / "sys.csv").write_text(text)
    meta = json.loads((tmp_path / "sys.csv.json").read_text())
    for key, bad in (("points", [["0.0"], "x1"]), ("point_weights", ["0.125", "w"])):
        doc = dict(meta, **{key: bad + meta[key][2:]})
        (tmp_path / "sys.csv.json").write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"bad number '{bad[1]}'") as info:
            load_system(path)
        assert info.value.row is None and info.value.path == path + ".json"


def test_load_malformed_csv_and_points(tmp_path):
    system = SampledSystem(
        np.array([[1.0, -0.5, 2.0]]),
        np.array([[0.0, 1.0], [1.5, 2.25], [3.0, 4.0]]),
        point_weights=np.array([0.25, 0.5, 0.25]),
    )
    path = tmp_path / "sys.csv"
    save_system(system, str(path))
    csv_bytes = path.read_bytes()
    for text, message in (
        (b"1.0,-0.5,2.\xff0\r\n", "not UTF-8 text"),
        (b'"' + b"1" * 140_000, "invalid CSV"),  # an unclosed quote
    ):
        path.write_bytes(text)
        with pytest.raises(ParseError, match=message) as info:
            load_system(str(path))
        assert info.value.path == str(path)
    path.write_bytes(csv_bytes)

    side = Path(f"{path}.json")
    meta = json.loads(side.read_text())
    # a 2-character string is not a planar point, nor is a ragged list
    for points, message in (
        (["12", ["1.5", "2.25"], ["3.0", "4.0"]], "same number of coordinates"),
        ([["0.0"], ["1.5", "2.25"], ["3.0", "4.0"]], "same number of coordinates"),
        ([], "same number of coordinates"),
        ("0.0", "points must be a list"),
        ([["0.0", None], ["1.5", "2.25"], ["3.0", "4.0"]], "bad number None"),
    ):
        side.write_text(json.dumps(dict(meta, points=points)))
        with pytest.raises(ParseError, match=message):
            load_system(str(path))
    for n, message in (("x", "n and m must be integers"), (3.0, "expected 3 rows")):
        side.write_text(json.dumps(dict(meta, n=n)))
        with pytest.raises(ParseError, match=message):
            load_system(str(path))
    # n and m are integers or integral floats, never rounded or counted
    for key, value in (
        ("n", 2.5), ("n", True), ("n", "3"), ("m", 8.5), ("m", False),
        ("n", float("nan")), ("m", float("inf")), ("n", None),
    ):
        side.write_text(json.dumps(dict(meta, **{key: value})))
        with pytest.raises(ParseError, match="n and m must be integers") as info:
            load_system(str(path))
        assert info.value.path == str(side)
    side.write_text(json.dumps(dict(meta, m=3.0)))
    assert load_system(str(path)).fingerprint() == system.fingerprint()
    for field in ("Complex", "", None):
        side.write_text(json.dumps(dict(meta, field=field)))
        with pytest.raises(ParseError, match=f"field must be 'real' or 'complex', got {field!r}"):
            load_system(str(path))


def test_save_csv_golden_bytes(tmp_path):
    # Fortran-ordered complex values, as random_orthonormal produces them
    values = np.asfortranarray(
        [
            [1.0 + 0.5j, complex(-0.0, 2.0), 3.25 - 1e-300j],
            [0.1 + 0.0j, -1.5 - 0.25j, 1e22 + 1.0j],
        ]
    )
    system = SampledSystem(values, np.arange(3.0))
    assert not system.values.flags.c_contiguous
    path = tmp_path / "cx.csv"
    save_system(system, str(path))
    assert path.read_bytes() == (
        b"1.0,0.5,-0.0,2.0,3.25,-1e-300\r\n"
        b"0.1,0.0,-1.5,-0.25,1e+22,1.0\r\n"
    )
    back = load_system(str(path))
    assert np.array_equal(back.values, system.values)
    assert np.signbit(back.values[0, 1].real)


def test_save_sidecar_golden_bytes(tmp_path):
    # the layout json.dump(meta, sort_keys=True, indent=2) gives, plus "\n"
    dft = tmp_path / "dft.csv"
    save_system(make_system(SystemDescriptor("dft", n=2, m=3)), str(dft))
    assert Path(f"{dft}.json").read_bytes() == (
        b'{\n  "field": "complex",\n'
        b'  "fingerprint": "sha256v2:'
        b'1cc322fe3c6a508cbcbf0d50ce81644b4e27ed7df0857bdc5196c84265223672",\n'
        b'  "m": 3,\n  "n": 2,\n'
        b'  "point_weights": [\n    "0.3333333333333333",\n'
        b'    "0.3333333333333333",\n    "0.3333333333333333"\n  ],\n'
        b'  "points": [\n    [\n      "0.0"\n    ],\n'
        b'    [\n      "0.3333333333333333"\n    ],\n'
        b'    [\n      "0.6666666666666666"\n    ]\n  ],\n'
        b'  "schema_version": "1"\n}\n'
    )
    planar = tmp_path / "planar.csv"
    system = SampledSystem(
        np.array([[1.0, -0.5, 2.0]]),
        np.array([[0.0, -0.0], [1.5, 2.25], [-1e-300, 1e22]]),
        point_weights=np.array([0.25, 0.5, 0.25]),
    )
    save_system(system, str(planar))
    assert Path(f"{planar}.json").read_bytes() == (
        b'{\n  "field": "real",\n'
        b'  "fingerprint": "sha256v2:'
        b'471ef73c2002c662d249b11312e97132b9566fc748b6d7b0b988d4391fc3c6b3",\n'
        b'  "m": 3,\n  "n": 1,\n'
        b'  "point_weights": [\n    "0.25",\n    "0.5",\n    "0.25"\n  ],\n'
        b'  "points": [\n    [\n      "0.0",\n      "-0.0"\n    ],\n'
        b'    [\n      "1.5",\n      "2.25"\n    ],\n'
        b'    [\n      "-1e-300",\n      "1e+22"\n    ]\n  ],\n'
        b'  "schema_version": "1"\n}\n'
    )


def _reference_files(system):
    """CSV and sidecar bytes of a writer that formats every cell on its
    own: one ``repr`` per cell, ``json.dumps`` for the sidecar."""
    flat = np.ascontiguousarray(system.values).view(np.float64)
    csv = b"".join((",".join(map(repr, row.tolist())) + "\r\n").encode() for row in flat)
    points = system.points if system.points.ndim == 2 else system.points[:, None]
    meta = {
        "field": system.field,
        "fingerprint": system.fingerprint(),
        "m": system.m,
        "n": system.n,
        "point_weights": list(map(repr, system.point_weights.tolist())),
        "points": [list(map(repr, p)) for p in points.tolist()],
        "schema_version": "1",
    }
    return csv, (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode()


def _assert_saved_as_reference(system, path):
    save_system(system, str(path))
    csv, side = _reference_files(system)
    assert path.read_bytes() == csv
    assert Path(f"{path}.json").read_bytes() == side


@pytest.mark.parametrize("field", ["real", "complex"])
def test_save_repeated_values_as_a_per_cell_writer(tmp_path, field):
    # most cells of every array repeat, with 0.0 beside -0.0
    cycle = np.array([0.0, -0.0, 1e-05, 1e16, 5e-324, -1e-300, 1.0, 0.5])
    values = np.tile(cycle, (3, 2))
    if field == "complex":
        # set the parts directly: adding 0j would turn -0.0 into 0.0
        values = values.astype(complex)
        values.imag = np.roll(values.real, 1, axis=1)
    points = np.column_stack([np.tile([0.0, -0.0], 8), np.tile(cycle[2:6], 4)])
    weights = np.array([1 / 8] * 4 + [1 / 24] * 12)
    system = SampledSystem(values, points, point_weights=weights)
    for array in (system.values, system.points, system.point_weights):
        bits = np.ascontiguousarray(array).view(np.int64)
        assert 2 * np.unique(bits).size <= bits.size
    path = tmp_path / "repeated.csv"
    _assert_saved_as_reference(system, path)
    assert b"-0.0" in path.read_bytes() and b"-0.0" in Path(f"{path}.json").read_bytes()
    back = load_system(str(path))
    assert back.values.tobytes() == system.values.tobytes()
    assert back.points.tobytes() == system.points.tobytes()
    # points with no coordinates are written as empty lists
    bare = SampledSystem(values, np.empty((16, 0)), point_weights=weights)
    _assert_saved_as_reference(bare, path)
    back = load_system(str(path))
    assert back.points.shape == (16, 0)
    assert back.values.tobytes() == bare.values.tobytes()


@pytest.mark.parametrize("kind", systems_io.SYSTEM_KINDS)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_save_builtin_systems_as_a_per_cell_writer(tmp_path, kind, field):
    # walsh and dft mostly repeat, random_orthonormal is all distinct
    system = make_system(SystemDescriptor(kind, n=5, m=64, seed=3), field=field)
    _assert_saved_as_reference(system, tmp_path / f"{kind}.csv")
    if kind == "random_orthonormal":
        # more distinct values than one pass of the formatting kernel takes
        system = make_system(SystemDescriptor(kind, n=3, m=2048, seed=3), field=field)
        assert _distinct(system.values).size > _reprs._CHUNK
        _assert_saved_as_reference(system, tmp_path / f"{kind}-large.csv")


def test_save_multi_coordinate_points_as_a_per_cell_writer(tmp_path):
    # three coordinates per point, over several of _repr_rows' gathers of
    # about 4096 cells; most cells repeat, with -0.0 beside 0.0 (weights
    # must be positive, so only their values repeat)
    m = 5120
    rng = np.random.default_rng(11)
    cycle = np.array([0.0, -0.0, 0.25, -1e-300, 1e22, 1 / 3])
    points = rng.choice(cycle, size=(m, 3))
    points[::7, 2] = rng.standard_normal(len(points[::7]))
    values = rng.choice(cycle, size=(2, m))
    weights = np.tile([0.5, 1.5], m // 2) / m
    system = SampledSystem(values, points, point_weights=weights)
    assert points.size > 4096 and np.signbit(points[points == 0]).any()
    path = tmp_path / "planar.csv"
    _assert_saved_as_reference(system, path)
    assert b"-0.0" in Path(f"{path}.json").read_bytes()
    back = load_system(str(path))
    assert back.points.tobytes() == system.points.tobytes()
    assert back.point_weights.tobytes() == system.point_weights.tobytes()


def test_save_peak_memory_stays_a_few_times_the_values(tmp_path):
    # the cli_files input: the argsort ranking and the reused row buffers
    # peak at 3.55 x its 0.5 MB of values; a bytes object per cell and
    # per row took 4.1 x, a np.unique(..., return_inverse=True) ranking 5.5 x
    system = make_system(SystemDescriptor("dft", n=16, m=2048), field="complex")
    path = str(tmp_path / "dft.csv")
    save_system(system, path)
    peak = traced_peak(lambda: save_system(system, path))[1]
    assert peak <= 3.6 * system.values.nbytes


def test_save_and_load_keep_no_workspace(tmp_path):
    # every buffer a call makes is freed when it returns; numpy's own
    # caches of small objects keep a few hundred bytes
    system = make_system(SystemDescriptor("dft", n=16, m=2048), field="complex")
    path = str(tmp_path / "dft.csv")
    save_system(system, path)
    for call in (lambda: save_system(system, path), lambda: load_system(path)):
        gc.collect()  # json's indenting encoder leaves reference cycles
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - before < 4096
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "name, desc, field",
    [
        ("_dft_system", SystemDescriptor("dft", n=3, m=8), "real"),
        ("_walsh_system", SystemDescriptor("walsh", n=3, m=8), "real"),
        ("_trig_system", SystemDescriptor("trig", n=3, m=8), "real"),
        (
            "_random_orthonormal_system",
            SystemDescriptor("random_orthonormal", n=3, m=8, seed=2),
            "complex",
        ),
    ],
)
def test_built_in_systems_keep_the_arrays_their_generator_made(
    monkeypatch, name, desc, field
):
    generator, made = getattr(systems_io, name), []

    def spy(*args):
        made.append(generator(*args))
        return made[-1]

    monkeypatch.setattr(systems_io, name, spy)
    system = make_system(desc, field)
    values, points = made[0]
    assert system.values is values and system.points is points
    assert not values.flags.writeable and not points.flags.writeable


@pytest.mark.parametrize(
    "desc, bound",
    [
        (SystemDescriptor("dft", n=16, m=2048), 2.1),
        (SystemDescriptor("walsh", n=16, m=2048), 2.3),
        (SystemDescriptor("trig", n=9, m=8192), 2.2),
        (SystemDescriptor("random_orthonormal", n=8, m=8192, seed=1), 3.2),
    ],
    ids=["dft", "walsh", "trig", "random_orthonormal"],
)
def test_make_system_peak_memory_in_values(desc, bound):
    # the generator's arrays are kept, never copied once more; a copy of
    # the values would add 1 x their bytes
    make_system(desc)
    system, peak = traced_peak(lambda: make_system(desc))
    assert peak <= bound * system.values.nbytes


# -------------------------------------------------------- the formatting kernel


def _distinct(array):
    """The distinct float64 bit patterns of ``array``'s cells."""
    cells = np.ascontiguousarray(array).view(np.float64).ravel()
    return np.unique(cells.view(np.int64)).view(np.float64)


def _assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    assert _reprs.repr_table(values).tolist() == [
        repr(v).encode() for v in values.tolist()
    ]


def test_repr_table_edge_values():
    tiny = np.finfo(np.float64).tiny
    edges = [
        0.0, 5e-324, tiny, np.nextafter(tiny, 0), 1e-06, np.nextafter(1e-06, 0),
        np.nextafter(1e-06, 1), 1e-05, 9.999999999999999e-05, 1e-04,
        9999999999999998.0, 1e16, 1e22, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 123.0, 0.5,
        1.7976931348623157e308, 2.5e-05, 1.5e-06, 0.001234, 4.35, 0.07,
    ]
    powers = [2.0**k for k in range(-40, 60)] + [10.0**k for k in range(-30, 31)]
    for value in edges + powers:
        # with both signs, and the neighbours of each value
        up = np.nextafter(value, np.finfo(np.float64).max)
        _assert_reprs([value, -value, np.nextafter(value, 0), up])
    _assert_reprs([])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
def test_repr_table_matches_repr(values):
    _assert_reprs(values)


def test_repr_table_random_bit_patterns():
    rng = np.random.default_rng(20)
    # any finite double, then doubles whose exponents span the kernel's
    # range 1e-6 <= |x| < 1e16 and a little beyond, across several chunks
    bits = rng.integers(-(2**63), 2**63, 60_000, dtype=np.int64)
    anywhere = bits.view(np.float64)
    exponents = rng.integers(1002, 1077, 60_000, dtype=np.int64) << 52
    inside = ((bits & ~(2047 << 52)) | exponents).view(np.float64)
    _assert_reprs(anywhere[np.isfinite(anywhere)])
    _assert_reprs(inside)


@pytest.mark.parametrize("kind", systems_io.SYSTEM_KINDS)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_repr_table_of_builtin_systems(kind, field):
    system = make_system(SystemDescriptor(kind, n=9, m=1024, seed=5), field=field)
    _assert_reprs(_distinct(system.values))
    _assert_reprs(_distinct(system.points))
    _assert_reprs(_distinct(system.point_weights))


def test_import_leaves_the_formatting_kernel_unloaded():
    # compiling the kernel and building its tables is left to the first
    # save, so that commands that write no system never pay for it
    code = (
        "import sys, sampdisc\n"
        "print('sampdisc._reprs' in sys.modules)\n"
    )
    src = str(Path(systems_io.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "False\n"


def test_missing_files_are_parse_errors(tmp_path, capsys):
    system = make_system(SystemDescriptor("trig", n=3, m=8))
    path = str(tmp_path / "sys.csv")
    save_system(system, path)
    cert = str(tmp_path / "cert.json")
    save_certificate(discretize_equal_weight(system), cert)
    os.rename(path, path + ".moved")
    with pytest.raises(ParseError, match="cannot read values") as info:
        load_system(path)
    assert info.value.path == path
    assert main(["verify", "--system", path, "--certificate", cert]) == 1
    assert "cannot read values" in capsys.readouterr().err
    os.rename(path + ".moved", path)
    missing = str(tmp_path / "none.json")
    with pytest.raises(ParseError, match="cannot read certificate") as info:
        load_certificate(missing)
    assert info.value.path == missing
    assert main(["verify", "--system", path, "--certificate", missing]) == 1


def test_unreadable_paths_are_errors_not_tracebacks(tmp_path, capsys):
    system = str(tmp_path / "sys.csv")
    cert = str(tmp_path / "cert.json")
    nodir = tmp_path / "nodir"
    assert main(["gen", "--kind", "trig", "--n", "3", "--m", "64", "--out", system]) == 0
    assert main(["select", "--system", system, "--seed", "0", "--out", cert]) == 0
    capsys.readouterr()
    for argv in (
        ["gen", "--kind", "trig", "--n", "3", "--m", "64", "--out", str(nodir / "s.csv")],
        ["select", "--system", system, "--seed", "0", "--out", str(nodir / "c.json")],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err
        assert "Traceback" not in err
    assert not nodir.exists()

    # a sidecar that is a directory
    shutil.copy(system, tmp_path / "dir.csv")
    (tmp_path / "dir.csv.json").mkdir()
    with pytest.raises(ParseError, match="cannot read metadata: "):
        load_system(str(tmp_path / "dir.csv"))
    code = main(["verify", "--system", str(tmp_path / "dir.csv"), "--certificate", cert])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: " in err and "cannot read metadata" in err


def test_verify_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tmp_path, capsys):
    # stored constants far from the true (1, 1) of this selection
    system = make_system(SystemDescriptor("trig", n=3, m=64))
    path = str(tmp_path / "sys.csv")
    cert = str(tmp_path / "cert.json")
    save_system(system, path)
    assert main(["select", "--system", path, "--seed", "0", "--out", cert]) == 0
    doc = json.loads(Path(cert).read_text())
    doc["constants"] = {"lower": "0.5", "upper": "7.0"}
    Path(cert).write_text(json.dumps(doc))
    capsys.readouterr()
    for tol in ("nan", "inf", "-1"):
        with pytest.raises(PreconditionError, match="tol must be finite and nonnegative"):
            verify_certificate(system, load_certificate(cert), tol=float(tol))
        code = main(["verify", "--system", path, "--certificate", cert, "--tol", tol])
        out, err = capsys.readouterr()
        assert code == 1, out
        assert "verification passed" not in out
        assert "tol must be finite and nonnegative" in err
    assert main(["verify", "--system", path, "--certificate", cert, "--tol", "0"]) == 2


def test_load_fingerprint_tamper(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=8))
    path = str(tmp_path / "sys.csv")
    save_system(system, path)
    text = (tmp_path / "sys.csv").read_text()
    (tmp_path / "sys.csv").write_text(text.replace("1.0", "1.5", 1))
    with pytest.raises(ParseError, match="fingerprint mismatch"):
        load_system(path)


# ------------------------------------------------------------- binary copy


def _edge_system(field):
    # signed zeros, subnormals and large exponents, as Fortran-ordered
    # complex values or their real parts
    values = np.asfortranarray(
        [
            [complex(-0.0, 1e-300), 5e-324 - 0.0j, 1e22 + 0.5j, 0.1 - 5e-324j],
            [1.0 + 0.0j, complex(-1e-300, -0.0), -2.5 + 1e22j, 3.0 + 0.25j],
        ]
    )
    if field == "real":
        values = np.asfortranarray(values.real)
    points = np.array([-0.0, 1e-300, 5e-324, 1e22])
    weights = np.array([0.125, 0.375, 0.25, 0.25])
    return SampledSystem(values, points, weights)


def _bits(a):
    return np.ascontiguousarray(a).view(np.float64).view(np.int64)


def _no_parse(*args):
    raise AssertionError("the CSV text was parsed")


@pytest.mark.parametrize("field", ["real", "complex"])
def test_cache_values_bit_identical_to_parse(tmp_path, monkeypatch, field):
    system = _edge_system(field)
    path = str(tmp_path / "edge.csv")
    save_system(system, path)
    cache = Path(path + ".f64").read_bytes()
    csv_bytes = Path(path).read_bytes()
    assert cache[:32] == hashlib.sha256(csv_bytes).digest()
    assert len(cache) == 32 + 8 * system.values.size * (2 if field == "complex" else 1)

    parsed = load_system(path)
    with monkeypatch.context() as patch:
        patch.setattr(systems_io, "_parsed_values", _no_parse)
        cached = load_system(path)
    Path(path + ".f64").unlink()
    reparsed = load_system(path)
    for back in (parsed, cached, reparsed):
        assert back.field == field
        assert np.array_equal(_bits(back.values), _bits(system.values))
        assert np.array_equal(_bits(back.points), _bits(system.points))
        assert np.array_equal(_bits(back.point_weights), _bits(system.point_weights))
        assert back.fingerprint() == system.fingerprint()


def test_load_peak_memory_stays_near_the_values(tmp_path, monkeypatch):
    # the .f64 bytes hold the 8 MB of values and the sidecar's points and
    # weights take about 1 x more: 2.11 x in all; reading the CSV text
    # whole to hash it took 4.44 x
    system = make_system(SystemDescriptor("dft", n=16, m=32768), field="complex")
    path = str(tmp_path / "dft.csv")
    save_system(system, path)
    monkeypatch.setattr(systems_io, "_parsed_values", _no_parse)
    load_system(path)
    back, peak = traced_peak(lambda: load_system(path))
    assert peak <= 2.5 * system.values.nbytes
    assert back.fingerprint() == system.fingerprint()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_loaded_values_are_a_read_only_view_of_the_binary_copy(tmp_path, field):
    path = str(tmp_path / "edge.csv")
    save_system(_edge_system(field), path)
    values = load_system(path).values
    assert not values.flags.writeable
    # kept without a copy: the array views the bytes read from the file
    root = values
    while isinstance(root, np.ndarray):
        root = root.base
    assert isinstance(root, bytes)
    Path(path + ".f64").unlink()
    assert not load_system(path).values.flags.writeable


def test_cache_ignored_after_csv_edit(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=8))
    path = tmp_path / "sys.csv"
    save_system(system, str(path))
    text = path.read_bytes()
    # same length, so only the digest can tell
    path.write_bytes(text.replace(b"1.0", b"1.5", 1))
    with pytest.raises(ParseError, match="fingerprint mismatch"):
        load_system(str(path))
    path.write_bytes(b"".join(text.splitlines(keepends=True)[:-1]))
    with pytest.raises(ParseError, match="expected 3 rows, found 2"):
        load_system(str(path))


def test_bad_cache_falls_back_to_the_csv(tmp_path):
    system = make_system(SystemDescriptor("dft", n=2, m=8), field="complex")
    path = str(tmp_path / "sys.csv")
    save_system(system, path)
    good = Path(path + ".f64").read_bytes()
    other = str(tmp_path / "other.csv")
    foreign = make_system(
        SystemDescriptor("random_orthonormal", n=2, m=8, seed=1), field="complex"
    )
    save_system(foreign, other)
    rng = np.random.default_rng(0)
    for cache in (
        good[:-1],
        good + b"\0",
        b"",
        Path(other + ".f64").read_bytes(),  # same size, other CSV's digest
        rng.bytes(len(good)),
    ):
        Path(path + ".f64").write_bytes(cache)
        back = load_system(path)
        assert np.array_equal(_bits(back.values), _bits(system.values))


def test_cache_with_flipped_value_bits_is_a_mismatch(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=8))
    path = tmp_path / "sys.csv"
    save_system(system, str(path))
    cache = bytearray(Path(f"{path}.f64").read_bytes())
    cache[-1] ^= 0x01
    Path(f"{path}.f64").write_bytes(bytes(cache))
    with pytest.raises(ParseError, match="fingerprint mismatch"):
        load_system(str(path))
    # without a fingerprint nothing can check the copy, so the CSV is read
    side = Path(f"{path}.json")
    meta = json.loads(side.read_text())
    del meta["fingerprint"]
    side.write_text(json.dumps(meta))
    assert np.array_equal(load_system(str(path)).values, system.values)


def _snapshot(directory):
    return {
        entry.name: (entry.stat().st_mtime_ns, Path(entry.path).read_bytes())
        for entry in os.scandir(directory)
    }


def test_load_writes_nothing(tmp_path):
    system = make_system(SystemDescriptor("walsh", n=4, m=16))
    folder = tmp_path / "ro"
    folder.mkdir()
    path = str(folder / "sys.csv")
    save_system(system, path)
    for cached in (True, False):
        if not cached:
            os.chmod(folder, 0o755)
            Path(path + ".f64").unlink()
        before = _snapshot(folder)
        for name in before:
            os.chmod(folder / name, 0o444)
        os.chmod(folder, 0o555)
        try:
            back = load_system(path)
        finally:
            os.chmod(folder, 0o755)
        assert back.fingerprint() == system.fingerprint()
        assert _snapshot(folder) == before


# ------------------------------------------------------------------- fuzzing


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """Bytes of a tiny complex system, its sidecar and binary copy, and a
    certificate."""
    folder = tmp_path_factory.mktemp("fuzz")
    system = make_system(SystemDescriptor("dft", n=2, m=8), field="complex")
    path = str(folder / "sys.csv")
    save_system(system, path)
    cert = str(folder / "cert.json")
    save_certificate(discretize_weighted(system, OracleConfig(seed=1)), cert)
    files = {
        "csv": path,
        "json": path + ".json",
        "f64": path + ".f64",
        "cert": cert,
    }
    return system, {key: Path(name).read_bytes() for key, name in files.items()}


MUTATION = st.tuples(
    st.sampled_from(("flip", "truncate", "insert")),
    st.integers(0, 2**20),
    st.integers(0, 255),
)


def _mutate(data, kind, position, byte):
    if kind == "flip" and data:
        at = position % len(data)
        return data[:at] + bytes([data[at] ^ (1 << byte % 8)]) + data[at + 1 :]
    at = position % (len(data) + 1)
    if kind == "truncate":
        return data[:at]
    return data[:at] + bytes([byte]) + data[at:]


@settings(max_examples=100, deadline=None)
@given(
    target=st.sampled_from(("csv", "json", "f64", "cert")),
    mutations=st.lists(MUTATION, min_size=1, max_size=3),
)
def test_loaders_raise_only_typed_errors(saved_files, target, mutations):
    # any byte damage ends in ParseError or PreconditionError; a load that
    # succeeds on intact metadata returns exactly the saved system
    system, originals = saved_files
    files = dict(originals)
    for mutation in mutations:
        files[target] = _mutate(files[target], *mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sys.csv")
        names = {
            "csv": path,
            "json": path + ".json",
            "f64": path + ".f64",
            "cert": os.path.join(tmp, "cert.json"),
        }
        for key, data in files.items():
            Path(names[key]).write_bytes(data)
        try:
            back = load_system(path)
        except (ParseError, PreconditionError):
            pass
        else:
            if target != "json":
                assert back.fingerprint() == system.fingerprint()
        try:
            load_certificate(names["cert"])
        except (ParseError, PreconditionError):
            pass


@pytest.fixture(scope="module")
def weighted_document(tmp_path_factory):
    """A real system and the JSON text of a weighted certificate for it
    with several points and unequal weights."""
    system = make_system(SystemDescriptor("random_orthonormal", n=2, m=64, seed=5))
    cert = str(tmp_path_factory.mktemp("verify-fuzz") / "cert.json")
    save_certificate(discretize_weighted(system, OracleConfig(seed=1)), cert)
    text = Path(cert).read_text()
    doc = json.loads(text)
    assert len(doc["point_indices"]) > 1 and len(set(doc["weights"])) > 1
    return system, text


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(max_value=-1),
    st.integers(min_value=2**62, max_value=2**80),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.lists(st.integers(-2, 40), max_size=2), max_size=3),
    st.dictionaries(st.sampled_from(("lower", "upper")), st.integers(-2, 2), max_size=2),
)
# every part of a certificate that verification reads
CLAIM = st.one_of(
    st.tuples(
        st.sampled_from(
            ("input_fingerprint", "point_indices", "m", "weights", "constants", "points")
        )
    ),
    st.tuples(
        st.sampled_from(("point_indices", "weights", "points")), st.integers(0, 2**10)
    ),
    st.tuples(st.just("constants"), st.sampled_from(("lower", "upper"))),
)


def _reads_as(value, cell):
    try:
        return type(value) is not bool and float(value) == float(cell)
    except (TypeError, ValueError, OverflowError):
        return False


@settings(max_examples=100, deadline=None)
@given(claim=CLAIM, value=JUNK, drop=st.booleans())
def test_verify_fails_every_mutated_certificate(weighted_document, claim, value, drop):
    # replacing or dropping any claim ends in a failed report or a typed
    # error; "m" and "points" alone may be absent, since they only repeat
    # the index count and the system's points at the indices
    system, text = weighted_document
    doc = json.loads(text)
    parent = doc
    for key in claim[:-1]:
        parent = parent[key]
    key = claim[-1] % len(parent) if isinstance(parent, list) else claim[-1]
    if drop:
        assume(claim not in (("m",), ("points",)))
        del parent[key]
    else:
        assume(value != parent[key] and not (claim == ("m",) and value is None))
        if claim[0] == "points" and len(claim) == 2:
            # a coordinate that reads as the stored one changes nothing
            assume(not _reads_as(value, parent[key][0]))
        parent[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cert = os.path.join(tmp, "cert.json")
        Path(cert).write_text(json.dumps(doc))
        try:
            report = verify_certificate(system, load_certificate(cert))
        except DiscretizationError:
            return
    assert not report.passed


# ---------------------------------------------------------------- certificates


def test_certificate_roundtrip_equal_weight(tmp_path):
    system = make_system(SystemDescriptor("dft", n=2, m=64))
    cert = discretize_equal_weight(system)
    path = str(tmp_path / "cert.json")
    save_certificate(cert, path, settings={"strategy": "randomized", "seed": 0})
    doc = load_certificate(path)
    # kind, indices, weights, verification and bytes: tests/test_selector_contract.py
    assert doc["constants_decoded"] == cert.constants
    assert doc["theta"] == cert.theta
    assert doc["points_decoded"].tobytes() == cert.points.tobytes()
    assert doc["points_decoded"].shape == (cert.m, 1)
    assert doc["settings"] == {"strategy": "randomized", "seed": 0}


def test_certificate_roundtrip_weighted(tmp_path):
    system = make_system(SystemDescriptor("random_orthonormal", n=2, m=20, seed=5))
    cert = discretize_weighted(system, OracleConfig(seed=1))
    save_certificate(cert, str(tmp_path / "wcert.json"))
    doc = load_certificate(str(tmp_path / "wcert.json"))
    # kind, indices, weights and verification: tests/test_selector_contract.py
    assert doc["constants_decoded"] == cert.constants
    assert doc["theta"] == cert.theta
    assert doc["points_decoded"].tobytes() == cert.points.tobytes()
    assert doc["settings"] == {}


def test_certificate_missing_keys(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"kind": "equal_weight"}, fh)
    with pytest.raises(ParseError, match="lacks 'point_indices'"):
        load_certificate(path)

    with open(path, "w") as fh:
        json.dump(
            {
                "kind": "equal_weight",
                "point_indices": [0],
                "input_fingerprint": "sha256:0",
                "constants": {"lower": "0.5"},
            },
            fh,
        )
    with pytest.raises(ParseError, match="lower and upper"):
        load_certificate(path)

    with open(path, "w") as fh:
        fh.write("{")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_certificate(path)

    good = {
        "kind": "equal_weight",
        "point_indices": [0, 1],
        "input_fingerprint": "sha256:0",
        "constants": {"lower": "0.5", "upper": "2.0"},
    }
    for doc, message in (
        ([good], "not a JSON object"),
        (dict(good, constants="0.5"), "lower and upper"),
        (dict(good, point_indices="01"), "point_indices must be a list of integers"),
        (dict(good, point_indices=[0, "x"]), "point_indices must be a list of integers"),
        (dict(good, point_indices=[0, 1.5]), "point_indices must be a list of integers"),
        (dict(good, point_indices=[True, 1]), "point_indices must be a list of integers"),
        (dict(good, weights=0.5), "expected a list of numbers, got float"),
        (dict(good, weights=["0.5", [1]]), r"bad number \[1\]"),
        (dict(good, theta=[2]), r"bad number \[2\]"),
    ):
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ParseError, match=message):
            load_certificate(path)
    with open(path, "wb") as fh:
        fh.write(b'{"kind": "\xff"}')
    with pytest.raises(ParseError, match="invalid JSON"):
        load_certificate(path)


def test_json_booleans_are_no_numbers(tmp_path):
    # JSON true and false would read as 1.0 and 0.0; number lists refuse
    # them, as point_indices does, and the error names the cell
    path = str(tmp_path / "cert.json")
    good = {
        "kind": "weighted",
        "point_indices": [0, 1],
        "input_fingerprint": "sha256:0",
        "constants": {"lower": "0.5", "upper": "2.0"},
    }
    for doc, message in (
        (dict(good, constants={"lower": True, "upper": True}), "bad number True"),
        (dict(good, constants={"lower": "0.5", "upper": False}), "bad number False"),
        (dict(good, theta=True), "bad number True"),
        (dict(good, weights=["0.5", False]), "bad number False"),
    ):
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ParseError, match=message) as info:
            load_certificate(path)
        assert info.value.path == path

    system = SampledSystem(
        np.array([[1.0, -0.5, 2.0]]),
        np.array([[0.0, 1.0], [1.5, 2.25], [3.0, 4.0]]),
        point_weights=np.array([0.25, 0.5, 0.25]),
    )
    sys_path = str(tmp_path / "sys.csv")
    save_system(system, sys_path)
    side = Path(f"{sys_path}.json")
    meta = json.loads(side.read_text())
    for key, value in (
        ("point_weights", ["0.25", True, "0.25"]),
        ("points", [["0.0", "1.0"], ["1.5", False], ["3.0", "4.0"]]),
        ("points", [True, "1.5", "3.0"]),
    ):
        side.write_text(json.dumps(dict(meta, **{key: value})))
        with pytest.raises(ParseError, match="bad number (True|False)") as info:
            load_system(sys_path)
        assert info.value.path == str(side)


_EDGE_FLOATS = [-0.0, 1e16, 5e-324, float("nan"), 0.1, -1e-300, 1e22]


def _quoted(value):
    """``value`` with every float, also in arrays, dicts, lists and
    tuples, as its ``repr``; arrays and tuples become lists."""
    if isinstance(value, np.ndarray):
        return _quoted(value.tolist())
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _quoted(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_quoted(item) for item in value]
    return value


@pytest.mark.parametrize("shape", [(0,), (3,), (0, 2), (2, 0), (3, 2)])
def test_json_text_is_json_dumps_with_arrays_of_reprs(shape):
    cells = np.resize(np.array(_EDGE_FLOATS), shape)
    doc = {
        "values": cells,
        "more": np.array(_EDGE_FLOATS),
        "none": None,
        "count": 7,
        "negative": -3,
        "name": 'a "quoted"\nname, "values": [\\n',
        "nested": {"b": [1, {"c": None, "a": []}], "a": {}, "z": "x\ny"},
        "empty_list": [],
        "empty_dict": {},
        "flag": True,
        "é": ["é", "\n"],
    }
    ref = _quoted(doc)
    expected = json.dumps(ref, sort_keys=True, indent=2) + "\n"
    assert systems_io._json_text(doc) == expected
    # an array is the document's only key, first or last among others
    for extra in ({}, {"a": 1}, {"zz": [1, 2]}):
        one = {"values": cells, **extra}
        assert systems_io._json_text(one) == (
            json.dumps(_quoted(one), sort_keys=True, indent=2) + "\n"
        )


def _reference_certificate_bytes(cert, settings=None):
    """A certificate as ``json.dump`` of the per-value encoded document:
    every float quoted, ints and bools as they are, settings unencoded."""
    points = cert.points if cert.points.ndim == 2 else cert.points[:, None]
    doc = _quoted(
        {
            "schema_version": "1",
            "kind": cert.kind,
            "input_fingerprint": cert.input_fingerprint,
            "m": cert.m,
            "point_indices": cert.point_indices,
            "points": points,
            "constants": cert.constants._asdict(),
            "theta": cert.theta,
            "weights": cert.weights,
            "pipeline_log": cert.pipeline_log,
        }
    )
    doc["settings"] = settings or {}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "points",
    [
        np.zeros(0),
        np.zeros((0, 2)),
        np.zeros((2, 0)),
        np.array([0.5, -0.0, 5e-324]),
        np.array([[0.25, 1e16], [-0.0, float("nan")], [1e-300, 2.0]]),
        np.array([1, 2, 3]),
        np.array([[1, 2], [3, 4]]),
        np.array([1.5, 2.5], dtype=np.float32),
        np.arange(8.0).reshape(2, 2, 2),
    ],
    ids=[
        "empty", "empty-rows", "no-coordinates", "1d", "2d", "int-1d", "int-2d", "f32", "3d"
    ],
)
@pytest.mark.parametrize(
    "weights",
    [None, (), (1, 2), (0.25, -0.0, 5e-324, 1e16), (1, 0.5), (True, 0.5)],
    ids=["none", "empty", "ints", "floats", "int-and-float", "bool-and-float"],
)
def test_save_certificate_as_the_per_value_writer(tmp_path, points, weights):
    cert = DiscretizationCertificate(
        kind="weighted",
        point_indices=tuple(range(len(points))),
        points=points,
        m=len(points),
        weights=weights,
        constants=FrameBounds(0.5, 2.0),
        theta=0.1,
        input_fingerprint="sha256v2:0",
        pipeline_log=({"stage": "halving", "bounds": (0.5, 1.5), "tried": 3},),
    )
    path = tmp_path / "cert.json"
    for settings in (None, {"seed": 3, "threshold": 1e-08, "tags": ["a", 1.5]}):
        save_certificate(cert, str(path), settings=settings)
        assert path.read_bytes() == _reference_certificate_bytes(cert, settings)


@pytest.mark.parametrize(
    "indices",
    [[], (), [7], (0,), list(range(0, 3000, 3)), [2**31, -(2**31) - 1, 2**63, 2**70, 0]],
    ids=["empty-list", "empty-tuple", "one", "one-tuple", "many", "wide"],
)
def test_json_text_joins_exact_ints_as_json_dumps(indices):
    doc = {"point_indices": indices, "a": 1, "z": np.array([0.5, -0.0])}
    expected = json.dumps(_quoted(doc), sort_keys=True, indent=2) + "\n"
    assert systems_io._json_text(doc) == expected
    assert systems_io._json_text({"point_indices": indices}) == (
        json.dumps({"point_indices": indices}, indent=2) + "\n"
    )


def _outcome(write):
    """The bytes ``write()`` returns, or the type and text of what it raises."""
    try:
        return write()
    except Exception as exc:  # compared, never swallowed: both sides must match
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "indices",
    [
        (),
        (3,),
        tuple(range(1024)),
        (2**31, 2**63 + 5),
        [4, 1],
        (1.5, 2),
        (True, 2),
        (np.int64(1), np.int64(2)),
        (1, np.int32(2)),
        "12",
    ],
    ids=["empty", "one", "many", "wide", "list", "float", "bool", "numpy", "mixed", "str"],
)
def test_save_certificate_indices_as_the_per_value_writer(tmp_path, indices):
    # exact ints are joined; anything else takes the per-value path, with
    # the same bytes or the same error as that writer
    cert = DiscretizationCertificate(
        kind="equal_weight",
        point_indices=indices,
        points=np.array([0.5, 0.25]),
        m=2,
        weights=None,
        constants=FrameBounds(0.5, 2.0),
        theta=None,
        input_fingerprint="sha256v2:0",
        pipeline_log=(),
    )
    path = tmp_path / "cert.json"

    def saved():
        save_certificate(cert, str(path))
        return path.read_bytes()

    assert _outcome(saved) == _outcome(lambda: _reference_certificate_bytes(cert))


# ---------------------------------------------------------------- verification


def doc_for(system, indices, weights=None, fingerprint=None, m=None):
    # constants over whatever part of the request is well formed; malformed
    # pieces are the point of several cases and must reach the verifier
    valid = list(dict.fromkeys(i for i in indices if 0 <= i < system.m))
    usable = weights if valid == list(indices) and weights is not None and len(
        weights
    ) == len(valid) and min(weights, default=0) >= 0 else None
    constants = recompute_constants(system, valid, usable)
    return {
        "input_fingerprint": fingerprint or system.fingerprint(),
        "point_indices": list(indices),
        "m": len(indices) if m is None else m,
        "weights": weights,
        "constants_decoded": constants,
    }


def test_verify_detects_tampering(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=40))
    cert = discretize_equal_weight(system)
    path = str(tmp_path / "cert.json")
    save_certificate(cert, path)
    doc = load_certificate(path)

    # 1. wrong system
    other = make_system(SystemDescriptor("trig", n=3, m=42))
    report = verify_certificate(other, doc)
    assert not report.passed
    assert any("fingerprint" in msg for msg in report.messages)

    # 2. inflated constants
    doc3 = load_certificate(path)
    doc3["constants_decoded"] = FrameBounds(
        doc3["constants_decoded"].lower + 1e-6, doc3["constants_decoded"].upper
    )
    report = verify_certificate(system, doc3)
    assert not report.passed
    assert any("lower constant mismatch" in msg for msg in report.messages)

    # 3. non-finite constants: nan and inf compare within any tolerance
    for lower, upper in ((np.nan, np.nan), (doc3["constants_decoded"].lower, np.inf)):
        doc4 = load_certificate(path)
        doc4["constants_decoded"] = FrameBounds(lower, upper)
        report = verify_certificate(system, doc4)
        assert not report.passed
        assert any("not finite" in msg for msg in report.messages)


def test_verify_document_checks():
    system = make_system(SystemDescriptor("trig", n=3, m=12))

    assert not verify_certificate(system, {}).passed

    report = verify_certificate(system, doc_for(system, []))
    assert not report.passed and "no points" in report.messages[0]

    report = verify_certificate(system, doc_for(system, [0, 99]))
    assert not report.passed
    assert any("out of range" in msg for msg in report.messages)

    report = verify_certificate(system, doc_for(system, [0, 0, 1]))
    assert not report.passed
    assert any("duplicates" in msg for msg in report.messages)

    report = verify_certificate(system, doc_for(system, [0, 1, 2], m=5))
    assert not report.passed
    assert any("m=5" in msg for msg in report.messages)

    report = verify_certificate(
        system, doc_for(system, [0, 1, 2], weights=[0.1, -0.1, 0.2])
    )
    assert not report.passed
    assert any("nonnegative" in msg for msg in report.messages)

    report = verify_certificate(system, doc_for(system, [0, 1, 2], weights=[0.1, 0.2]))
    assert not report.passed
    assert any("weights for" in msg for msg in report.messages)

    # decoded points are checked bit for bit against the system's rows;
    # point 0 is 0.0, so negating the rows changes every one of them
    good = doc_for(system, [0, 1, 2])
    rows = system.points[[0, 1, 2], None]
    assert verify_certificate(system, dict(good, points_decoded=rows)).passed
    for points in (-rows, rows[:2], rows[:, 0], np.hstack([rows, rows])):
        report = verify_certificate(system, dict(good, points_decoded=points))
        assert not report.passed
        assert report.messages == ["stored points are not the system's points at the indices"]

    # a JSON true equals 1 but is no count; 1.0 is one
    single = make_system(SystemDescriptor("walsh", n=1, m=1))
    for m, passed in ((True, False), (1.0, True), (1, True)):
        report = verify_certificate(single, doc_for(single, [0], m=m))
        assert report.passed is passed, report.messages

    # documents built in memory skip the loader's type checks
    for doc, message in (
        (dict(good, point_indices=[[0, 1], [2, 3]]), "not a flat list"),
        (dict(good, point_indices=5), "not a flat list"),
        (dict(good, point_indices=[0, 1, 2**70]), "not 64-bit integers"),
        (dict(good, weights=["a", "b", "c"]), "not numbers"),
        (dict(good, constants_decoded=FrameBounds("a", 1.0)), "not two real numbers"),
        (dict(good, points_decoded=[[0.0], [1.0]]), "not the system's points"),
        (dict(good, points_decoded=[["a"]] * 3), "not numbers"),
    ):
        report = verify_certificate(system, doc)
        assert not report.passed
        assert any(message in msg for msg in report.messages)
    # a plain pair of constants and plain lists of points are read as numbers
    plain = dict(good, constants_decoded=tuple(good["constants_decoded"]))
    plain["points_decoded"] = rows.tolist()
    report = verify_certificate(system, plain)
    assert report.passed and type(report.stored) is FrameBounds


def test_verify_rejects_rank_loss_and_skew():
    system = make_system(SystemDescriptor("trig", n=3, m=12))
    # one point cannot carry a 3-dimensional span
    report = verify_certificate(system, doc_for(system, [0]))
    assert not report.passed
    assert any("not positive" in msg for msg in report.messages)

    skew = SampledSystem(np.array([[1.2, 0.9, 1.1]]), np.arange(3.0))
    report = verify_certificate(skew, doc_for(skew, [0, 1, 2]))
    assert not report.passed
    assert any("not orthonormal" in msg for msg in report.messages)


def test_verify_tolerance_scales_with_magnitude():
    system = make_system(SystemDescriptor("trig", n=3, m=12))
    doc = doc_for(system, list(range(12)))
    good = verify_certificate(system, doc)
    assert good.passed

    # a nudge below tol * max(1, C) passes, one above fails
    base = doc["constants_decoded"]
    doc["constants_decoded"] = FrameBounds(base.lower + 5e-11, base.upper)
    assert verify_certificate(system, doc).passed
    doc["constants_decoded"] = FrameBounds(base.lower + 5e-10, base.upper)
    assert not verify_certificate(system, doc).passed


# ------------------------------------------------------------- legacy files

LEGACY = Path(__file__).parent / "data" / "legacy_trig3x8"


def test_legacy_v1_files_load_and_verify(tmp_path, capsys):
    # written before the float64-bytes fingerprint, with "sha256:" text hashes
    system = load_system(f"{LEGACY}.csv")
    assert np.array_equal(
        system.values, make_system(SystemDescriptor("trig", n=3, m=8)).values
    )
    doc = load_certificate(f"{LEGACY}.cert.json")
    assert doc["input_fingerprint"].startswith("sha256:")
    assert verify_certificate(system, doc).passed
    code = main(
        ["verify", "--system", f"{LEGACY}.csv", "--certificate", f"{LEGACY}.cert.json"]
    )
    assert code == 0
    assert "verification passed" in capsys.readouterr().out

    # one character of one value changed
    path = tmp_path / "legacy.csv"
    text = Path(f"{LEGACY}.csv").read_bytes()
    assert text.count(b"0.9999999999999998") == 1
    path.write_bytes(text.replace(b"0.9999999999999998", b"0.9999999999999997"))
    shutil.copy(f"{LEGACY}.csv.json", f"{path}.json")
    with pytest.raises(ParseError, match="fingerprint mismatch"):
        load_system(str(path))


def test_legacy_fingerprint_of_a_complex_system(tmp_path):
    # the legacy text hash writes each complex value as "re,im"
    system = make_system(SystemDescriptor("dft", n=2, m=8))
    legacy = _legacy_fingerprint(system)
    assert legacy.startswith("sha256:")
    path = tmp_path / "dft.csv"
    save_system(system, str(path))
    side = Path(f"{path}.json")
    side.write_text(side.read_text().replace(system.fingerprint(), legacy))
    loaded = load_system(str(path))
    assert np.array_equal(loaded.values, system.values)
    cert = tmp_path / "cert.json"
    save_certificate(discretize_equal_weight(loaded, OracleConfig(seed=0)), str(cert))
    doc = load_certificate(str(cert))
    doc["input_fingerprint"] = legacy
    assert verify_certificate(loaded, doc).passed

    # the imaginary part of one value changed
    rows = path.read_bytes().split(b"\r\n")
    cells = rows[1].split(b",")
    cells[3] = b"0.5"
    rows[1] = b",".join(cells)
    path.write_bytes(b"\r\n".join(rows))
    with pytest.raises(ParseError, match="fingerprint mismatch"):
        load_system(str(path))
