"""Generators, file round trips, and certificate verification."""

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sampdisc import (
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
from sampdisc import systems_io
from sampdisc.cli import main


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


def test_generator_validation():
    with pytest.raises(PreconditionError, match="power of 2"):
        make_system(SystemDescriptor("walsh", n=3, m=12))
    with pytest.raises(PreconditionError, match="odd n"):
        make_system(SystemDescriptor("trig", n=4, m=16))
    with pytest.raises(PreconditionError, match="m >= n"):
        make_system(SystemDescriptor("trig", n=5, m=3))
    with pytest.raises(PreconditionError, match="n <= m"):
        make_system(SystemDescriptor("dft", n=9, m=8))
    with pytest.raises(PreconditionError, match="needs a seed"):
        make_system(SystemDescriptor("random_orthonormal", n=2, m=8))
    with pytest.raises(PreconditionError, match="unknown system kind"):
        make_system(SystemDescriptor("fourier", n=2, m=8))
    with pytest.raises(PreconditionError, match="n, m >= 1"):
        make_system(SystemDescriptor("dft", n=0, m=8))
    with pytest.raises(PreconditionError, match="unknown system kind"):
        make_system(SystemDescriptor("file"))
    for seed in (-2, 1.5, 3.0, True, "3", 2**63):
        with pytest.raises(PreconditionError, match="seed must be an integer >= 0"):
            make_system(SystemDescriptor("random_orthonormal", n=2, m=8, seed=seed))
    by_numpy_int = make_system(SystemDescriptor("random_orthonormal", 2, 8, np.int64(3)))
    by_int = make_system(SystemDescriptor("random_orthonormal", 2, 8, 3))
    assert by_numpy_int.fingerprint() == by_int.fingerprint()


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
        st.sampled_from(("input_fingerprint", "point_indices", "m", "weights", "constants"))
    ),
    st.tuples(st.sampled_from(("point_indices", "weights")), st.integers(0, 2**10)),
    st.tuples(st.just("constants"), st.sampled_from(("lower", "upper"))),
)


@settings(max_examples=100, deadline=None)
@given(claim=CLAIM, value=JUNK, drop=st.booleans())
def test_verify_fails_every_mutated_certificate(weighted_document, claim, value, drop):
    # replacing or dropping any claim ends in a failed report or a typed
    # error; "m" alone may be absent, since it only repeats the index count
    system, text = weighted_document
    doc = json.loads(text)
    parent = doc
    for key in claim[:-1]:
        parent = parent[key]
    key = claim[-1] % len(parent) if isinstance(parent, list) else claim[-1]
    if drop:
        assume(claim != ("m",))
        del parent[key]
    else:
        assume(value != parent[key] and not (claim == ("m",) and value is None))
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
    assert doc["kind"] == "equal_weight"
    assert doc["constants_decoded"] == cert.constants
    assert tuple(doc["point_indices"]) == cert.point_indices
    assert doc["theta"] == cert.theta
    assert doc["weights"] is None
    assert doc["settings"] == {"strategy": "randomized", "seed": 0}
    report = verify_certificate(system, doc)
    assert report.passed, report.messages
    assert report.recomputed == cert.constants

    # identical bytes on re-save
    other = str(tmp_path / "cert2.json")
    save_certificate(cert, other, settings={"strategy": "randomized", "seed": 0})
    with open(path, "rb") as fh:
        one = fh.read()
    with open(other, "rb") as fh:
        two = fh.read()
    assert one == two


def test_certificate_roundtrip_weighted(tmp_path):
    system = make_system(SystemDescriptor("random_orthonormal", n=2, m=20, seed=5))
    cert = discretize_weighted(system, OracleConfig(seed=1))
    path = str(tmp_path / "wcert.json")
    save_certificate(cert, path)
    doc = load_certificate(path)
    assert doc["kind"] == "weighted"
    assert tuple(doc["weights"]) == cert.weights
    report = verify_certificate(system, doc)
    assert report.passed, report.messages


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

    # 2. dropped index: m disagrees and the constants move
    doc2 = load_certificate(path)
    doc2["point_indices"] = doc2["point_indices"][:-1]
    report = verify_certificate(system, doc2)
    assert not report.passed

    # 3. inflated constants
    doc3 = load_certificate(path)
    doc3["constants_decoded"] = FrameBounds(
        doc3["constants_decoded"].lower + 1e-6, doc3["constants_decoded"].upper
    )
    report = verify_certificate(system, doc3)
    assert not report.passed
    assert any("lower constant mismatch" in msg for msg in report.messages)

    # 4. non-finite constants: nan and inf compare within any tolerance
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

    # documents built in memory skip the loader's type checks
    good = doc_for(system, [0, 1, 2])
    for doc, message in (
        (dict(good, point_indices=[[0, 1], [2, 3]]), "not a flat list"),
        (dict(good, point_indices=[0, 1, 2**70]), "not 64-bit integers"),
        (dict(good, weights=["a", "b", "c"]), "not numbers"),
    ):
        report = verify_certificate(system, doc)
        assert not report.passed
        assert any(message in msg for msg in report.messages)


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
