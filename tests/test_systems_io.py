"""Generators, file round trips, and certificate verification."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from sampdisc import (
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
    with pytest.raises(PreconditionError, match="needs a path"):
        make_system(SystemDescriptor("file"))


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
    # the file kind routes through the loader
    again = make_system(SystemDescriptor("file", path=path))
    assert again.fingerprint() == system.fingerprint()


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
    (tmp_path / "sys.csv.json").write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
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


def test_load_fingerprint_tamper(tmp_path):
    system = make_system(SystemDescriptor("trig", n=3, m=8))
    path = str(tmp_path / "sys.csv")
    save_system(system, path)
    text = (tmp_path / "sys.csv").read_text()
    (tmp_path / "sys.csv").write_text(text.replace("1.0", "1.5", 1))
    with pytest.raises(ParseError, match="fingerprint mismatch"):
        load_system(path)


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


# ---------------------------------------------------------------- verification


def doc_for(system, indices, weights=None, fingerprint=None, m=None):
    # constants over whatever part of the request is well formed; malformed
    # pieces are the point of several cases and must reach the verifier
    valid = [i for i in indices if 0 <= i < system.m]
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
