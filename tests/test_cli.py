"""End-to-end runs of the command line interface (in process)."""

import json

import numpy as np

from sampdisc import SampledSystem, load_certificate, save_system
from sampdisc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_select_verify_happy_path(tmp_path, capsys):
    system = str(tmp_path / "dft.csv")
    cert = str(tmp_path / "cert.json")

    code, out, _ = run(
        capsys, "gen", "--kind", "dft", "--n", "2", "--m", "64", "--out", system
    )
    assert code == 0
    assert out.startswith(f"wrote {system} (n=2 m=64 field=complex")

    code, out, _ = run(
        capsys, "select", "--system", system, "--seed", "0", "--out", cert
    )
    assert code == 0
    assert "kind=equal_weight selected=64" in out
    assert f"wrote {cert}" in out

    code, out, _ = run(capsys, "verify", "--system", system, "--certificate", cert)
    assert code == 0
    assert "verification passed" in out
    assert "stored:" in out and "recomputed:" in out


def test_verify_exit_2_on_tampering(tmp_path, capsys):
    system = str(tmp_path / "sys.csv")
    cert = str(tmp_path / "cert.json")
    run(capsys, "gen", "--kind", "trig", "--n", "3", "--m", "30", "--out", system)
    run(capsys, "select", "--system", system, "--seed", "0", "--out", cert)

    doc = json.loads(open(cert).read())
    doc["point_indices"] = doc["point_indices"][:-1]
    doc["m"] -= 1
    with open(cert, "w") as fh:
        json.dump(doc, fh)

    code, out, _ = run(capsys, "verify", "--system", system, "--certificate", cert)
    assert code == 2
    assert "verification FAILED" in out
    assert "mismatch:" in out


def test_nikolskii_frozen_output(capsys):
    code, out, _ = run(capsys, "nikolskii", "--kind", "walsh", "--n", "4", "--m", "16")
    assert code == 0
    assert out.splitlines() == [
        "n=4 m=16 field=real",
        "t=1.0 t_squared=1.0 argmax_index=0",
    ]


def test_select_weighted_and_verify(tmp_path, capsys):
    system = str(tmp_path / "rnd.csv")
    cert = str(tmp_path / "wcert.json")
    run(
        capsys,
        "gen", "--kind", "random_orthonormal", "--n", "2", "--m", "20",
        "--gen-seed", "5", "--out", system,
    )
    code, out, _ = run(
        capsys, "select-weighted", "--system", system, "--seed", "1", "--out", cert
    )
    assert code == 0
    assert out.startswith("kind=weighted")

    code, out, _ = run(capsys, "verify", "--system", system, "--certificate", cert)
    assert code == 0, out
    assert "verification passed" in out


def test_select_theta_override_lands_in_certificate(tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    code, _, _ = run(
        capsys,
        "select", "--kind", "trig", "--n", "3", "--m", "24",
        "--theta", "1.5", "--seed", "0", "--out", cert,
    )
    assert code == 0
    assert load_certificate(cert)["theta"] == 1.5


def test_select_rebases_skewed_system(tmp_path, capsys):
    # redundant rows: not orthonormal, needs re-basing before selection
    skew = SampledSystem(
        np.array([[1.0, 1.0, 1.0, 1.0], [1.1, 0.9, 1.05, 0.95]]), np.arange(4.0)
    )
    src = str(tmp_path / "skew.csv")
    save_system(skew, src)
    cert = str(tmp_path / "cert.json")
    rebased = str(tmp_path / "rebased.csv")

    code, _, err = run(capsys, "select", "--system", src, "--seed", "0", "--out", cert)
    assert code == 1
    assert "pass --out-system" in err

    code, out, _ = run(
        capsys,
        "select", "--system", src, "--seed", "0", "--out", cert,
        "--out-system", rebased,
    )
    assert code == 0
    assert f"re-based system written to {rebased}" in out

    code, out, _ = run(capsys, "verify", "--system", rebased, "--certificate", cert)
    assert code == 0, out
    assert "verification passed" in out


def test_sweep_header_rows_and_determinism(tmp_path, capsys):
    out1 = str(tmp_path / "sweep1.csv")
    out2 = str(tmp_path / "sweep2.csv")
    args = (
        "sweep", "--kind", "walsh", "--n-list", "2,3", "--m-list", "8,16",
        "--seed", "0",
    )
    code, out, _ = run(capsys, *args, "--out", out1)
    assert code == 0
    assert "(4 rows)" in out
    lines = open(out1).read().splitlines()
    assert lines[0] == "N,M,t,m,m_over_N,c,C,ratio,seed"
    assert len(lines) == 5
    assert lines[1].startswith("2,8,1.0,8,4.0,")

    code, _, _ = run(capsys, *args, "--out", out2)
    assert code == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_sweep_skips_undersized_grids(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    code, text, _ = run(
        capsys,
        "sweep", "--kind", "dft", "--n-list", "2,9", "--m-list", "8",
        "--seed", "0", "--out", out,
    )
    assert code == 0
    assert "(1 rows)" in text  # m=8 < n=9 is skipped

    code, _, err = run(
        capsys,
        "sweep", "--kind", "dft", "--n-list", "2,x", "--m-list", "8",
        "--seed", "0", "--out", out,
    )
    assert code == 1
    assert "comma-separated integers" in err


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "a subcommand is required" in err

    code, _, err = run(
        capsys, "select", "--kind", "dft", "--n", "2", "--m", "16",
        "--out", str(tmp_path / "c.json"),
    )
    assert code == 1
    assert "--seed is required" in err

    code, _, err = run(
        capsys, "gen", "--system", "x.csv", "--out", str(tmp_path / "y.csv")
    )
    assert code == 1
    assert "pass --kind" in err

    code, _, err = run(
        capsys, "select", "--kind", "dft", "--seed", "0",
        "--out", str(tmp_path / "c.json"),
    )
    assert code == 1
    assert "needs --n and --m" in err

    code, _, err = run(
        capsys, "select", "--kind", "dft", "--n", "2", "--m", "16",
        "--field", "quaternion", "--seed", "0", "--out", str(tmp_path / "c.json"),
    )
    assert code == 1  # argparse choice rejection surfaces as usage error
    assert "invalid choice" in err


def test_runtime_error_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "nikolskii", "--system", str(tmp_path / "nope.csv"))
    assert code == 1
    assert "error:" in err and "missing metadata sidecar" in err
