"""End-to-end runs of the command line interface (in process)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sampdisc import FrameBounds, SampledSystem, load_certificate, save_system
from sampdisc import cli, discretize
from sampdisc.cli import build_parser, main
from sampdisc.frame_core import TIGHTNESS_TOL
from sampdisc.partition_oracle import DEFAULT_BUDGET
from sampdisc.verify import VERIFY_TOL
from sampdisc.weighted_sparsify import COPY_CAP

from helpers import failing_eigvalsh


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_entry_point_exits_with_each_command_code(tmp_path):
    # ``python -m sampdisc.cli`` in a fresh interpreter: the code main()
    # returns is the process's exit status
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    system, cert = str(tmp_path / "walsh.csv"), str(tmp_path / "cert.json")

    def status(*argv):
        argv = [sys.executable, "-m", "sampdisc.cli", *argv]
        return subprocess.run(argv, capture_output=True, env=env).returncode

    assert status("gen", "--kind", "walsh", "--n", "4", "--m", "64", "--out", system) == 0
    assert status("select", "--system", system, "--seed", "0", "--out", cert) == 0
    assert status("verify", "--system", system, "--certificate", cert) == 0
    doc = json.loads(Path(cert).read_text())
    doc["constants"]["lower"] = repr(float(doc["constants"]["lower"]) / 2)
    Path(cert).write_text(json.dumps(doc))
    assert status("verify", "--system", system, "--certificate", cert) == 2
    assert status("select", "--system", system, "--out", cert) == 1


def test_eigensolver_failure_exits_1_without_a_certificate(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    cert = tmp_path / "cert.json"
    code, out, err = run(
        capsys, "select", "--kind", "trig", "--n", "3", "--m", "64",
        "--seed", "0", "--out", str(cert),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: dense eigensolver failed on a 3x3 matrix")
    assert err.count("\n") == 1
    assert not cert.exists()


@pytest.fixture
def selected(tmp_path, capsys):
    """Paths of a trig 3 x 64 system written by ``gen`` and of ``select``'s
    certificate of it, and the certificate's document."""
    system, cert = str(tmp_path / "sys.csv"), str(tmp_path / "cert.json")
    assert run(capsys, "gen", "--kind", "trig", "--n", "3", "--m", "64", "--out", system)[0] == 0
    assert run(capsys, "select", "--system", system, "--seed", "0", "--out", cert)[0] == 0
    return system, cert, json.loads(Path(cert).read_text())


def test_verify_exits_1_on_boolean_constants(selected, capsys):
    system, cert, doc = selected
    doc["constants"] = {"lower": True, "upper": True}
    Path(cert).write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--system", system, "--certificate", cert)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "bad number True" in err


def test_verify_exit_2_on_tampering(selected, capsys):
    # a non-integer count fails, never crashes; mutated indices and weights
    # are part of tests/test_selector_contract.py
    system, cert, doc = selected
    Path(cert).write_text(json.dumps(dict(doc, m="x")))
    code, out, _ = run(capsys, "verify", "--system", system, "--certificate", cert)
    assert code == 2
    assert "verification FAILED" in out
    assert "mismatch:" in out


def test_verify_exit_2_on_edited_points(selected, capsys):
    system, cert, doc = selected
    doc["points"][0] = ["123.0"]
    Path(cert).write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--system", system, "--certificate", cert)
    assert code == 2
    assert "mismatch: stored points are not the system's points at the indices" in out


def test_verify_exit_2_on_a_boolean_count(tmp_path, capsys):
    # on a one-point certificate "m": true equals 1; 1.0 stays a count
    system = str(tmp_path / "one.csv")
    cert = str(tmp_path / "cert.json")
    run(capsys, "gen", "--kind", "walsh", "--n", "1", "--m", "1", "--out", system)
    code, _, _ = run(
        capsys, "select-weighted", "--system", system, "--seed", "0", "--out", cert
    )
    doc = json.loads(Path(cert).read_text())
    assert code == 0 and doc["m"] == 1
    verify = ("verify", "--system", system, "--certificate", cert)
    Path(cert).write_text(json.dumps(dict(doc, m=True)))
    code, out, _ = run(capsys, *verify)
    assert code == 2 and "mismatch: m=True but 1 indices stored" in out
    Path(cert).write_text(json.dumps(dict(doc, m=1.0)))
    assert run(capsys, *verify)[0] == 0


def test_nikolskii_frozen_output(capsys):
    code, out, _ = run(capsys, "nikolskii", "--kind", "walsh", "--n", "4", "--m", "16")
    assert code == 0
    assert out.splitlines() == [
        "n=4 m=16 field=real",
        "t=1.0 t_squared=1.0 argmax_index=0",
    ]


def test_select_theta_override_lands_in_certificate(tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    code, _, _ = run(
        capsys,
        "select", "--kind", "trig", "--n", "3", "--m", "24",
        "--theta", "1.5", "--seed", "0", "--out", cert,
    )
    assert code == 0
    assert load_certificate(cert)["theta"] == 1.5


def test_selection_commands_take_no_residual_threshold(tmp_path, capsys):
    # any residual the library would refuse is re-based onto a file instead;
    # select records the residual re-basing starts above, for readers
    cert = tmp_path / "c.json"
    argv = ("--kind", "dft", "--n", "2", "--m", "16", "--seed", "1", "--out", str(cert))
    for command, delta in (("select", TIGHTNESS_TOL), ("select-weighted", None)):
        code, _, err = run(capsys, command, *argv, "--delta", "0.1")
        assert code == 1 and "unrecognized arguments: --delta" in err
        assert not cert.exists()
        assert run(capsys, command, *argv)[0] == 0
        assert load_certificate(str(cert))["settings"].get("delta") == delta
        cert.unlink()


def test_unwritable_destination_fails_before_any_work(tmp_path, capsys, monkeypatch):
    # a skewed system would be re-based and saved to --out-system; the
    # command must refuse a bad --out before it writes anything
    skew = SampledSystem(
        np.array([[1.0, 1.0, 1.0, 1.0], [1.1, 0.9, 1.05, 0.95]]), np.arange(4.0)
    )
    src = str(tmp_path / "skew.csv")
    save_system(skew, src)
    (tmp_path / "file").write_text("")
    cert = str(tmp_path / "c.json")
    rebased = str(tmp_path / "r.csv")
    for command in ("select", "select-weighted"):
        for out, out_system, reason in (
            (str(tmp_path / "nodir" / "c.json"), rebased, "No such file or directory"),
            (str(tmp_path / "file" / "c.json"), rebased, "Not a directory"),
            (cert, str(tmp_path / "nodir" / "r.csv"), "No such file or directory"),
        ):
            code, out_text, err = run(
                capsys, command, "--system", src, "--seed", "0",
                "--out", out, "--out-system", out_system,
            )
            assert code == 1
            assert err.startswith("error: ") and reason in err
            assert out_text == ""
            assert not os.path.exists(rebased) and not os.path.exists(cert)
    # no output may name an input file or a file the other output writes;
    # paths are compared resolved, so a "." in one is no way round
    inputs = {path: Path(path).read_bytes() for path in (src, src + ".json", src + ".f64")}
    dotted = str(tmp_path / "." / "skew.csv")
    rebased_files = (rebased, rebased + ".json", rebased + ".f64")
    for command in ("select", "select-weighted"):
        for flag, out, out_system in (
            *(("--out", path, rebased) for path in (*inputs, dotted + ".json")),
            *(("--out-system", cert, path) for path in (*inputs, dotted)),
            *(("--out", path, rebased) for path in rebased_files),
        ):
            code, out_text, err = run(
                capsys, command, "--system", src, "--seed", "0",
                "--out", out, "--out-system", out_system,
            )
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert code == 1 and out_text == ""
            assert len(errors) == 1 and errors[0].startswith(f"error: {flag} ")
            assert {path: Path(path).read_bytes() for path in inputs} == inputs
            assert not any(map(os.path.exists, (cert, *rebased_files)))
    code, _, err = run(
        capsys, "sweep", "--kind", "trig", "--n-list", "3", "--m-list", "64",
        "--seed", "0", "--out", str(tmp_path / "nodir" / "s.csv"),
    )
    assert code == 1 and err.startswith("error: ")
    assert not (tmp_path / "nodir").exists()
    # an existing directory is refused wherever the command writes a file;
    # a system saved at d.csv could not write its sidecar d.csv.json
    (tmp_path / "somedir").mkdir()
    (tmp_path / "d.csv.json").mkdir()
    somedir, sidecar_dir = str(tmp_path / "somedir"), str(tmp_path / "d.csv")
    written = (cert, *rebased_files, sidecar_dir, sidecar_dir + ".f64")

    def refused(*argv):
        code, out_text, err = run(capsys, *argv)
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert code == 1 and out_text == ""
        assert len(errors) == 1 and "Is a directory" in errors[0]
        assert not any(map(os.path.exists, written))

    for command in ("select", "select-weighted"):
        for out, out_system in ((somedir, rebased), (cert, sidecar_dir)):
            refused(
                command, "--system", src, "--seed", "0",
                "--out", out, "--out-system", out_system,
            )
    for out in (somedir, sidecar_dir):
        refused("gen", "--kind", "trig", "--n", "3", "--m", "8", "--out", out)

    def no_grid(*args, **kwargs):
        raise AssertionError("sweep built a system before checking --out")

    monkeypatch.setattr("sampdisc.cli.make_system", no_grid)
    refused(
        "sweep", "--kind", "trig", "--n-list", "3", "--m-list", "64",
        "--seed", "0", "--out", somedir,
    )


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
    lines = Path(out1).read_text().splitlines()
    assert lines[0] == "N,M,t,m,m_over_N,c,C,ratio,seed"
    assert len(lines) == 5
    assert lines[1].startswith("2,8,1.0,8,4.0,")

    code, _, _ = run(capsys, *args, "--out", out2)
    assert code == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


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

    code, _, err = run(capsys, "select", "--out", str(tmp_path / "c.json"), "--seed", "0")
    assert code == 1
    assert "pass --system FILE or --kind with --n and --m" in err

    # a loaded system takes no generator flags: they would be ignored
    system = str(tmp_path / "s.csv")
    assert run(
        capsys, "gen", "--kind", "trig", "--n", "3", "--m", "64", "--out", system
    )[0] == 0
    before = sorted(os.listdir(tmp_path))
    for argv, flags in [
        (["select", "--kind", "dft", "--n", "4", "--m", "64", "--seed", "0",
          "--out", str(tmp_path / "c.json")], "--kind, --n, --m"),
        (["select-weighted", "--gen-seed", "3", "--seed", "0",
          "--out", str(tmp_path / "c.json")], "--gen-seed"),
        (["nikolskii", "--kind", "walsh", "--n", "2", "--m", "8"], "--kind, --n, --m"),
        (["nikolskii", "--m", "8"], "--m"),
        (["nikolskii", "--field", "complex"], "--field"),
        (["select", "--field", "real", "--gen-seed", "1", "--seed", "0",
          "--out", str(tmp_path / "c.json")], "--field, --gen-seed"),
    ]:
        code, out, err = run(capsys, argv[0], "--system", system, *argv[1:])
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == f"error: --system excludes {flags}"
        assert err.count("error:") == 1
    assert sorted(os.listdir(tmp_path)) == before

    code, _, err = run(
        capsys, "sweep", "--kind", "walsh", "--n-list", ",", "--m-list", "8",
        "--seed", "0", "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "--n-list is empty" in err

    code, _, err = run(
        capsys, "select", "--kind", "dft", "--n", "2", "--m", "16",
        "--field", "quaternion", "--seed", "0", "--out", str(tmp_path / "c.json"),
    )
    assert code == 1  # argparse choice rejection surfaces as usage error
    assert "invalid choice" in err


def test_select_fault_exits_1_without_a_certificate(tmp_path, capsys, monkeypatch):
    # no input loses rank on this path; the measurement is replaced
    monkeypatch.setattr(
        "sampdisc.discretize.recompute_constants", lambda *args: FrameBounds(0.0, 1.0)
    )
    cert = tmp_path / "cert.json"
    code, out, err = run(
        capsys, "select", "--kind", "trig", "--n", "3", "--m", "64",
        "--seed", "0", "--out", str(cert),
    )
    assert code == 1 and out == ""
    assert err == "error: selected points lost rank: lower constant is 0\n"
    assert not cert.exists()


def test_runtime_error_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "nikolskii", "--system", str(tmp_path / "nope.csv"))
    assert code == 1
    assert "error:" in err and "missing metadata sidecar" in err

    for cap, message in (
        ("0", "cap must be an integer >= 1: 0"),
        ("15", "norm equalization needs 16 copies, cap is 15"),
    ):
        code, _, err = run(
            capsys, "select-weighted", "--kind", "dft", "--n", "2", "--m", "16",
            "--seed", "0", "--cap", cap, "--out", str(tmp_path / "c.json"),
        )
        assert code == 1
        assert f"error: {message}" in err
        assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["select", "--kind", "dft", "--n", "2", "--m", "64", "--seed", "-1"],
        ["select-weighted", "--kind", "dft", "--n", "2", "--m", "64", "--seed", "-1"],
        ["sweep", "--kind", "dft", "--n-list", "2", "--m-list", "8", "--seed", "-3"],
        ["gen", "--kind", "random_orthonormal", "--n", "2", "--m", "8",
         "--gen-seed", "-2"],
    ],
    ids=["select", "select-weighted", "sweep", "gen"],
)
def test_negative_seeds_exit_1_with_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "seed must be an integer >= 0" in errors[0]
    assert "Traceback" not in err and stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("theta", ["-1", "0", "nan"])
def test_nonpositive_theta_exits_1_with_one_error_line(tmp_path, capsys, theta):
    argv = ["select", "--kind", "trig", "--n", "3", "--m", "64", "--seed", "0"]
    code, stdout, err = run(capsys, *argv, "--theta", theta, "--out", str(tmp_path / "c"))
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: theta must be positive, got {float(theta)}"]
    assert "Traceback" not in err and stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_parser_defaults_are_the_library_constants():
    parser = build_parser()
    for argv, name, value in [
        (["select", "--out", "c.json"], "budget", DEFAULT_BUDGET),
        (["select-weighted", "--out", "c.json"], "budget", DEFAULT_BUDGET),
        (["select-weighted", "--out", "c.json"], "cap", COPY_CAP),
        (["sweep", "--kind", "dft", "--n-list", "2", "--m-list", "8", "--out", "s"],
         "budget", DEFAULT_BUDGET),
        (["verify", "--system", "s.csv", "--certificate", "c.json"], "tol", VERIFY_TOL),
    ]:
        assert getattr(parser.parse_args(argv), name) == value


def test_main_reuses_one_parser_that_keeps_no_state(tmp_path, capsys):
    # main() parses with one parser per process; build_parser() still
    # returns a new parser on every call
    assert build_parser() is not build_parser()
    assert cli._parser() is cli._parser()
    cert = tmp_path / "c.json"
    argv = ["select", "--kind", "trig", "--n", "3", "--m", "64", "--seed", "0",
            "--out", str(cert)]
    fresh = vars(build_parser().parse_args(argv))
    assert run(capsys, *argv)[0] == 0
    plain = cert.read_bytes()
    assert run(capsys, *argv, "--theta", "1.5")[0] == 0
    assert load_certificate(str(cert))["theta"] == 1.5
    assert run(capsys, *argv)[0] == 0
    assert cert.read_bytes() == plain
    assert load_certificate(str(cert))["theta"] != 1.5
    # a usage error part way through a subcommand's flags leaves nothing behind
    code, _, err = run(capsys, *argv, "--theta", "x", "--budget", "3")
    assert code == 1 and "invalid float value" in err
    assert run(capsys, "select", "--nope")[0] == 1
    assert run(capsys, *argv)[0] == 0
    assert cert.read_bytes() == plain
    assert vars(cli._parser().parse_args(argv)) == fresh


def test_sidecar_fingerprint_is_checked_and_verify_hashes_again(
    selected, capsys, monkeypatch
):
    system, cert, _ = selected
    calls = []
    hashed = discretize.system_fingerprint

    def counting_fingerprint(sampled):
        calls.append(sampled)
        return hashed(sampled)

    monkeypatch.setattr(discretize, "system_fingerprint", counting_fingerprint)
    # verify hashes the arrays in hand once more after load_system's check
    assert run(capsys, "verify", "--system", system, "--certificate", cert)[0] == 0
    assert len(calls) == 2 and calls[0] is calls[1]
    side = Path(system + ".json")
    meta = json.loads(side.read_text())
    digest = meta["fingerprint"]
    meta["fingerprint"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    side.write_text(json.dumps(meta))
    out = Path(cert).with_name("again.json")
    for argv in (["select", "--system", system, "--seed", "0", "--out", str(out)],
                 ["verify", "--system", system, "--certificate", cert]):
        code, stdout, err = run(capsys, *argv)
        assert code == 1 and stdout == ""
        assert err.startswith("error: ") and "fingerprint mismatch" in err
    assert not out.exists()
