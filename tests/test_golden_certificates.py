"""Golden certificate bytes.

Pins the sha256 of the ``save_certificate`` output for one weighted and
one equal-weight selection.  Refactors of the selection pipelines must
keep these bytes; a change here means selections, weights or measured
constants moved.  The digests were recorded with numpy 2.4 on x86-64
OpenBLAS; another BLAS may round the eigensolves differently.
"""

import hashlib

import pytest

from sampdisc import (
    OracleConfig,
    SystemDescriptor,
    discretize_equal_weight,
    discretize_weighted,
    make_system,
    save_certificate,
)

CASES = {
    "weighted-random_orthonormal-4x1024": (
        lambda: discretize_weighted(
            make_system(SystemDescriptor("random_orthonormal", n=4, m=1024, seed=11)),
            OracleConfig(seed=3),
        ),
        "ecd7481d63dd14a9b6f42eb0424f35a201211b925c36cb9fe77d6183c9b6b8b4",
    ),
    "equal_weight-trig-5x2048": (
        lambda: discretize_equal_weight(
            make_system(SystemDescriptor("trig", n=5, m=2048)),
            OracleConfig(seed=3),
        ),
        "4dd6d2d4788caa712e2eba1fea24628675e80a0217704f8c3b8b12a9fb3a1885",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_bytes_are_pinned(tmp_path, name):
    build, expected = CASES[name]
    cert = build()
    assert cert.pipeline_log[-1]["fast_path"] is False  # halving rounds ran
    path = tmp_path / "cert.json"
    save_certificate(cert, str(path), settings={"seed": 3})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
