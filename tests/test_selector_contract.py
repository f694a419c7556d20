"""The contract of every point selector, tested once for each.

A row of ``SELECTORS`` names a selector's library call, its command and
its own stated bound.  Each row runs on every built-in kind and field
and on hypothesis-drawn tight frames, and meets five properties:

1. its certificate passes ``sampdisc verify`` from files on disk, with
   the stored constants equal to the recomputed ones, and a mutated
   index or weight makes ``verify`` exit 2;
2. the same argv writes the same bytes twice;
3. indices are distinct Python ints and weights positive Python floats,
   in the library's certificate and in the file;
4. a non-orthonormal input raises PreconditionError in the library,
   also from the selector run on its frame, and the command without
   ``--out-system`` exits 1 and writes no certificate; with it, the
   certificate verifies against the re-based system and not against the
   input;
5. the selector's stated bound holds.

A new selector is one more row.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampdisc import (
    DuplicationOverflowError,
    OracleConfig,
    PreconditionError,
    SampledSystem,
    SystemDescriptor,
    build_frame_from_samples,
    check_cardinality_sandwich,
    discretize_equal_weight,
    discretize_weighted,
    halving_select,
    load_certificate,
    make_system,
    save_system,
    weighted_select,
)
from sampdisc.cli import main

from helpers import random_tight_frame

SEED = 3
# low enough that no drawn frame duplicates for long, and some exceed it
CAP = 20_000


def _halving_bound(system, cert):
    """The cardinality sandwich, |J| <= m / 2^rounds and lower >= 25 delta after rounds."""
    frame = build_frame_from_samples(system)
    hcert = halving_select(frame, cert.theta, OracleConfig(seed=SEED))
    assert hcert.J == cert.point_indices
    assert check_cardinality_sandwich(hcert, frame)
    rounds = 0 if hcert.fast_path else hcert.schedule.rounds
    assert len(hcert.J) <= frame.m // 2**rounds
    assert hcert.fast_path or hcert.actual.lower >= 25 * hcert.delta - 1e-10


def _weighted_bound(system, cert):
    """At most ``support_budget`` = m' / 2^rounds selected copies, and a
    certified lower constant of at least 25 after any rounds."""
    frame = build_frame_from_samples(system)
    wcert = weighted_select(frame, OracleConfig(seed=SEED), cap=CAP)
    halving = wcert.halving
    assert wcert.support == cert.point_indices
    rounds = 0 if halving.fast_path else halving.schedule.rounds
    budget = wcert.duplication.m_prime // 2**rounds
    assert len(halving.J) <= wcert.support_budget == budget
    assert halving.fast_path or cert.constants.lower >= 25 - 1e-8


@dataclass(frozen=True)
class Selector:
    kind: str  # the certificate kind
    select: Callable  # library call: (system, OracleConfig) -> certificate
    argv: tuple  # command and options, less --system, --seed and --out
    bound: Callable  # (system, certificate): asserts the stated bound on its frame
    refusals: tuple = ()  # errors it may raise on an orthonormal input


SELECTORS = [
    Selector("equal_weight", discretize_equal_weight, ("select",), _halving_bound),
    Selector(
        "weighted", partial(discretize_weighted, cap=CAP),
        ("select-weighted", "--cap", str(CAP)), _weighted_bound, (DuplicationOverflowError,),
    ),
]


def _cli(*argv):
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _select(row, tmp, system="system.csv", cert="cert.json", *options):
    system, cert = f"{tmp}/{system}", f"{tmp}/{cert}"
    return _cli(*row.argv, "--system", system, "--seed", str(SEED), "--out", cert, *options)


def _verify(tmp, system="system.csv", cert="cert.json"):
    return _cli("verify", "--system", f"{tmp}/{system}", "--certificate", f"{tmp}/{cert}")[:2]


def _verifies_from_files(system, cert, tmp):
    """Property 1."""
    code, out = _verify(tmp)
    stored, recomputed, passed = out.splitlines()
    assert code == 0 and passed == "verification passed"
    assert stored.split("stored:")[1].strip() == recomputed.split("recomputed:")[1].strip()
    doc = json.loads(Path(tmp, "cert.json").read_text())
    indices, weights = doc["point_indices"], doc["weights"]
    mutants = [
        dict(doc, point_indices=indices[:-1], m=len(indices) - 1),
        dict(doc, point_indices=indices[:-1] + [system.m]),
        dict(doc, point_indices=indices[:-1] + [2**70]),
    ]
    if len(indices) > 1:
        mutants.append(dict(doc, point_indices=indices[:-1] + indices[:1]))
    if weights is not None:
        # adding lambda with lambda |u(x)|^2 = 2C to one weight lifts the
        # upper constant to at least 2C
        u = system.values[:, indices[0]]
        bump = 2.0 * cert.constants.upper / float(np.vdot(u, u).real)
        weights = [repr(float(weights[0]) + bump)] + weights[1:]
        mutants.append(dict(doc, weights=weights))
    for doc in mutants:
        Path(tmp, "mutant.json").write_text(json.dumps(doc))
        assert _verify(tmp, cert="mutant.json")[0] == 2


def _writes_the_same_bytes(row, tmp):
    """Property 2."""
    first = Path(tmp, "cert.json").read_bytes()
    assert _select(row, tmp)[0] == 0
    assert Path(tmp, "cert.json").read_bytes() == first


def _plain_distinct_scalars(row, cert, tmp):
    """Property 3."""
    indices, weights = cert.point_indices, cert.weights
    assert type(indices) is tuple and {type(i) for i in indices} == {int}
    assert len(set(indices)) == len(indices) == cert.m > 0
    if weights is not None:
        assert type(weights) is tuple and len(weights) == len(indices)
        assert all(type(w) is float and w > 0 for w in weights)
    doc = load_certificate(f"{tmp}/cert.json")
    assert doc["kind"] == cert.kind == row.kind
    assert doc["point_indices"] == list(indices)
    assert doc["weights"] == (None if weights is None else list(weights))


def _refuses_non_orthonormal_input(row, system, cert, tmp):
    """Property 4."""
    skew = SampledSystem(system.values * 1.1, system.points)  # residual 0.21
    with pytest.raises(PreconditionError, match="not orthonormal"):
        row.select(skew, OracleConfig(seed=SEED))
    with pytest.raises(PreconditionError, match="not tight"):
        row.bound(skew, cert)
    save_system(skew, f"{tmp}/skew.csv")
    code, _, err = _select(row, tmp, "skew.csv", "skew.json")
    assert code == 1 and "pass --out-system" in err
    assert not Path(tmp, "skew.json").exists()
    rebased = f"{tmp}/rebased.csv"
    code, out, _ = _select(row, tmp, "skew.csv", "skew.json", "--out-system", rebased)
    assert code == 0 and f"re-based system written to {rebased}" in out
    assert _verify(tmp, "rebased.csv", "skew.json")[0] == 0
    assert _verify(tmp, "skew.csv", "skew.json")[0] == 2


def _meets_the_contract(row, system, tmp):
    """Assert every property of ``row`` on ``system``, saved in ``tmp``;
    False when the selector refused the system, as its row allows."""
    try:
        cert = row.select(system, OracleConfig(seed=SEED))
    except row.refusals as exc:
        assert _select(row, tmp) == (1, "", f"error: {exc}\n")
        assert not Path(tmp, "cert.json").exists()
        return False
    c, C = cert.constants
    printed = f"kind={cert.kind} selected={cert.m} c={c!r} C={C!r} ratio={C / c!r}"
    assert _select(row, tmp)[:2] == (0, f"{printed}\nwrote {tmp}/cert.json\n")
    # the command read system.csv and wrote cert.json in tmp
    _verifies_from_files(system, cert, tmp)
    _writes_the_same_bytes(row, tmp)
    _plain_distinct_scalars(row, cert, tmp)
    _refuses_non_orthonormal_input(row, system, cert, tmp)
    row.bound(system, cert)  # property 5
    return True


ROWS = pytest.mark.parametrize("row", SELECTORS, ids=lambda row: row.kind)
# one size each; between them each selector takes its fast path and runs rounds
BUILT_IN = [  # kind, n, m, gen seed, field
    ("trig", 3, 512, None, "real"),
    ("dft", 2, 64, None, "complex"),
    ("walsh", 2, 512, None, "real"),
    ("random_orthonormal", 3, 64, 1, "real"),
    ("random_orthonormal", 2, 256, 3, "complex"),
]


@pytest.mark.parametrize("kind, n, m, seed, field", BUILT_IN)
@ROWS
def test_built_in_systems_meet_the_contract(row, kind, n, m, seed, field, tmp_path):
    argv = ["gen", "--kind", kind, "--n", str(n), "--m", str(m), "--field", field]
    argv += ["--out", str(tmp_path / "system.csv")]
    code, out, _ = _cli(*argv, *(() if seed is None else ("--gen-seed", str(seed))))
    assert code == 0 and out.startswith(f"wrote {tmp_path}/system.csv (n={n} m={m} field={field} ")
    system = make_system(SystemDescriptor(kind, n=n, m=m, seed=seed), field=field)
    assert _meets_the_contract(row, system, str(tmp_path))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 3),
    m=st.sampled_from((4, 8, 32, 128)),
    field=st.sampled_from(("real", "complex")),
    seed=st.integers(0, 2**16),
)
@ROWS
def test_tight_frames_meet_the_contract(row, n, m, field, seed):
    frame = random_tight_frame(np.random.default_rng(seed), n, m, field)
    system = SampledSystem(frame.vectors * np.sqrt(m), np.arange(m))
    with tempfile.TemporaryDirectory() as tmp:
        save_system(system, f"{tmp}/system.csv")
        _meets_the_contract(row, system, tmp)
