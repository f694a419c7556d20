"""Built-in sampled systems and plain-text serialization.

Systems travel as a CSV of values plus a JSON sidecar with the
metadata (points, weights, field, provenance of the generator).
Certificates travel as standalone JSON.  All floating point numbers
are written as exact decimal representations (``repr``), so files
round-trip bit for bit and rerunning a command reproduces identical
bytes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discretize import (
    DiscretizationCertificate,
    SampledSystem,
    _fmt,
    fingerprint_matches,
)
from .errors import ParseError, PreconditionError
from .frame_core import FrameBounds

SYSTEM_KINDS = ("trig", "dft", "walsh", "random_orthonormal", "file")
SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class SystemDescriptor:
    """Recipe for a sampled system.

    kind : one of trig, dft, walsh, random_orthonormal, file.
    n, m : dimensions (ignored for kind="file").
    seed : required for random_orthonormal.
    path : required for kind="file".
    """

    kind: str
    n: int = 0
    m: int = 0
    seed: Optional[int] = None
    path: Optional[str] = None


def _dft_system(n: int, m: int) -> SampledSystem:
    # rows exp(2*pi*i*k*j/m) for k < n on the uniform grid j/m
    if n > m:
        raise PreconditionError(f"dft needs n <= m, got n={n}, m={m}")
    j = np.arange(m)
    k = np.arange(n)[:, None]
    values = np.exp(2j * np.pi * k * j / m)
    return SampledSystem(values, j / m)


def _walsh_system(n: int, m: int) -> SampledSystem:
    if m & (m - 1) != 0:
        raise PreconditionError(f"walsh needs m to be a power of 2, got {m}")
    if n > m:
        raise PreconditionError(f"walsh needs n <= m, got n={n}, m={m}")
    j = np.arange(m)
    k = np.arange(n)[:, None]
    signs = np.bitwise_count(np.bitwise_and(k, j)) & 1
    values = 1.0 - 2.0 * signs.astype(np.float64)
    return SampledSystem(values, j.astype(np.float64))


def _trig_system(n: int, m: int) -> SampledSystem:
    # 1, sqrt(2) cos kx, sqrt(2) sin kx for k <= (n-1)/2 on 2*pi*j/m
    if n % 2 != 1:
        raise PreconditionError(f"trig needs odd n, got {n}")
    if m < n:
        raise PreconditionError(f"trig needs m >= n, got n={n}, m={m}")
    x = 2.0 * np.pi * np.arange(m) / m
    rows = [np.ones(m)]
    for k in range(1, (n - 1) // 2 + 1):
        rows.append(np.sqrt(2.0) * np.cos(k * x))
        rows.append(np.sqrt(2.0) * np.sin(k * x))
    return SampledSystem(np.stack(rows), x)


def _random_orthonormal_system(n: int, m: int, seed: int, field: str) -> SampledSystem:
    if n > m:
        raise PreconditionError(f"random system needs n <= m, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    if field == "complex":
        g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    else:
        g = rng.standard_normal((m, n))
    q, r = np.linalg.qr(g)
    # pin phases so the factorization is unique and runs reproduce
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    q = q * (diag / np.abs(diag)).conj()
    values = np.sqrt(m) * q.conj().T
    return SampledSystem(values, np.arange(m, dtype=np.float64))


def make_system(desc: SystemDescriptor, field: str = "real") -> SampledSystem:
    """Build the sampled system a descriptor names.

    The built-in generators produce systems orthonormal under uniform
    point weights; dft and walsh additionally have every per-point sum
    equal to n (flat concentration).
    """
    if desc.kind not in SYSTEM_KINDS:
        raise PreconditionError(
            f"unknown system kind {desc.kind!r}, expected one of {SYSTEM_KINDS}"
        )
    if desc.kind == "file":
        if not desc.path:
            raise PreconditionError("kind='file' needs a path")
        return load_system(desc.path)
    if desc.n < 1 or desc.m < 1:
        raise PreconditionError(f"need n, m >= 1, got n={desc.n}, m={desc.m}")
    if desc.kind == "dft":
        return _dft_system(desc.n, desc.m)
    if desc.kind == "walsh":
        return _walsh_system(desc.n, desc.m)
    if desc.kind == "trig":
        return _trig_system(desc.n, desc.m)
    if desc.seed is None:
        raise PreconditionError("random_orthonormal needs a seed")
    return _random_orthonormal_system(desc.n, desc.m, desc.seed, field)


def _parse_float(text: str, path: str, row: Optional[int]) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", path=path, row=row) from None


def _parse_floats(cells, path: str, row: Optional[int]) -> list:
    """float of every cell.  Only when one fails are the cells parsed
    again one by one, so that the ParseError names the bad one."""
    try:
        return list(map(float, cells))
    except ValueError:
        return [_parse_float(cell, path, row) for cell in cells]


def save_system(system: SampledSystem, path: str) -> None:
    """Write values as CSV and metadata as a JSON sidecar (path + ".json").

    Complex values occupy two adjacent columns per point (re, im).
    Floats are exact decimal strings, so loading reproduces the arrays
    bit for bit.
    """
    # the rows csv.writer would write: no cell needs quoting, "\r\n" ends
    # each row; streamed so the text is never held whole
    flat = np.ascontiguousarray(system.values).view(np.float64)
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in flat)
    pts = np.atleast_2d(system.points.T).T
    meta = {
        "schema_version": SCHEMA_VERSION,
        "field": system.field,
        "n": system.n,
        "m": system.m,
        "points": [list(map(repr, p)) for p in pts.tolist()],
        "point_weights": list(map(repr, system.point_weights.tolist())),
        "fingerprint": system.fingerprint(),
    }
    with open(path + ".json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_system(path: str) -> SampledSystem:
    """Inverse of :func:`save_system`; checks shape and fingerprint."""
    side = path + ".json"
    if not os.path.exists(side):
        raise ParseError("missing metadata sidecar", path=side)
    try:
        with open(side) as fh:
            meta = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=side) from None
    for key in ("field", "n", "m", "points", "point_weights"):
        if key not in meta:
            raise ParseError(f"metadata lacks {key!r}", path=side)
    n, m = int(meta["n"]), int(meta["m"])
    complex_values = meta["field"] == "complex"
    width = 2 * m if complex_values else m

    rows = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if len(row) != width:
                raise ParseError(
                    f"expected {width} columns, found {len(row)}", path=path, row=i
                )
            rows.append(_parse_floats(row, path, i))
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, found {len(rows)}", path=path)
    values = np.asarray(rows, dtype=np.float64)
    if complex_values:
        # reinterpret (re, im) pairs; arithmetic would turn -0.0 into 0.0
        values = values.view(np.complex128)

    points = np.asarray(
        [
            _parse_floats(p if isinstance(p, list) else [p], side, None)
            for p in meta["points"]
        ],
        dtype=np.float64,
    )
    if points.shape[1] == 1:
        points = points[:, 0]
    weights = np.asarray(_parse_floats(meta["point_weights"], side, None))
    system = SampledSystem(values, points, weights)
    stored = meta.get("fingerprint")
    if stored is not None and not fingerprint_matches(system, stored):
        raise ParseError("fingerprint mismatch: file contents were altered", path=path)
    return system


def _encode_certificate(cert: DiscretizationCertificate, settings: dict) -> dict:
    points = np.atleast_2d(cert.points.T).T
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": cert.kind,
        "input_fingerprint": cert.input_fingerprint,
        "settings": settings,
        "m": cert.m,
        "point_indices": list(cert.point_indices),
        "points": [[_fmt(c) for c in np.atleast_1d(p)] for p in points],
        "constants": {
            "lower": _fmt(cert.constants.lower),
            "upper": _fmt(cert.constants.upper),
        },
        "theta": None if cert.theta is None else _fmt(cert.theta),
        "weights": None
        if cert.weights is None
        else [_fmt(w) for w in cert.weights],
        "pipeline_log": _encode_log(cert.pipeline_log),
    }
    return doc


def _encode_log(log: tuple) -> list:
    out = []
    for entry in log:
        enc = {}
        for key, val in entry.items():
            if isinstance(val, bool):
                enc[key] = val
            elif isinstance(val, float):
                enc[key] = _fmt(val)
            elif isinstance(val, (list, tuple)):
                enc[key] = [
                    [_fmt(x) for x in item] if isinstance(item, (list, tuple)) else item
                    for item in val
                ]
            else:
                enc[key] = val
        out.append(enc)
    return out


def save_certificate(
    cert: DiscretizationCertificate, path: str, settings: Optional[dict] = None
) -> None:
    """Write a certificate as deterministic JSON (sorted keys, no
    timestamps); identical inputs produce identical bytes."""
    doc = _encode_certificate(cert, settings or {})
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_certificate(path: str) -> dict:
    """Certificate document with numeric fields decoded.

    Returns a plain dict (the JSON document) with ``constants`` turned
    back into :class:`FrameBounds` under the key "constants_decoded",
    weights decoded to floats, and indices to ints.  Verification works
    from this document plus the system file.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from None
    for key in ("kind", "point_indices", "constants", "input_fingerprint"):
        if key not in doc:
            raise ParseError(f"certificate lacks {key!r}", path=path)
    consts = doc["constants"]
    if "lower" not in consts or "upper" not in consts:
        raise ParseError("constants need lower and upper", path=path)
    doc["constants_decoded"] = FrameBounds(
        _parse_float(consts["lower"], path, None),
        _parse_float(consts["upper"], path, None),
    )
    doc["point_indices"] = [int(i) for i in doc["point_indices"]]
    if doc.get("weights") is not None:
        doc["weights"] = _parse_floats(doc["weights"], path, None)
    if doc.get("theta") is not None:
        doc["theta"] = _parse_float(doc["theta"], path, None)
    return doc
