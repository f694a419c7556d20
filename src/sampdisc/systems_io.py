"""Built-in sampled systems and plain-text serialization.

Systems travel as a CSV of values plus a JSON sidecar with the metadata
(points, weights, field, provenance of the generator); certificates
travel as standalone JSON.  Floats are written as their exact ``repr``,
so files round-trip bit for bit and a rerun reproduces identical bytes.
Each distinct value of an array is formatted once, by a vectorized
``repr`` (:mod:`sampdisc._reprs`), and rows of text are gathered from
those reprs in blocks, through one buffer per call.  One writer,
:func:`_json_text`, lays out both JSON files.  Beside the CSV, a binary
copy of its cells bound to the CSV bytes by their sha256 lets loading
skip the text parse; loading then hashes the CSV in blocks and never
holds its text.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .discretize import (
    DiscretizationCertificate,
    SampledSystem,
    _fmt,
    _point_rows,
    fingerprint_matches,
)
from .errors import ParseError, PreconditionError
from .frame_core import FrameBounds, _frozen, _validated_integer

SYSTEM_KINDS = ("trig", "dft", "walsh", "random_orthonormal")
SCHEMA_VERSION = "1"
# the binary copy: sha256 of the CSV bytes, then the cells as "<f8"
CACHE_SUFFIX = ".f64"
_DIGEST_SIZE = 32
# bytes of the CSV hashed per read, below glibc's default mmap threshold
_HASH_BLOCK = 1 << 16


@dataclass(frozen=True)
class SystemDescriptor:
    """Recipe for a sampled system.

    kind : one of trig, dft, walsh, random_orthonormal.
    n, m : dimensions, integers with 1 <= n <= m.
    seed : required for random_orthonormal.
    """

    kind: str
    n: int = 0
    m: int = 0
    seed: Optional[int] = None


def _dft_system(n: int, m: int) -> tuple:
    # rows exp(2*pi*i*k*j/m) for k < n on the uniform grid j/m
    j = np.arange(m)
    k = np.arange(n)[:, None]
    # exp(2j * np.pi * k * j / m), evaluated in the one array it returns
    values = 2j * np.pi * k * j
    values /= m
    return np.exp(values, out=values), j / m


def _walsh_system(n: int, m: int) -> tuple:
    if m & (m - 1) != 0:
        raise PreconditionError(f"walsh needs m to be a power of 2, got {m}")
    j = np.arange(m)
    k = np.arange(n)[:, None]
    signs = np.bitwise_count(np.bitwise_and(k, j)) & 1
    return 1.0 - 2.0 * signs.astype(np.float64), j.astype(np.float64)


def _trig_system(n: int, m: int) -> tuple:
    # 1, sqrt(2) cos kx, sqrt(2) sin kx for k <= (n-1)/2 on 2*pi*j/m
    if n % 2 != 1:
        raise PreconditionError(f"trig needs odd n, got {n}")
    x = 2.0 * np.pi * np.arange(m) / m
    rows = [np.ones(m)]
    for k in range(1, (n - 1) // 2 + 1):
        rows.append(np.sqrt(2.0) * np.cos(k * x))
        rows.append(np.sqrt(2.0) * np.sin(k * x))
    return np.stack(rows), x


def _random_orthonormal_system(n: int, m: int, seed: int, field: str) -> tuple:
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
    return np.sqrt(m) * q.conj().T, np.arange(m, dtype=np.float64)


def make_system(desc: SystemDescriptor, field: str = "real") -> SampledSystem:
    """Build the sampled system a descriptor names.

    ``n`` and ``m`` are integers >= 1 with n <= m.  The built-in
    generators produce systems orthonormal under uniform point weights;
    dft and walsh additionally have every per-point sum equal to n (flat
    concentration).  ``field``, "real" or "complex", applies only to
    random_orthonormal: dft is always complex, walsh and trig are always
    real.  random_orthonormal needs an integer seed >= 0.
    """
    if not isinstance(desc.kind, str) or desc.kind not in SYSTEM_KINDS:
        raise PreconditionError(
            f"unknown system kind {desc.kind!r}, expected one of {SYSTEM_KINDS}"
        )
    if not isinstance(field, str) or field not in ("real", "complex"):
        raise PreconditionError(f"field must be 'real' or 'complex', got {field!r}")
    n = _validated_integer(desc.n, 1, "n")
    m = _validated_integer(desc.m, 1, "m")
    if n > m:
        raise PreconditionError(f"{desc.kind} needs n <= m, got n={n}, m={m}")
    if desc.kind == "random_orthonormal":
        if desc.seed is None:
            raise PreconditionError("random_orthonormal needs a seed")
        seed = _validated_integer(desc.seed, 0, "seed")
        values, points = _random_orthonormal_system(n, m, seed, field)
    else:
        generate = {"dft": _dft_system, "walsh": _walsh_system, "trig": _trig_system}
        values, points = generate[desc.kind](n, m)
    return SampledSystem(_frozen(values), _frozen(points))


def _parse_floats(cells, path: str, row: Optional[int]) -> list:
    """float of every cell; a bool (JSON true or false) is no number.
    Only when one fails are the cells parsed again one by one, so that
    the ParseError names the bad one."""
    if not isinstance(cells, list):
        raise ParseError(
            f"expected a list of numbers, got {type(cells).__name__}", path=path, row=row
        )
    try:
        if bool in set(map(type, cells)):
            raise TypeError
        return list(map(float, cells))
    except (TypeError, ValueError, OverflowError):
        for cell in cells:
            try:
                if type(cell) is bool:
                    raise TypeError
                float(cell)
            except (TypeError, ValueError, OverflowError):
                raise ParseError(f"bad number {cell!r}", path=path, row=row) from None


def _repr_rows(cells: np.ndarray, sep: bytes, end: bytes):
    """The rows of the 2-d float64 array ``cells``, which has at least
    one column, as ASCII text: the ``repr`` of each row's cells joined
    by ``sep``, and ``end`` after each row.  The text comes in blocks of
    whole rows, about 4096 cells each, as bytearrays; joined, they are
    the text.

    Each distinct bit pattern (so -0.0 apart from 0.0) is formatted once,
    by :func:`sampdisc._reprs.repr_table`, and the rows are gathered from
    that table into one buffer that every block reuses.
    """
    # imported here: only a save compiles the kernel and builds its tables
    from ._reprs import repr_table

    bits = cells.view(np.int64).ravel()
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.empty(bits.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    keys = ordered[first]
    del ordered
    # each cell's rank among the distinct values, in the smallest
    # integer type that holds them
    index = np.empty(bits.size, dtype=np.min_scalar_type(keys.size))
    rank = np.cumsum(first, dtype=index.dtype)
    rank -= 1
    index[order] = rank
    del order, first, rank
    table = repr_table(keys.view(np.float64)).view(np.uint8).reshape(-1, 24)
    del keys
    index = index.reshape(cells.shape)
    # a block of about 4096 cells: one block per row would dominate on
    # short rows, such as the sidecar's points
    height, width = index.shape
    block = min(height, max(1, 4096 // width))
    reprs = np.empty((block, width, 24), dtype=np.uint8)
    # each cell's repr, NUL-padded to 24 bytes, then its separator (end
    # after a row's last cell), NUL-padded alike: without the NULs, that
    # is the text
    pad = max(len(sep), len(end))
    buffer = bytearray(block * width * (24 + pad))
    text = np.frombuffer(buffer, dtype=np.uint8).reshape(block, width, 24 + pad)
    text[:, :, 24 : 24 + len(sep)] = np.frombuffer(sep, dtype=np.uint8)
    text[:, -1, 24:] = np.frombuffer(end.ljust(pad, b"\0"), dtype=np.uint8)
    for start in range(0, height, block):
        rows = min(block, height - start)
        np.take(table, index[start : start + rows], axis=0, out=reprs[:rows], mode="clip")
        text[:rows, :, :24] = reprs[:rows]
        text[rows:] = 0  # only the last block has fewer rows
        yield buffer.translate(None, b"\0")


def _json_floats(cells: np.ndarray) -> str:
    """The 1-d float64 array ``cells`` as a JSON list of the quoted
    ``repr`` of its cells, or the 2-d one as a list of such lists, laid
    out as ``json.dump(..., indent=2)`` lays out a top-level key's value.
    Every row's text ends in the separator that closes its list and
    opens the next, and the last row's is cut.  A float's repr holds no
    character JSON escapes."""
    if not len(cells):
        return "[]"
    pad = ["\n" + "  " * k for k in (1, 2, 3)]
    nested = cells.ndim - 1  # 1 when each row is a list of its own
    rows = cells if nested else cells[None, :]
    head, tail = f'[{pad[nested + 1]}"', f'"{pad[nested]}]'
    if not rows.shape[1]:  # a row with no cells is written "[]"
        head, tail = "[", "]"
    end = f"{tail},{pad[1]}{head}".encode()
    if rows.shape[1]:
        texts = _repr_rows(rows, f'",{pad[nested + 1]}"'.encode(), end)
    else:
        texts = [end] * len(rows)
    body = b"".join(texts)[: -len(end)].decode()
    return f"[{pad[1]}{head}{body}{tail}{pad[0]}]" if nested else head + body + tail


def _exact_ints(value) -> bool:
    """Whether ``value`` is a list or tuple of Python ints, none of them a
    bool or a subclass: ``str`` of each is the number JSON writes."""
    return isinstance(value, (list, tuple)) and all(type(v) is int for v in value)


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus "\n", but with each
    float64 array value written by :func:`_json_floats` and each list or
    tuple of exact ints by one join.  Any other value is dumped alone and
    indented a level: JSON escapes each newline in a string."""
    items = []
    for key, value in sorted(doc.items()):
        if isinstance(value, np.ndarray) and value.dtype == np.float64:
            text = _json_floats(value)
        elif _exact_ints(value) and value:  # json.dumps writes [] on one line
            text = "[\n    " + ",\n    ".join(map(str, value)) + "\n  ]"
        else:
            text = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        items.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(items) + "\n}\n"


def _system_files(path: str) -> tuple:
    """The files of a system saved at ``path``: CSV, sidecar, binary copy."""
    return (path, path + ".json", path + CACHE_SUFFIX)


def save_system(system: SampledSystem, path: str) -> None:
    """Write values as CSV and metadata as a JSON sidecar (path + ".json").

    Complex values occupy two adjacent columns per point (re, im).
    Floats are exact decimal strings, so loading reproduces the arrays
    bit for bit; each distinct value is formatted once, by a vectorized
    ``repr`` that writes the same bytes, and the text is streamed in
    blocks of rows, never held whole.  ``path + ".f64"`` gets the sha256
    of the CSV bytes followed by the same cells as row-major little-endian
    float64, written from the array's own buffer.
    """
    # csv.writer's rows: no cell needs quoting, and "\r\n" ends each row
    flat = np.ascontiguousarray(system.values).view(np.float64)
    _, side, cache = _system_files(path)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in _repr_rows(flat, b",", b"\r\n"):
            digest.update(text)
            fh.write(text)
    with open(cache, "wb") as fh:
        fh.write(digest.digest())
        fh.write(flat.astype("<f8", copy=False))
    meta = {
        "field": system.field,
        "fingerprint": system.fingerprint(),
        "m": system.m,
        "n": system.n,
        "point_weights": system.point_weights,
        "points": _point_rows(system.points),
        "schema_version": SCHEMA_VERSION,
    }
    with open(side, "w") as fh:
        fh.write(_json_text(meta))


def _cached_values(path: str, csv_file, n: int, width: int):
    """The (n, width) cells stored in ``path``, or None unless the file
    holds exactly n * width of them after a digest that is the sha256
    of the bytes of the open binary file ``csv_file``; that file is read
    to its end only when the sizes agree."""
    if n < 1 or width < 1:
        return None
    size = _DIGEST_SIZE + 8 * n * width
    try:
        with open(path, "rb") as fh:
            data = fh.read(size + 1)
    except OSError:
        return None
    if len(data) != size or data[:_DIGEST_SIZE] != _file_sha256(csv_file):
        return None
    cells = np.frombuffer(data, "<f8", offset=_DIGEST_SIZE)
    return cells.astype(np.float64, copy=False).reshape(n, width)


def _file_sha256(fh) -> bytes:
    """The sha256 of the rest of the open binary file ``fh``, read in
    blocks of _HASH_BLOCK bytes through one buffer."""
    digest = hashlib.sha256()
    buffer = bytearray(_HASH_BLOCK)
    view = memoryview(buffer)
    while size := fh.readinto(buffer):
        digest.update(view[:size])
    return digest.digest()


def _parsed_values(csv_bytes: bytes, path: str, n: int, width: int) -> np.ndarray:
    """The (n, width) cells of the CSV text ``csv_bytes``."""
    rows = []
    text = io.TextIOWrapper(io.BytesIO(csv_bytes), encoding="utf-8", newline="")
    try:
        for i, row in enumerate(csv.reader(text)):
            if len(row) != width:
                raise ParseError(
                    f"expected {width} columns, found {len(row)}", path=path, row=i
                )
            rows.append(_parse_floats(row, path, i))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", path=path) from None
    except csv.Error as exc:
        raise ParseError(f"invalid CSV: {exc}", path=path) from None
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, found {len(rows)}", path=path)
    return _frozen(np.asarray(rows, dtype=np.float64))


def _parse_points(raw, side: str) -> np.ndarray:
    """Sidecar points as (m,) for one coordinate each, else (m, d)."""
    if not isinstance(raw, list):
        raise ParseError(f"points must be a list, got {type(raw).__name__}", path=side)
    rows = [p if isinstance(p, list) else [p] for p in raw]
    # a bad number is reported ahead of a ragged list
    cells = _parse_floats(list(chain.from_iterable(rows)), side, None)
    if len(set(map(len, rows))) != 1:
        raise ParseError("points need the same number of coordinates", path=side)
    points = np.array(cells).reshape(len(rows), len(rows[0]))
    return points[:, 0] if points.shape[1] == 1 else points


def _read_object(path: str, name: str, keys: tuple) -> dict:
    """The JSON object in ``path``, which must hold every key in
    ``keys``; ``name`` ("metadata" or "certificate") names it in errors."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        if name == "metadata" and isinstance(exc, FileNotFoundError):
            raise ParseError("missing metadata sidecar", path=path) from None
        raise ParseError(f"cannot read {name}: {exc.strerror}", path=path) from None
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ParseError(f"invalid JSON: {exc}", path=path) from None
    if not isinstance(doc, dict):
        raise ParseError(f"{name} is not a JSON object", path=path)
    for key in keys:
        if key not in doc:
            raise ParseError(f"{name} lacks {key!r}", path=path)
    return doc


def load_system(path: str) -> SampledSystem:
    """Inverse of :func:`save_system`; checks shape and fingerprint.

    The values come from ``path + ".f64"`` when the sidecar has a
    fingerprint to check them against and that file is the binary copy
    of exactly these CSV bytes, which are then hashed in blocks and never
    held whole; otherwise the CSV text is read and parsed.  Loading never
    writes a file.
    """
    _, side, cache = _system_files(path)
    meta = _read_object(side, "metadata", ("field", "n", "m", "points", "point_weights"))
    n, m, field = meta["n"], meta["m"], meta["field"]
    # 3.0 reads as 3; bools, strings, fractions, NaN and infinities do not
    if not all(type(v) is int or type(v) is float and v.is_integer() for v in (n, m)):
        raise ParseError("n and m must be integers", path=side)
    n, m = int(n), int(m)
    if field not in ("real", "complex"):
        raise ParseError(f"field must be 'real' or 'complex', got {field!r}", path=side)
    width = 2 * m if field == "complex" else m
    stored = meta.get("fingerprint")

    values = None
    try:
        with open(path, "rb") as fh:
            if stored is not None:
                values = _cached_values(cache, fh, n, width)
            if values is None:
                fh.seek(0)
                csv_bytes = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read values: {exc.strerror}", path=path) from None
    if values is None:
        values = _parsed_values(csv_bytes, path, n, width)
    if field == "complex":
        # reinterpret (re, im) pairs; arithmetic would turn -0.0 into 0.0
        values = values.view(np.complex128)

    points = _frozen(_parse_points(meta["points"], side))
    weights = _frozen(np.array(_parse_floats(meta["point_weights"], side, None)))
    system = SampledSystem(values, points, weights)
    if stored is not None and not fingerprint_matches(system, stored):
        raise ParseError("fingerprint mismatch: file contents were altered", path=path)
    return system


def _encoded(value):
    """``value`` with every float, also in dicts, lists and tuples, as its
    :func:`_fmt` string; tuples become lists, and all else stays as it is."""
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, dict):
        return {key: _encoded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encoded(item) for item in value]
    return value


def save_certificate(
    cert: DiscretizationCertificate, path: str, settings: Optional[dict] = None
) -> None:
    """Write a certificate as deterministic JSON (sorted keys, no
    timestamps); identical inputs produce identical bytes."""
    # only float64 points and all-float weights go in as arrays; ints stay bare
    points, weights = _point_rows(cert.points), cert.weights
    if points.dtype != np.float64 or points.ndim != 2:
        points = points.tolist()
    if isinstance(weights, (list, tuple)) and all(isinstance(w, float) for w in weights):
        weights = np.array(weights, dtype=np.float64)
    doc = _encoded(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": cert.kind,
            "input_fingerprint": cert.input_fingerprint,
            "m": cert.m,
            "points": points,
            "constants": cert.constants._asdict(),
            "theta": cert.theta,
            "weights": weights,
            "pipeline_log": cert.pipeline_log,
        }
    )
    # exact int indices skip the encoding, one call per item: _json_text
    # writes them with one join
    indices = cert.point_indices
    doc["point_indices"] = indices if _exact_ints(indices) else _encoded(indices)
    # settings stay unencoded: a threshold such as 1e-08 is a JSON number
    doc["settings"] = settings or {}
    with open(path, "w") as fh:
        fh.write(_json_text(doc))


def load_certificate(path: str) -> dict:
    """Certificate document with numeric fields decoded.

    Returns a plain dict (the JSON document) with ``constants`` turned
    back into :class:`FrameBounds` under the key "constants_decoded",
    ``points``, when present, as (k, d) float64 rows under "points_decoded",
    weights decoded to floats, and indices checked to be integers.
    Verification works from this document plus the system file.
    """
    doc = _read_object(
        path, "certificate", ("kind", "point_indices", "constants", "input_fingerprint")
    )
    consts = doc["constants"]
    if not isinstance(consts, dict) or "lower" not in consts or "upper" not in consts:
        raise ParseError("constants need lower and upper", path=path)
    bounds = _parse_floats([consts["lower"], consts["upper"]], path, None)
    doc["constants_decoded"] = FrameBounds(*bounds)
    if "points" in doc:
        doc["points_decoded"] = _point_rows(_parse_points(doc["points"], path))
    indices = doc["point_indices"]
    # exact ints only: int() would turn 1.5 into 1 and true into 1
    if not isinstance(indices, list) or any(type(i) is not int for i in indices):
        raise ParseError("point_indices must be a list of integers", path=path)
    if doc.get("weights") is not None:
        doc["weights"] = _parse_floats(doc["weights"], path, None)
    if doc.get("theta") is not None:
        doc["theta"] = _parse_floats([doc["theta"]], path, None)[0]
    return doc
