"""Command line interface.

Subcommands:

  gen              write a built-in system to a CSV file (plus sidecar)
  nikolskii        print the concentration constant of a system
  select           equal-weight point selection, certificate to JSON
  select-weighted  weighted point selection, certificate to JSON
  verify           recompute a certificate's constants from scratch
  sweep            run select over a grid of sizes, CSV summary

Exit codes: 0 success, 1 usage or runtime error, 2 verification failed.
All outputs are deterministic: same command, same bytes.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

from .discretize import (
    _fmt,
    condition_e_constant,
    discretize_equal_weight,
    discretize_weighted,
    reorthonormalize,
)
from .errors import DiscretizationError
from .frame_core import TIGHTNESS_TOL
from .partition_oracle import DEFAULT_BUDGET, OracleConfig
from .systems_io import (
    SYSTEM_KINDS,
    SystemDescriptor,
    _system_files,
    load_certificate,
    load_system,
    make_system,
    save_certificate,
    save_system,
)
from .verify import VERIFY_TOL, verify_certificate
from .weighted_sparsify import COPY_CAP


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_FIELD_HELP = (
    "field of random_orthonormal values (default real); dft is always "
    "complex, walsh and trig always real"
)


def _field(args) -> str:
    """``--field``, which has no default so that ``--system`` can refuse it."""
    return args.field or "real"


def _add_source_args(sub, needs_out=False):
    src = sub.add_argument_group("system source")
    src.add_argument("--system", help="load a system from this CSV file")
    src.add_argument(
        "--kind",
        choices=SYSTEM_KINDS,
        help="generate a built-in system instead of loading one",
    )
    src.add_argument("--n", type=int, help="number of functions")
    src.add_argument("--m", type=int, help="number of points")
    src.add_argument("--field", choices=("real", "complex"), help=_FIELD_HELP)
    src.add_argument("--gen-seed", type=int, help="seed for random_orthonormal")
    if needs_out:
        sub.add_argument("--out", required=True, help="output path")


def _add_search_args(sub):
    sub.add_argument("--seed", type=int, help="partition search seed (required)")
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)


def _add_rebase_args(sub):
    sub.add_argument(
        "--out-system",
        help="where to save the re-orthonormalized system if re-basing is needed",
    )


def _rebased(system, out_system):
    """The system a certificate will refer to.

    Both selection pipelines refuse an orthonormality residual above
    ``TIGHTNESS_TOL``, so such a system is re-orthonormalized and
    saved to ``out_system``, and the certificate verifies against a file
    on disk; without ``out_system`` that is a usage error.
    """
    resid = system.orthonormality_residual()
    if resid > TIGHTNESS_TOL:
        if not out_system:
            raise UsageError(
                f"orthonormality residual {resid:.3e} exceeds {TIGHTNESS_TOL}; "
                "pass --out-system to save the re-based system the certificate "
                "will refer to"
            )
        system = reorthonormalize(system)
        save_system(system, out_system)
        print(f"re-based system written to {out_system} (rank {system.n})")
    return system


def _check_destinations(args) -> None:
    """Fail before any work when ``--out`` or ``--out-system`` has no
    directory to go in, when a file the command writes is a directory,
    or when ``--out`` or ``--out-system`` names a file that the command
    reads or its other output writes: no command fails halfway or
    clobbers an input."""

    def files(path):
        return {os.path.realpath(p) for p in _system_files(path)} if path else set()

    out, out_system = getattr(args, "out", None), getattr(args, "out_system", None)
    for path in filter(None, (out, out_system)):
        parent = os.path.dirname(path) or "."
        if not os.path.exists(parent):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if not os.path.isdir(parent):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    # gen writes a system at --out; the other commands write one file there
    writes = _system_files(out) if args.command == "gen" else (out,)
    writes += _system_files(out_system) if out_system else ()
    for path in filter(None, writes):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    reads = files(getattr(args, "system", None))
    if files(out_system) & reads:
        raise UsageError(f"--out-system {out_system} would overwrite a --system file")
    if out and os.path.realpath(out) in reads | files(out_system):
        raise UsageError(f"--out {out} would overwrite a --system or --out-system file")


def _oracle(args) -> OracleConfig:
    if args.seed is None:
        raise UsageError("--seed is required")
    return OracleConfig(budget=args.budget, seed=args.seed)


def _resolve_system(args):
    if args.system:
        given = [f"--{f}" for f in ("kind", "n", "m", "field", "gen-seed")
                 if getattr(args, f.replace("-", "_")) is not None]
        if given:
            raise UsageError(f"--system excludes {', '.join(given)}")
        return load_system(args.system)
    if not args.kind:
        raise UsageError("pass --system FILE or --kind with --n and --m")
    if args.n is None or args.m is None:
        raise UsageError(f"--kind {args.kind} needs --n and --m")
    desc = SystemDescriptor(
        kind=args.kind, n=args.n, m=args.m, seed=args.gen_seed
    )
    return make_system(desc, field=_field(args))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sampdisc",
        description="Two-sided discretization of L2 norms by point selection.",
    )
    subs = parser.add_subparsers(dest="command")

    gen = subs.add_parser("gen", help="write a built-in system to disk")
    _add_source_args(gen, needs_out=True)

    nik = subs.add_parser("nikolskii", help="concentration constant of a system")
    _add_source_args(nik)

    sel = subs.add_parser("select", help="equal-weight point selection")
    _add_source_args(sel, needs_out=True)
    _add_search_args(sel)
    sel.add_argument(
        "--theta",
        type=float,
        help="norm level; defaults to the measured concentration constant",
    )
    _add_rebase_args(sel)

    selw = subs.add_parser("select-weighted", help="weighted point selection")
    _add_source_args(selw, needs_out=True)
    _add_search_args(selw)
    _add_rebase_args(selw)
    selw.add_argument("--cap", type=int, default=COPY_CAP)

    ver = subs.add_parser("verify", help="recompute certificate constants")
    ver.add_argument("--system", required=True)
    ver.add_argument("--certificate", required=True)
    ver.add_argument("--tol", type=float, default=VERIFY_TOL)

    swp = subs.add_parser("sweep", help="select over a grid of sizes")
    swp.add_argument("--kind", required=True, choices=SYSTEM_KINDS)
    swp.add_argument("--n-list", required=True, help="comma-separated dimensions")
    swp.add_argument("--m-list", required=True, help="comma-separated point counts")
    swp.add_argument("--field", choices=("real", "complex"), help=_FIELD_HELP)
    swp.add_argument("--gen-seed", type=int, default=0)
    _add_search_args(swp)
    swp.add_argument("--out", required=True, help="summary CSV path")

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser :func:`main` uses, built once per process: parsing keeps
    nothing in the parser, each call gets a fresh namespace."""
    return build_parser()


def _cmd_gen(args) -> int:
    if args.system:
        raise UsageError("gen builds a system, pass --kind rather than --system")
    system = _resolve_system(args)
    save_system(system, args.out)
    print(
        f"wrote {args.out} (n={system.n} m={system.m} field={system.field} "
        f"residual={_fmt(system.orthonormality_residual())})"
    )
    return 0


def _cmd_nikolskii(args) -> int:
    system = _resolve_system(args)
    report = condition_e_constant(system)
    print(f"n={system.n} m={system.m} field={system.field}")
    print(
        f"t={_fmt(report.t)} t_squared={_fmt(report.t_squared)} "
        f"argmax_index={report.argmax_index}"
    )
    return 0


def _cmd_select(args) -> int:
    """``select`` and ``select-weighted``: one selection, its certificate
    saved with the settings that produced it."""
    config = _oracle(args)
    system = _rebased(_resolve_system(args), args.out_system)
    settings = {
        # halving runs only this search; recorded for certificate readers
        "strategy": "randomized",
        "seed": args.seed,
        "budget": args.budget,
        "system": "file"
        if args.system
        else {
            "kind": args.kind,
            "n": args.n,
            "m": args.m,
            "field": _field(args),
            "gen_seed": args.gen_seed,
        },
    }
    if args.command == "select":
        cert = discretize_equal_weight(system, config, theta=args.theta)
        # recorded for certificate readers: the residual re-basing starts above
        settings["delta"] = TIGHTNESS_TOL
    else:
        cert = discretize_weighted(system, config, cap=args.cap)
        settings["cap"] = args.cap
    save_certificate(cert, args.out, settings=settings)
    c, C = cert.constants
    print(
        f"kind={cert.kind} selected={cert.m} c={_fmt(c)} C={_fmt(C)} "
        f"ratio={_fmt(C / c)}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    system = load_system(args.system)
    document = load_certificate(args.certificate)
    report = verify_certificate(system, document, tol=args.tol)
    stored = report.stored
    if stored is not None:
        print(f"stored:     c={_fmt(stored.lower)} C={_fmt(stored.upper)}")
    if report.recomputed is not None:
        print(
            f"recomputed: c={_fmt(report.recomputed.lower)} "
            f"C={_fmt(report.recomputed.upper)}"
        )
    for message in report.messages:
        print(f"mismatch: {message}")
    if report.passed:
        print("verification passed")
        return 0
    print("verification FAILED")
    return 2


def _parse_int_list(text: str, flag: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}")
    if not values:
        raise UsageError(f"{flag} is empty")
    return values


def _cmd_sweep(args) -> int:
    ns = _parse_int_list(args.n_list, "--n-list")
    ms = _parse_int_list(args.m_list, "--m-list")
    config = _oracle(args)
    rows = ["N,M,t,m,m_over_N,c,C,ratio,seed"]
    for n in ns:
        for m in ms:
            if m < n:
                continue
            desc = SystemDescriptor(kind=args.kind, n=n, m=m, seed=args.gen_seed)
            system = make_system(desc, field=_field(args))
            cert = discretize_equal_weight(system, config)
            c, C = cert.constants
            stages = {stage["stage"]: stage for stage in cert.pipeline_log}
            t = stages["concentration"]["t"]
            cells = [n, m, _fmt(t), cert.m, _fmt(cert.m / n), _fmt(c), _fmt(C)]
            rows.append(",".join(map(str, cells + [_fmt(C / c), config.seed])))
    with open(args.out, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {args.out} ({len(rows) - 1} rows)")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "nikolskii": _cmd_nikolskii,
    "select": _cmd_select,
    "select-weighted": _cmd_select,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required")
        _check_destinations(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (DiscretizationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
