"""Benchmark for sampdisc: one workload, one caller, one item at a time.

    python3 bench/run.py --workload cli_files --seed 1 --seconds 35 --trace 0

Runs the named workload as a closed loop: one item at a time, each item
started only after the previous one returned.  Inputs come from
``--seed``; the package sees only the generated inputs and is driven
through its public functions, timed from outside.  Every certificate an
item produces is checked again (``sampdisc verify`` for files, a fresh
eigensolve for in-memory results) and every failure is counted.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, and every item also runs, back to
back, on the frozen baseline package in ``bench/baseline`` in a worker
process; item time is reported relative to it.  With ``--trace 1`` every
other pass over the inputs is traced, and the metrics are the per-layer
ones plus the tracing overhead.  Spans, per-item records and provenance go
to ``bench/_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import COUNT_NAMES, SPAN_NAMES, Tracer, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# The package as it was when the benchmark was defined; never edited.
BASELINE_SRC = BENCH_DIR / "baseline"
OUT_DIR = BENCH_DIR / "_out"
WORK_DIR = BENCH_DIR / "_work"

# Same rule as ``sampdisc verify``: |recomputed - stored| <= tol * max(1, C).
CHECK_TOL = 1e-10
SETUP_PROBES = {"full": 9, "tiny": 1}
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
# One caller on a shared host of few cores: BLAS gets one thread, so that
# its worker threads do not compete with other tenants for the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "item_rel_p50": "ratio",
    "peak_rss_mb": "MB",
    "support_per_n": "points/n",
    "cond_ratio": "ratio",
}
PER_LAYER = {}
for _span in SPAN_NAMES:
    PER_LAYER[f"{_span}_s"] = "s"
    PER_LAYER[f"{_span}_self_s"] = "s"
for _count in COUNT_NAMES:
    if _count != "partition_oracle.calls":
        PER_LAYER[_count] = "B" if _count.startswith("systems_io.") else "count"
PER_LAYER["partition_oracle.accept_ratio"] = "ratio"
PER_LAYER["trace.overhead_s"] = "s"
PER_LAYER["trace.coverage_min"] = "ratio"


class CheckFailed(Exception):
    """An item's output did not re-verify."""


def _outcome(sha256, support, n, lower, upper, values):
    """What the output check of one item found, as stored in its record."""
    return {"sha256": sha256, "support": support, "n": n, "lower": lower,
            "upper": upper, "values": values}


def _item_seeds(np, seed, i):
    gen, search = np.random.SeedSequence([seed, 1, i]).generate_state(2)
    return int(gen), int(search)


def _json_default(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"cannot encode {type(obj).__name__}")


def _check_in_memory(system, cert, recomputed):
    """Recomputed constants must match the stored ones, with c > 0."""
    stored = cert.constants
    scale = max(1.0, abs(stored.upper))
    if abs(recomputed.lower - stored.lower) > CHECK_TOL * scale:
        raise CheckFailed(f"lower constant {stored.lower!r} recomputes to {recomputed.lower!r}")
    if abs(recomputed.upper - stored.upper) > CHECK_TOL * scale:
        raise CheckFailed(f"upper constant {stored.upper!r} recomputes to {recomputed.upper!r}")
    if not recomputed.lower > 0.0:
        raise CheckFailed("lower constant is not positive")
    doc = {
        "kind": cert.kind,
        "m": cert.m,
        "point_indices": list(cert.point_indices),
        "weights": None if cert.weights is None else list(cert.weights),
        "constants": [stored.lower, stored.upper],
        "theta": cert.theta,
        "input_fingerprint": cert.input_fingerprint,
        "pipeline_log": cert.pipeline_log,
    }
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_json_default)
    return _outcome(
        hashlib.sha256(canonical.encode()).hexdigest(),
        cert.m,
        system.n,
        stored.lower,
        stored.upper,
        system.n * system.m,
    )


class CliFiles:
    """``gen`` -> ``select`` -> ``verify`` through ``sampdisc.cli.main`` on real files."""

    SIZES = {"full": (16, 2048), "tiny": (2, 512)}
    MIN_ITEMS = {"full": 11, "tiny": 2}
    CYCLE = {"full": 1, "tiny": 1}

    def __init__(self, sd, np, seed, size):
        self.sd, self.np, self.seed = sd, np, seed
        self.n, self.m = self.SIZES[size]
        self.work = WORK_DIR / f"cli_files-{os.getpid()}"
        self.system = str(self.work / "system.csv")
        self.cert = str(self.work / "system.cert.json")

    def inputs(self, i):
        _, search = _item_seeds(self.np, self.seed, i)
        gen = ["gen", "--kind", "dft", "--n", str(self.n), "--m", str(self.m),
               "--field", "complex", "--out", self.system]
        select = ["select", "--system", self.system, "--seed", str(search), "--out", self.cert]
        verify = ["verify", "--system", self.system, "--certificate", self.cert]
        return (("cli.gen", gen), ("cli.select", select), ("cli.verify", verify))

    def run(self, commands, tracer):
        self.work.mkdir(parents=True, exist_ok=True)
        codes, out, err = [], io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for span, argv in commands:
                with tracer.span(span):
                    codes.append(self.sd.cli.main(argv))
                if codes[-1] != 0:
                    break
        return codes, out.getvalue(), err.getvalue()

    def check(self, commands, output):
        codes, out, err = output
        if codes != [0, 0, 0]:
            raise CheckFailed(f"exit codes {codes}: {err.strip()[-300:]}")
        if "verification passed" not in out:
            raise CheckFailed("verify did not report a pass")
        data = Path(self.cert).read_bytes()
        doc = json.loads(data)
        return _outcome(
            hashlib.sha256(data).hexdigest(),
            len(doc["point_indices"]),
            self.n,
            float(doc["constants"]["lower"]),
            float(doc["constants"]["upper"]),
            self.n * self.m,
        )

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK_DIR.rmdir()


class EqualSmall:
    """Equal-weight selection in memory, cycling four kinds and both fields."""

    SIZES = {"full": (8, 8192), "tiny": (4, 1024)}
    MIN_ITEMS = {"full": 64, "tiny": 8}
    CYCLE = {"full": 4, "tiny": 4}

    def __init__(self, sd, np, seed, size):
        self.sd, self.np, self.seed = sd, np, seed
        n, m = self.SIZES[size]
        gen_seed = int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
        desc = sd.SystemDescriptor
        self.systems = (
            sd.make_system(desc("walsh", n, m)),
            sd.make_system(desc("dft", n, m), field="complex"),
            sd.make_system(desc("random_orthonormal", n, m, seed=gen_seed)),
            sd.make_system(desc("trig", n + 1, m)),
        )

    def inputs(self, i):
        _, search = _item_seeds(self.np, self.seed, i)
        return self.systems[i % len(self.systems)], self.sd.OracleConfig(seed=search)

    def run(self, inputs, tracer):
        system, config = inputs
        cert = self.sd.discretize_equal_weight(system, config)
        return cert, self.sd.recompute_constants(system, cert.point_indices, cert.weights)

    def check(self, inputs, output):
        return _check_in_memory(inputs[0], *output)

    def close(self):
        pass


class WeightedDup:
    """Weighted selection in memory on skewed random_orthonormal systems.

    The copy count, and with it the cost of an item, varies by a factor of
    two to four between generator seeds.  Drawn afresh from every benchmark
    seed, the per-run median would move with the draw, so the systems come
    from a fixed pool of generator seeds, one per item of the input cycle.
    The benchmark seed sets where in the pool a run starts and every search
    seed.
    """

    SIZES = {"full": (8, 8192), "tiny": (4, 1024)}
    MIN_ITEMS = {"full": 4, "tiny": 4}
    CYCLE = {"full": 2, "tiny": 2}

    def __init__(self, sd, np, seed, size):
        self.sd, self.np, self.seed = sd, np, seed
        self.n, self.m = self.SIZES[size]
        self.pool = [int(g) for g in np.random.SeedSequence(0).generate_state(self.CYCLE[size])]
        self.offset = seed % len(self.pool)

    def inputs(self, i):
        _, search = _item_seeds(self.np, self.seed, i)
        gen = self.pool[(self.offset + i) % len(self.pool)]
        desc = self.sd.SystemDescriptor("random_orthonormal", self.n, self.m, seed=gen)
        return self.sd.make_system(desc), self.sd.OracleConfig(seed=search)

    def run(self, inputs, tracer):
        system, config = inputs
        cert = self.sd.discretize_weighted(system, config)
        return cert, self.sd.recompute_constants(system, cert.point_indices, cert.weights)

    def check(self, inputs, output):
        return _check_in_memory(inputs[0], *output)

    def close(self):
        pass


WORKLOADS = {"cli_files": CliFiles, "equal_small": EqualSmall, "weighted_dup": WeightedDup}


def _import_package(src):
    """Import sampdisc from ``src``; exit 2 when it is absent."""
    if not (src / "sampdisc" / "__init__.py").is_file():
        sys.stderr.write(f"error: no sampdisc package under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import numpy as np
    import sampdisc
    import sampdisc.cli  # noqa: F401  (cli is not imported by the package)

    if Path(sampdisc.__file__).resolve().parent != (src / "sampdisc").resolve():
        sys.stderr.write(f"error: imported sampdisc from {sampdisc.__file__}\n")
        sys.exit(2)
    return sampdisc, np


def _fix_mmap_threshold():
    """Serve every allocation above 128 KiB by mmap, for the whole run.

    glibc raises its mmap threshold each time such a block is freed, so
    later items of a long run would reuse heap pages that the first items
    had to fault in, and the heap would grow from item to item.  Fixing the
    threshold keeps the first and the last item of a run alike.  Returns
    the threshold, or None where glibc's ``mallopt`` is absent.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    threshold = 128 * 1024
    return threshold if mallopt(M_MMAP_THRESHOLD, threshold) == 1 else None


def _setup(args, src=SRC):
    """Import the package and build the first item's inputs (what setup_s times)."""
    start = time.perf_counter()
    sd, np = _import_package(src)
    workload = WORKLOADS[args.workload](sd, np, args.seed, args.size)
    first = workload.inputs(0)
    return sd, np, workload, first, time.perf_counter() - start


def _probe_setup(args):
    """Median set-up time over fresh interpreters, each timed from the inside."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES[args.size]):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Baseline:
    """The baseline package in a worker process that runs items on request.

    The host is shared, and its speed changes by 1.5x to 2x for seconds to
    minutes at a time as other tenants come and go; a median over a run of
    half a minute does not average that out.  So every timed item also runs,
    right before or right after, on the package as it was when the benchmark
    was defined, and the benchmark reports the quotient of the two times.
    Both runs of a pair see the same host, so the quotient follows the
    package and not the host.  The worker is a separate process so that its
    memory does not count in the benchmark's peak RSS.
    """

    def __init__(self, args):
        argv = [sys.executable, str(Path(__file__).resolve()), "--baseline-worker",
                "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)

    def run(self, item):
        """The worker's record of item ``item``."""
        self.proc.stdin.write(f"{item}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"baseline worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _serve_baseline(args):
    """Worker side of Baseline: run each item index read from stdin."""
    _, _, workload, first, _ = _setup(args, BASELINE_SRC)
    tracer = Tracer()  # never installed; _execute needs one
    out = sys.stdout
    try:
        for line in sys.stdin:
            item = int(line)
            inputs = first if item == 0 else workload.inputs(item)
            record = _execute(workload, tracer, item, inputs, traced=False)
            out.write(json.dumps(record, default=_json_default) + "\n")
            out.flush()
    finally:
        workload.close()
    return 0


def _execute(workload, tracer, item, inputs, traced):
    record = {"item": item, "traced": traced}
    # start every item from a collected heap, as a fresh process would
    gc.collect()
    if traced:
        tracer.item = item
        tracer.install()
    try:
        start = time.perf_counter()
        output = workload.run(inputs, tracer)
        record["wall_s"] = time.perf_counter() - start
    except Exception as exc:  # an item that raises is a failed item, not a crash
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    finally:
        if traced:
            tracer.uninstall()
    try:
        outcome = workload.check(inputs, output)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record.update(outcome)
    return record


def _measure(workload, tracer, baseline, first, args):
    """Closed loop, in whole passes over the workload's input cycle, until
    the next pass would overrun ``--seconds``.

    Whole passes give every run the same mix of inputs.  The first pass is
    a warm-up and is left out of every timing.  At least MIN_ITEMS items
    always run, because the quality metrics and the exact counts are taken
    over that fixed prefix.  A traced run traces every other pass after the
    warm-up and runs at least two more, so that traced and untraced items
    see the same mix.  With a baseline, every item also runs on it, first
    or second in turn for each input of the cycle, and the record keeps the
    baseline's record and the quotient of the two wall times.
    """
    min_items = workload.MIN_ITEMS[args.size]
    cycle = workload.CYCLE[args.size]
    least = max(min_items, (3 if args.trace else 2) * cycle)
    records, loop_walls = [], []
    begin = time.perf_counter()
    item = 0
    while True:
        if item % cycle == 0 and item >= least:
            expected = statistics.fmean(loop_walls) * cycle
            if time.perf_counter() - begin + expected > args.seconds:
                break
        start = time.perf_counter()
        inputs = first if item == 0 else workload.inputs(item)
        traced = bool(args.trace) and (item // cycle) % 2 == 1
        baseline_first = (item % cycle + item // cycle) % 2 == 0
        base = baseline.run(item) if baseline and baseline_first else None
        record = _execute(workload, tracer, item, inputs, traced)
        if baseline:
            base = base or baseline.run(item)
            record["baseline"] = base
            if "wall_s" in record and "wall_s" in base:
                record["relative"] = record["wall_s"] / base["wall_s"]
        record["start_s"] = start - begin
        records.append(record)
        loop_walls.append(time.perf_counter() - start)
        item += 1
    return records, min_items, cycle


def _timed(records, cycle, traced, value):
    """value(record) for the items after the warm-up pass that have it, by
    input of the cycle."""
    timed = defaultdict(list)
    for r in records:
        if r["traced"] == traced and r["item"] >= cycle:
            with contextlib.suppress(KeyError):
                timed[r["item"] % cycle].append(value(r))
    return timed


def _typical(timed):
    """Mean over the inputs of the cycle of each input's median.

    Taken per input because the inputs of a cycle differ in cost by up to
    3x: a median over all items would sit between two inputs' costs and
    jump with small shifts.
    """
    return statistics.fmean(statistics.median(v) for v in timed.values())


def _tail(walls):
    """Wall time at the highest percentile with ten items beyond it (nearest
    rank), that percentile and the items beyond; the maximum when a run has
    ten items or fewer."""
    walls = sorted(walls)
    rank = max(1, len(walls) - 10)
    return walls[rank - 1], 100.0 * rank / len(walls), len(walls) - rank


def _end_to_end(records, min_items, cycle, setup_samples):
    ok = [r for r in records if "error" not in r]
    prefix = [r for r in ok if r["item"] < min_items]
    walls = _timed(records, cycle, False, lambda r: r["wall_s"])
    values = statistics.fmean(r["values"] for r in ok if r["item"] < cycle)
    item_s = _typical(walls)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "item_rel_p50": _typical(_timed(records, cycle, False, lambda r: r["relative"])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "support_per_n": statistics.median(r["support"] / r["n"] for r in prefix),
        "cond_ratio": statistics.median(r["upper"] / r["lower"] for r in prefix),
    }
    tail_s, tail_pct, beyond = _tail([w for ws in walls.values() for w in ws])
    same = [r["sha256"] == r["baseline"].get("sha256") for r in ok]
    extra = {
        "item_s_p50": item_s,
        "baseline_item_s_p50": _typical(
            _timed(records, cycle, False, lambda r: r["baseline"]["wall_s"])),
        "values_per_s": values / item_s,
        "item_s_tail": tail_s,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "timed_items": sum(len(ws) for ws in walls.values()),
        "same_output_as_baseline": f"{sum(same)}/{len(same)}",
    }
    return metrics, extra


def _per_layer(records, tracer, min_items, cycle):
    traced = [r for r in records if r["traced"] and "error" not in r]
    walls = {r["item"]: r["wall_s"] for r in traced}
    totals, selfs, coverage = summarize(tracer.spans, walls)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}_s"] = float(statistics.median(totals[i][name] for i in walls))
        metrics[f"{name}_self_s"] = float(statistics.median(selfs[i][name] for i in walls))
    prefix = [tracer.counts[i] for i in sorted(walls) if i < min_items]
    per_item = {name: sum(c[name] for c in prefix) / len(prefix) for name in COUNT_NAMES}
    for name in COUNT_NAMES:
        if name != "partition_oracle.calls":
            metrics[name] = per_item[name]
    tried = per_item["partition_oracle.candidates_tried"]
    metrics["partition_oracle.accept_ratio"] = (
        per_item["partition_oracle.calls"] / tried if tried else 0.0
    )
    traced_p50 = _typical(_timed(records, cycle, True, lambda r: r["wall_s"]))
    untraced_p50 = _typical(_timed(records, cycle, False, lambda r: r["wall_s"]))
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    metrics["trace.coverage_min"] = min(coverage.values())
    exact = [{k: c[k] for k in sorted(c)} for c in prefix]
    extra = {
        "traced_item_s_p50": traced_p50,
        "untraced_item_s_p50": untraced_p50,
        "counts_per_item": exact,
        "counts_sha256": hashlib.sha256(json.dumps(exact).encode()).hexdigest(),
    }
    return metrics, extra


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=ROOT,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256(src=SRC):
    digest = hashlib.sha256()
    for path in sorted((src / "sampdisc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return None


def _blas_threads():
    """Thread count OpenBLAS reports, read through ctypes from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _provenance(np, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": args.cpus_allowed,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "loop": "closed, one caller, one item at a time",
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--baseline-worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = _parse_args(argv)
    # before numpy is first imported; set-up probes inherit it
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    # One core for this process and, inherited, for the baseline worker:
    # the cores of a shared host are not equally contended, and the two
    # sides of a pair must meet the same contention.
    args.cpus_allowed = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    mmap_threshold = _fix_mmap_threshold()
    if args.setup_only:
        *_, setup_s = _setup(args)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.baseline_worker:
        return _serve_baseline(args)
    _, np, workload, first, own_setup_s = _setup(args)
    tracer = Tracer()
    # per-layer numbers are spans, not compared with the baseline
    baseline = None if args.trace else Baseline(args)
    try:
        records, min_items, cycle = _measure(workload, tracer, baseline, first, args)
    finally:
        workload.close()
        if baseline:
            baseline.close()
    # probed after the items: right after a pause the machine runs imports
    # up to twice as slowly for a few seconds, which the first item absorbs
    setup_samples = _probe_setup(args)

    failed = sum(1 for r in records if "error" in r)
    provenance = _provenance(np, args)
    provenance["setup_samples_s"] = setup_samples
    provenance["in_process_setup_s"] = own_setup_s
    provenance["fail_share"] = failed / len(records)
    provenance["malloc_mmap_threshold"] = mmap_threshold
    provenance["quality_items"] = min_items
    provenance["baseline_source_sha256"] = _source_sha256(BASELINE_SRC)
    result = {"provenance": provenance, "records": records}
    complete = all(
        any(r["item"] == i and "error" not in r for r in records) for i in range(min_items)
    )
    if not complete:
        metrics, units = {}, {}
    elif args.trace:
        metrics, extra = _per_layer(records, tracer, min_items, cycle)
        provenance.update(extra)
        result["spans"] = tracer.spans
        units = PER_LAYER
    else:
        metrics, extra = _end_to_end(records, min_items, cycle, setup_samples)
        provenance.update(extra)
        units = END_TO_END

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, default=_json_default) + "\n")
    summary = {k: v for k, v in provenance.items() if k != "counts_per_item"}
    print("provenance: " + json.dumps(summary, sort_keys=True))
    print(f"records: {out_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
