"""Outside-in span tracer for the sampdisc benchmark.

The tracer never edits the package.  It replaces public functions with
timing wrappers in every module namespace that binds them, because the
package imports functions by name (``from .frame_core import
subset_bounds``): patching only the defining module would miss the calls
that go through the other bindings.  ``SampledSystem.orthonormality_residual``
is a method and is wrapped on the class.

Spans and counts are kept in memory; the caller writes them out when the
run ends.  A span is ``[item, name, start, end, parent]`` where ``parent``
is the index of the enclosing span, or None for a call made directly by
the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _file_bytes(path, sidecar=False):
    size = os.path.getsize(path)
    if sidecar:
        size += os.path.getsize(path + ".json")
    return size


# Count hooks run after a call returns: hook(counts, args, kwargs, result).
# Byte counts are taken from file sizes, never from timing the disk.
def _saved_system(counts, args, kwargs, result):
    counts["systems_io.bytes_written"] += _file_bytes(_arg(args, kwargs, 1, "path"), True)


def _saved_certificate(counts, args, kwargs, result):
    counts["systems_io.bytes_written"] += _file_bytes(_arg(args, kwargs, 1, "path"))


def _loaded_system(counts, args, kwargs, result):
    counts["systems_io.bytes_read"] += _file_bytes(_arg(args, kwargs, 0, "path"), True)


def _loaded_certificate(counts, args, kwargs, result):
    counts["systems_io.bytes_read"] += _file_bytes(_arg(args, kwargs, 0, "path"))


def _fingerprinted(counts, args, kwargs, result):
    counts["discretize.fingerprint_calls"] += 1


def _residual(counts, args, kwargs, result):
    counts["discretize.residual_calls"] += 1


def _halved(counts, args, kwargs, result):
    counts["halving_select.rounds"] += len(result.rounds)


def _partitioned(counts, args, kwargs, result):
    counts["partition_oracle.calls"] += 1
    counts["partition_oracle.candidates_tried"] += result.candidates_tried


def _subset(counts, args, kwargs, result):
    counts["frame_core.subset_columns"] += len(_arg(args, kwargs, 1, "subset"))


def _eigensolve(counts, args, kwargs, result):
    counts["frame_core.eigensolves"] += 1


def _duplicated(counts, args, kwargs, result):
    counts["weighted_sparsify.copies"] += result[1].m_prime


# (defining module, function name, count hook); the span is named after
# the function.
FUNCTIONS = (
    ("systems_io", "make_system", None),
    ("systems_io", "save_system", _saved_system),
    ("systems_io", "load_system", _loaded_system),
    ("systems_io", "save_certificate", _saved_certificate),
    ("systems_io", "load_certificate", _loaded_certificate),
    ("discretize", "system_fingerprint", _fingerprinted),
    ("discretize", "condition_e_constant", None),
    ("discretize", "discretize_equal_weight", None),
    ("discretize", "discretize_weighted", None),
    ("halving_select", "halving_select", _halved),
    ("partition_oracle", "spectral_partition", _partitioned),
    ("frame_core", "subset_bounds", _subset),
    ("frame_core", "extreme_eigenvalues", _eigensolve),
    ("frame_core", "verify_tight", None),
    ("weighted_sparsify", "duplicate_normalize", _duplicated),
    ("weighted_sparsify", "weighted_select", None),
    ("verify", "verify_certificate", None),
    ("verify", "recompute_constants", None),
)
# (defining module, class, method name, count hook)
METHODS = (("discretize", "SampledSystem", "orthonormality_residual", _residual),)
# Spans the benchmark opens itself around its calls of ``cli.main``.
CLI_SPANS = ("cli.gen", "cli.select", "cli.verify")

SPAN_NAMES = (
    CLI_SPANS
    + tuple(name for _, name, _ in FUNCTIONS)
    + tuple(name for _, _, name, _ in METHODS)
)
COUNT_NAMES = (
    "systems_io.bytes_written",
    "systems_io.bytes_read",
    "discretize.fingerprint_calls",
    "discretize.residual_calls",
    "halving_select.rounds",
    "partition_oracle.calls",
    "partition_oracle.candidates_tried",
    "frame_core.subset_columns",
    "frame_core.eigensolves",
    "weighted_sparsify.copies",
)
# Every module whose namespace may bind a traced function, the package
# itself included (it re-exports them).  ``sampdisc.halving_select`` is
# shadowed by the function of that name on the package, so submodules are
# reached through importlib, never through attribute access.
MODULES = (
    "frame_core",
    "partition_oracle",
    "halving_select",
    "weighted_sparsify",
    "discretize",
    "systems_io",
    "verify",
    "cli",
)


class Tracer:
    """Records spans and counts for one benchmark run.

    ``install`` swaps the wrappers in and ``uninstall`` restores the
    originals, so traced and untraced executions can alternate in one
    process.  ``item`` tags everything recorded with the item being run.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.item = None
        self.installed = False
        self._stack = []
        self._patches = self._plan()

    def _plan(self):
        namespaces = [importlib.import_module("sampdisc")] + [
            importlib.import_module(f"sampdisc.{name}") for name in MODULES
        ]
        # keyed by id: the originals stay alive, so ids cannot be reused
        wrappers = {}
        for module, name, hook in FUNCTIONS:
            original = getattr(importlib.import_module(f"sampdisc.{module}"), name)
            wrappers[id(original)] = self._wrap(name, original, hook)
        patches = []
        for namespace in namespaces:
            for attr, value in vars(namespace).items():
                if id(value) in wrappers:
                    patches.append((namespace, attr, value, wrappers[id(value)]))
        for module, cls_name, name, hook in METHODS:
            cls = getattr(importlib.import_module(f"sampdisc.{module}"), cls_name)
            original = cls.__dict__[name]
            patches.append((cls, name, original, self._wrap(name, original, hook)))
        return patches

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if hook is not None:
                hook(self.counts[self.item], args, kwargs, result)
            return result

        return traced

    def _enter(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.item, name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _exit(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def _span(self, name):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def span(self, name):
        """Span around a call the benchmark makes; a no-op when not installed."""
        return self._span(name) if self.installed else nullcontext()

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self.installed = False

    def bindings(self):
        """(owner, attribute) pairs the tracer patches, for inspection."""
        return [(getattr(o, "__name__", repr(o)), a) for o, a, _, _ in self._patches]


def summarize(spans, item_walls):
    """Per-item span totals, self times and coverage.

    Returns ``(totals, selfs, coverage)``: ``totals[item][name]`` sums the
    spans of that name that have no ancestor of the same name,
    ``selfs[item][name]`` sums each span's duration minus its direct
    children, and ``coverage[item]`` is the share of the item's wall time
    covered by the children of its top-level spans (the named layers below
    the call the benchmark made).
    """
    child_time = defaultdict(float)
    for item, name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(Counter)
    selfs = defaultdict(Counter)
    covered = Counter()
    for index, (item, name, start, end, parent) in enumerate(spans):
        duration = end - start
        selfs[item][name] += duration - child_time[index]
        ancestor = parent
        while ancestor is not None and spans[ancestor][1] != name:
            ancestor = spans[ancestor][4]
        if ancestor is None:
            totals[item][name] += duration
        if parent is None:
            covered[item] += child_time[index]
    coverage = {item: covered[item] / wall for item, wall in item_walls.items()}
    return totals, selfs, coverage
