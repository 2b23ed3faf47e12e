"""Traced CLI run: ``python perfbench/trace_shim.py SPANS_FILE CLI_ARG...``.

Runs ``besovlab.cli.main(CLI_ARGS)`` in this fresh interpreter after
wrapping the public functions the per-layer metrics name, then writes the
recorded spans and counts to ``SPANS_FILE`` as JSON and exits with the CLI's
exit code.  ``src`` must be on ``PYTHONPATH``; the program is not modified.

A function imported with ``from .x import y`` is bound at import time in
the importing module, so each wrapper replaces the original in every
``besovlab`` module namespace that holds it (e.g. ``lab.sample``,
``lab.vector_p_norm``, ``cwt.cascade_eval``, ``theory.series_verdict``),
not only where it is defined.

A span is ``[name, start, end, parent]``; ``parent`` indexes the enclosing
span (``-1`` for none).  A span opened on a worker thread with no enclosing
span of its own gets the innermost span open on the main thread, which is
the call that started the pool.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import Counter
from time import perf_counter

# Spanned functions: (module, function) -> span name.  Several entry points
# may share a name; their spans then add up under it.
SPANNED = {
    ("sampler", "sample_tree"): "sampler.sample_tree",
    ("sampler", "tree_to_json"): "sampler.tree_to_json",
    ("sampler", "tree_to_csv_rows"): "sampler.tree_to_csv_rows",
    ("sampler", "tree_from_json"): "sampler.tree_from_json",
    ("besov", "besov_seq_norm"): "besov.besov_seq_norm",
    ("besov", "vector_p_norm"): "besov.vector_p_norm",
    ("distributions", "sample"): "distributions.sample",
    ("distributions", "quantile_hplus"): "distributions.quantile_hplus",
    ("lab", "empirical_membership"): "lab.empirical_membership",
    ("lab", "evt_experiment"): "lab.evt_experiment",
    ("theory", "classify_simple"): "theory.classify",
    ("theory", "classify_general"): "theory.classify",
    ("theory", "classify_three_param"): "theory.classify",
    ("theory", "classify_regression"): "theory.classify",
    ("theory", "no_spike_condition"): "theory.classify",
    ("cwt", "classify_cwt"): "theory.classify",
    ("wavelets", "cascade_eval"): "wavelets.cascade_eval",
    ("wavelets", "synthesize"): "wavelets.synthesize",
    ("cwt", "sample_atoms"): "cwt.sample_atoms",
    ("cwt", "project_to_orthogonal"): "cwt.project_to_orthogonal",
    ("cwt", "verify_kernel_bounds"): "cwt.verify_kernel_bounds",
    ("cwt", "moment_bound_experiment"): "cwt.moment_bound_experiment",
}

# Counted without a span: called too often, or too cheaply, for one.
COUNTED = {
    ("sampler", "rng_for"): "sampler.rng_for.calls",
    ("schedules", "series_verdict"): "schedules.verdict.calls",
    ("schedules", "sup_verdict"): "schedules.verdict.calls",
}


def _tree_coefficients(tree) -> int:
    return int(sum(lev.k.size for lev in tree.levels))


# Counts taken from a spanned call's result: span name -> (count, f(args, result)).
FROM_RESULT = {
    "sampler.sample_tree": ("sampler.nonzeros", lambda args, out: _tree_coefficients(out)),
    "distributions.sample": ("distributions.sample.values", lambda args, out: int(out.size)),
    "cwt.sample_atoms": ("cwt.atoms", lambda args, out: len(out)),
    "wavelets.synthesize": (
        "wavelets.synthesize.coefficients",
        lambda args, out: _tree_coefficients(args[0]) + int((args[0].scaling != 0).sum()),
    ),
    "lab.empirical_membership": ("lab.reps", lambda args, out: out.config["reps"]),
    "lab.evt_experiment": ("lab.reps", lambda args, out: out.config["reps"]),
}

# Values read off a spanned call's result (last call wins).
GAUGES = {"lab.empirical_membership": ("lab.dropped_fraction", lambda out: out.dropped_fraction)}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self.writers: list[_TimedWriter] = []
        self.missing: list[str] = []  # traced functions the program no longer has

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int:
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else -1

    def open(self, name: str) -> int:
        parent = self.current()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent])
        self._stack().append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack().pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def spanned(self, name: str, fn):
        from_result = FROM_RESULT.get(name)
        gauge = GAUGES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if from_result is not None:
                self.count(from_result[0], from_result[1](args, out))
            if gauge is not None:
                self.gauges[gauge[0]] = float(gauge[1](out))
            return out

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def finish(self) -> dict:
        for w in self.writers:
            if w.first is not None:
                self.spans.append(["cli.csv_write", w.first, w.last, w.parent])
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "gauges": self.gauges,
            "missing": self.missing,
        }


class _TimedWriter:
    """``csv.writer`` stand-in recording one span from the first row written
    to the last, so per-row cell formatting between rows is inside it."""

    def __init__(self, writer, parent: int) -> None:
        self._writer = writer
        self.parent = parent
        self.first = None
        self.last = None

    def _timed(self, write, rows):
        start = perf_counter()
        if self.first is None:
            self.first = start
        out = write(rows)
        self.last = perf_counter()
        return out

    def writerow(self, row):
        return self._timed(self._writer.writerow, row)

    def writerows(self, rows):
        return self._timed(self._writer.writerows, rows)

    def __getattr__(self, name):
        return getattr(self._writer, name)


class _CsvProxy:
    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer

    def writer(self, *args, **kwargs):
        w = _TimedWriter(self._module.writer(*args, **kwargs), self._tracer.current())
        self._tracer.writers.append(w)
        return w

    def __getattr__(self, name):
        return getattr(self._module, name)


class _JsonProxy:
    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        self.dumps = tracer.spanned("cli.json_encode", module.dumps)
        self.dump = tracer.spanned("cli.json_encode", module.dump)
        self.loads = tracer.spanned("cli.json_decode", module.loads)
        self.load = tracer.spanned("cli.json_decode", module.load)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _rebind(modules: list, original, wrapper) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the traced functions everywhere they are bound; returns ``cli``."""
    cli = importlib.import_module("besovlab.cli")
    modules = [m for name, m in sorted(sys.modules.items()) if name == "besovlab" or name.startswith("besovlab.")]
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    for (mod, fn), metric in {**SPANNED, **COUNTED}.items():
        original = getattr(by_name.get(mod), fn, None)
        if original is None:
            tracer.missing.append(f"{mod}.{fn}")
        elif (mod, fn) in SPANNED:
            _rebind(modules, original, tracer.spanned(metric, original))
        else:
            _rebind(modules, original, tracer.counted(metric, original))
    cli.json = _JsonProxy(cli.json, tracer)
    cli.csv = _CsvProxy(cli.csv, tracer)
    return cli


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    index = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(index)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.finish(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
