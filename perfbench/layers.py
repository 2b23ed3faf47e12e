"""Per-layer metrics computed from the trace shim's spans and counts.

Layers are the ``besovlab`` modules.  For each spanned function ``X``:
``X.s`` is the time inside its outermost calls (a call nested in another
call of ``X`` is not counted twice) and ``X.calls`` their number.  A span's
self time is its duration minus the part of it that its direct child spans
cover (children on two worker threads may overlap; their union is taken).
``cli.self.s`` is the self time of ``cli.main``: argument parsing, config
resolution, per-point ``deepcopy`` in ``sweep``, everything not inside a
library call or a JSON/CSV proxy span.  ``<layer>.self.s`` sums the self
time of the layer's spans.  Times in worker threads add up, so a layer's
busy time can exceed the wall time of a parallel run.

Each metric's comment names the end-to-end metric it should move, with the
workload (see ``workloads.py`` for why each workload exists).  A metric whose
layer a workload never calls reads 0 there.
"""

from __future__ import annotations

# name -> (unit, better)
PER_LAYER = {
    # cli: sample/norm on tree-io (report re-echoes the whole tree), sweep on verdicts
    "cli.main.s": ("s", "lower"),
    "cli.self.s": ("s", "lower"),
    "cli.json_encode.s": ("s", "lower"),
    "cli.json_decode.s": ("s", "lower"),
    "cli.csv_write.s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    # sampler: sample (encoders) and norm (decoder) on tree-io
    "sampler.sample_tree.s": ("s", "lower"),
    "sampler.tree_to_json.s": ("s", "lower"),
    "sampler.tree_to_csv_rows.s": ("s", "lower"),
    "sampler.tree_from_json.s": ("s", "lower"),
    "sampler.rng_for.calls": ("count", "lower"),
    "sampler.nonzeros": ("count", "higher"),
    "sampler.self.s": ("s", "lower"),
    # besov: norm on tree-io; verify on verdicts (vector_p_norm)
    "besov.besov_seq_norm.s": ("s", "lower"),
    "besov.vector_p_norm.calls": ("count", "lower"),
    "besov.vector_p_norm.s": ("s", "lower"),
    "besov.self.s": ("s", "lower"),
    # distributions: evt (dominant) and verify on verdicts
    "distributions.sample.calls": ("count", "lower"),
    "distributions.sample.values": ("count", "higher"),
    "distributions.sample.s": ("s", "lower"),
    "distributions.quantile_hplus.s": ("s", "lower"),
    "distributions.self.s": ("s", "lower"),
    # lab: verify and evt on verdicts
    "lab.empirical_membership.s": ("s", "lower"),
    "lab.evt_experiment.s": ("s", "lower"),
    "lab.reps": ("count", "higher"),
    "lab.dropped_fraction": ("ratio", "lower"),
    "lab.evt.parallel_efficiency": ("ratio", "higher"),
    "lab.self.s": ("s", "lower"),
    # theory / schedules: sweep on verdicts
    "theory.classify.calls": ("count", "higher"),
    "theory.classify.s": ("s", "lower"),
    "schedules.verdict.calls": ("count", "lower"),
    "theory.self.s": ("s", "lower"),
    # wavelets: synth and cwt-verify on continuous
    "wavelets.cascade_eval.calls": ("count", "lower"),
    "wavelets.cascade_eval.s": ("s", "lower"),
    "wavelets.synthesize.s": ("s", "lower"),
    "wavelets.synthesize.coefficients": ("count", "higher"),
    "wavelets.self.s": ("s", "lower"),
    # cwt: cwt-sample and cwt-verify on continuous
    "cwt.sample_atoms.s": ("s", "lower"),
    "cwt.atoms": ("count", "higher"),
    "cwt.project_to_orthogonal.calls": ("count", "lower"),
    "cwt.project_to_orthogonal.s": ("s", "lower"),
    "cwt.verify_kernel_bounds.s": ("s", "lower"),
    "cwt.moment_bound_experiment.s": ("s", "lower"),
    "cwt.self.s": ("s", "lower"),
    # the traced pass against the untraced passes of the same run
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

LAYERS = ("sampler", "besov", "distributions", "lab", "theory", "wavelets", "cwt")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def invocation_metrics(trace: dict) -> dict[str, float]:
    """Span-derived metrics of one traced CLI invocation."""
    spans = trace["spans"]
    out: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    for index, (name, start, end, parent) in enumerate(spans):
        # outermost call of this name only
        outer, ancestor = True, parent
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                outer = False
                break
            ancestor = spans[ancestor][3]
        if outer:
            out[f"{name}.s"] += end - start
            calls = f"{name}.calls"
            if calls in out:
                out[calls] += 1
        own = (end - start) - _covered(children.get(index, []))
        layer = name.partition(".")[0]
        if name == "cli.main":
            out["cli.self.s"] += own
        elif layer in LAYERS:
            out[f"{layer}.self.s"] += own
    for name, value in trace["counts"].items():
        out[name] += value
    for name, value in trace["gauges"].items():
        out[name] = value
    return {name: out[name] for name in PER_LAYER}


def pass_metrics(per_invocation: list[dict[str, float]]) -> dict[str, float]:
    """Sum of the invocations' metrics; ratios keep the last nonzero value."""
    total = dict.fromkeys(PER_LAYER, 0.0)
    for metrics in per_invocation:
        for name, value in metrics.items():
            if PER_LAYER[name][0] == "ratio":
                total[name] = value or total[name]
            else:
                total[name] += value
    return total
