#!/usr/bin/env python3
"""besovlab benchmark: real CLI invocations, timed and checked.

    python3 perfbench/run.py --workload {tree-io,verdicts,continuous} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is not installed, so
every invocation is ``python -m besovlab.cli ...`` in a fresh interpreter
with ``PYTHONPATH=src``.  The load is a closed loop with one client: a pass
runs the workload's invocations back to back, and passes repeat while the
next one is expected to finish within ``--seconds``.  Every output is
checked right after its invocation (``checks.py``).

``--trace 0`` reports the end-to-end metrics, each the median over the run:
``setup_s`` (wall time of a fresh ``python -c 'import besovlab.cli'``,
sampled before the first pass and after each pass), ``wall_s`` (one pass of
the workload's invocations) and ``peak_rss_mb`` (the highest child peak RSS
in a pass, from ``os.wait4``).  ``--trace 1`` alternates untraced passes
with passes run through ``trace_shim.py`` and reports the per-layer metrics
of ``layers.py`` (medians over traced passes) and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (invocations run), ``failed`` (invocations with an unexpected
exit code or a failed output check) and ``metrics``.  The lines before it
give per-command medians, ``failed_ratio`` and the machine; a fuller record
is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from layers import PER_LAYER, invocation_metrics, pass_metrics
from workloads import WORKLOADS, Invocation, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# A child still running this long after the run started is killed and counted
# as failed, so that the run ends well within 180 s whatever the program does.
RUN_DEADLINE_S = 150.0

# ROADMAP (Open item 2) figures to reproduce, in seconds:
# (label, workload, where the measurement comes from, quoted value).
BASELINES = [
    ("sample_tree, ~160k nonzeros", "tree-io", ("sample_s", "sampler.sample_tree.s"), 0.037),
    ("tree_to_json, ~160k nonzeros", "tree-io", ("sample_s", "sampler.tree_to_json.s"), 0.48),
    ("indented report dump (sample)", "tree-io", ("sample_s", "cli.json_encode.s"), 1.06),
    ("CSV write (sample)", "tree-io", ("sample_s", "cli.csv_write.s"), 0.58),
    ("norm end to end, ~14 MB report", "tree-io", ("untraced", "norm_s"), 2.0),
    ("evt level 20, 100 reps, 1 thread", "verdicts", ("evt_1thread_s", "lab.evt_experiment.s"), 3.2),
    ("evt level 20, 100 reps, 2 threads", "verdicts", ("evt_s", "lab.evt_experiment.s"), 2.06),
    ("verify_kernel_bounds(daub4)", "continuous", ("cwt_verify_s", "cwt.verify_kernel_bounds.s"), 1.4),
    # quoted for c08's 200 reps; this workload runs 100
    ("c08 moment experiment (100 of 200 reps)", "continuous", ("cwt_verify_s", "cwt.moment_bound_experiment.s"), 10.9),
]


class Runner:
    """Starts CLI children from the checkout root and waits for each."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("BESOVLAB_THREADS", None)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def spawn(self, argv: list[str]) -> tuple[float, int, int, str]:
        """(wall seconds, peak RSS KiB, exit code, stderr tail) of one child."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = err_path.read_text(errors="replace")[-400:]
        return wall, usage.ru_maxrss, proc.returncode, tail

    def setup_time(self) -> float:
        wall, _, code, tail = self.spawn([sys.executable, "-c", "import besovlab.cli"])
        if code != 0:
            raise SystemExit(f"perfbench: importing besovlab.cli failed ({code}): {tail}")
        return wall

    def invoke(self, inv: Invocation, traced: bool) -> dict:
        """Run one invocation and check its outputs."""
        spans = self.work / f"{inv.metric}.spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "trace_shim.py"), str(spans), *inv.argv]
        else:
            argv = [sys.executable, "-m", "besovlab.cli", *inv.argv]
        wall, rss, code, tail = self.spawn(argv)
        record = {"metric": inv.metric, "wall_s": wall, "rss_kib": rss, "exit": code, "error": None}
        if code != 0:
            record["error"] = f"exit code {code}: {tail.strip()}"
        else:
            try:
                inv.check(inv.outputs)
            except Exception as exc:  # any fault in an output fails the invocation
                record["error"] = f"check failed: {type(exc).__name__}: {exc}"
        if traced and code == 0:
            with open(spans, encoding="utf-8") as fh:
                trace = json.load(fh)
            layer = invocation_metrics(trace)
            record["missing"] = trace["missing"]
            layer["cli.report_bytes"] = _size(inv.outputs.get("report"))
            layer["cli.csv_bytes"] = _size(inv.outputs.get("csv"))
            record["layers"] = layer
        return record


def _size(path: str | None) -> float:
    return float(os.path.getsize(path)) if path and os.path.exists(path) else 0.0


def run_pass(runner: Runner, workload: Workload, traced: bool) -> dict:
    records = [runner.invoke(inv, traced) for inv in workload.invocations]
    out = {
        "traced": traced,
        "wall_s": sum(r["wall_s"] for r in records),
        "peak_rss_mb": max(r["rss_kib"] for r in records) / 1024.0,
        "invocations": records,
    }
    if traced:
        out["layers"] = pass_metrics([r.get("layers", {}) for r in records])
    return out


def _median_of(values: list[float]) -> float:
    return float(statistics.median(values))


def machine_info(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "loadavg_before": list(os.getloadavg()),
    }


def _stats(values: list[float]) -> str:
    return f"median {_median_of(values):.4f}  min {min(values):.4f}  max {max(values):.4f}  n {len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "besovlab" / "cli.py").is_file():
        print(f"perfbench: no besovlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    info = machine_info(args.workload, args.seed)
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, info, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, info: dict, work: Path) -> int:
    runner = Runner(work)
    workload = WORKLOADS[args.workload](args.seed, str(work))
    begin = time.perf_counter()

    runner.setup_time()  # warm-up: compiles the bytecode cache once
    setup = [runner.setup_time() for _ in range(SETUP_SAMPLES)]
    # references are outside the timed loop; traced in a traced run
    references = [runner.invoke(inv, bool(args.trace)) for inv in workload.references]

    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        started = time.perf_counter()
        passes.append(run_pass(runner, workload, traced))
        if not args.trace and time.perf_counter() < runner.deadline:
            setup.append(runner.setup_time())
        passes[-1]["duration_s"] = time.perf_counter() - started
        elapsed = time.perf_counter() - begin
        expect = _median_of([p["duration_s"] for p in passes])
        enough = not args.trace or any(p["traced"] for p in passes)
        if enough and elapsed + expect > args.seconds:
            break

    records = references + [r for p in passes for r in p["invocations"]]
    failed = [r for r in records if r["error"]]
    info["loadavg_after"] = list(os.getloadavg())
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    print(f"# run {json.dumps(info)}")
    per_command = {}
    for i, inv in enumerate(workload.invocations):
        walls = [p["invocations"][i]["wall_s"] for p in untraced]
        per_command[inv.metric] = walls
        print(f"{inv.metric:<14} s      {_stats(walls)}")
    for r in failed:
        print(f"FAILED {r['metric']}: {r['error']}")
    print(f"{'failed_ratio':<14} ratio  {len(failed) / len(records):.4f}  ({len(failed)} of {len(records)} invocations)")

    if args.trace:
        metrics = {}
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = {"value": _median_of([p["layers"][name] for p in traced]), "unit": unit}
        traced_wall = _median_of([p["wall_s"] for p in traced])
        untraced_wall = _median_of([p["wall_s"] for p in untraced])
        metrics["trace.wall_s"]["value"] = traced_wall
        metrics["trace.untraced_wall_s"]["value"] = untraced_wall
        metrics["trace.overhead"]["value"] = traced_wall / untraced_wall - 1.0
        evt_1 = [r["layers"] for r in references if r["metric"] == "evt_1thread_s" and "layers" in r]
        if evt_1 and metrics["lab.evt_experiment.s"]["value"] > 0:
            metrics["lab.evt.parallel_efficiency"]["value"] = (
                evt_1[0]["lab.evt_experiment.s"] / (2.0 * metrics["lab.evt_experiment.s"]["value"])
            )
        for name, m in metrics.items():
            print(f"{name:<34} {m['unit']:<6} {m['value']:.6g}")
        missing = sorted({fn for p in traced for r in p["invocations"] for fn in r.get("missing", [])})
        if missing:
            print(f"absent: {', '.join(missing)} not found in the program; their metrics read 0")
        idle = [name for name, m in metrics.items() if m["value"] == 0]
        if idle:
            print(f"zero on this workload (not called here, or nothing dropped): {', '.join(idle)}")
        baselines = _baselines(args.workload, traced, references, per_command)
        for label, got, quoted in baselines:
            print(f"baseline {label}: measured {got:.3f} s, ROADMAP {quoted:.3f} s")
    else:
        metrics = {
            "setup_s": {"value": _median_of(setup), "unit": "s"},
            "wall_s": {"value": _median_of([p["wall_s"] for p in untraced]), "unit": "s"},
            "peak_rss_mb": {"value": _median_of([p["peak_rss_mb"] for p in untraced]), "unit": "MB"},
        }
        print(f"{'setup_s':<14} s      {_stats(setup)}")
        print(f"{'wall_s':<14} s      {_stats([p['wall_s'] for p in untraced])}")
        print(f"{'peak_rss_mb':<14} MB     {_stats([p['peak_rss_mb'] for p in untraced])}")
        baselines = []

    result = {"correct": not failed, "attempted": len(records), "failed": len(failed), "metrics": metrics}
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = {
        "run": info,
        "result": result,
        "failed_ratio": len(failed) / len(records),
        "setup_samples_s": setup,
        "per_command_s": per_command,
        "baselines": baselines,
        "references": references,
        "passes": passes,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


def _baselines(workload: str, traced: list[dict], references: list[dict], per_command: dict):
    """ROADMAP figures next to this run's medians for the same quantities."""
    out = []
    for label, where, (source, metric), quoted in BASELINES:
        if where != workload:
            continue
        if source == "untraced":
            values = per_command[metric]
        else:
            records = [r for r in references if r["metric"] == source]
            records += [r for p in traced for r in p["invocations"] if r["metric"] == source]
            values = [r["layers"][metric] for r in records if "layers" in r]
        if values:
            out.append((label, _median_of(values), quoted))
    return out


if __name__ == "__main__":
    sys.exit(main())
