"""The three benchmark workloads: generated configs, invocations, and notes.

Each workload is a fixed sequence of real ``besovlab`` CLI invocations.  The
benchmark seed derives every seeded field of the generated configs (and the
row order of the sweep grid), never the size of the work, so every seed runs
the same amount of computation and every check below holds for any seed.

Why each workload exists, and which per-layer metric (traced run) should move
which end-to-end metric (untraced run) on it:

``tree-io``     ``sample`` of a ~158k-nonzero tree (Gaussian slab, tau=2^-j,
                pi=0.3, j0=3, j_max=18) with --out and --csv, then ``norm``
                of that report.  Mostly serialisation: the report is ~14 MB
                and the CSV ~5 MB, while ``sample_tree`` is ~1% of ``sample``.
                ``norm`` reads back the format ``sample`` writes, so the tree
                encoder and decoder are both on the blocking path here and
                nowhere else (columnar tree I/O shows on this workload only).
                  cli.json_encode.s, cli.json_decode.s, cli.csv_write.s,
                  cli.self.s, sampler.tree_to_json.s,
                  sampler.tree_to_csv_rows.s            -> wall_s (sample)
                  sampler.tree_from_json.s,
                  besov.besov_seq_norm.s                 -> wall_s (norm)
                  sampler.sample_tree.s                  -> wall_s, ~1% only

``verdicts``    The classify-then-check loop of the paper: an 11,250-point
                ``general`` sweep, a ``verify`` membership check (levels 8-18,
                100 reps, 1 thread) and an ``evt`` run (Laplace, level 20,
                100 reps, 2 threads).  theory, schedules, lab, distributions
                and besov.vector_p_norm do the work; tree I/O and cwt are
                absent.  ``verify`` is GIL-bound (math.fsum over tolist() in
                vector_p_norm); ``evt`` is the one case 2 threads speed up.
                  theory.classify.s, schedules.verdict.calls,
                  cli.json_encode.s, cli.self.s (deepcopy per point)
                                                         -> wall_s (sweep)
                  besov.vector_p_norm.s, distributions.sample.s,
                  lab.empirical_membership.s             -> wall_s (verify)
                  distributions.sample.s, lab.evt_experiment.s,
                  lab.evt.parallel_efficiency            -> wall_s (evt)

``continuous``  ``cwt-sample`` of one large realisation (~2k atoms,
                a_max=2^16) projected onto daub4, ``synth`` of that projected
                tree on a 2^14 grid, and ``cwt-verify`` (daub4 kernel bounds
                plus the c08 moment block at 100 reps).  cwt and wavelets do
                the work (per-atom projection loop, kernel quadrature, cascade
                tables, per-coefficient synthesis); the other workloads never
                call them.  ``project_to_orthogonal`` is used once on a large
                realisation and 100 times on small ones.
                  cwt.project_to_orthogonal.s, cwt.sample_atoms.s
                                                         -> wall_s (cwt-sample)
                  wavelets.synthesize.s, wavelets.cascade_eval.s
                                                         -> wall_s (synth)
                  cwt.verify_kernel_bounds.s, cwt.moment_bound_experiment.s,
                  cwt.project_to_orthogonal.s            -> wall_s (cwt-verify)

``setup_s`` (import time of ``besovlab.cli``) is paid by every invocation of
every workload; ``peak_rss_mb`` is set by the ``sample``/``norm`` pair on
``tree-io`` and by ``evt``'s 2^20-value draws on ``verdicts``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from checks import (
    check_cwt_sample,
    check_cwt_verify,
    check_evt,
    check_norm,
    check_sample,
    check_sweep,
    check_synth,
    check_verify,
)

GAUSS = {"family": "gaussian", "sigma": 1.0}

# Sweep grid: 5 slabs x tau.e x pi.e x besov.s x p x q x pi.g = 11,250 points.
SWEEP_VARY = {
    "slab": [
        GAUSS,
        {"family": "laplace", "lam": 1.0},
        {"family": "student_t", "nu": 3.0},
        {"family": "cauchy"},
        {"family": "power_exponential", "m": 0.5, "lam": 1.0},
    ],
    "tau.e": [0.0, 0.5, 1.0, 1.5, 2.0],
    "pi.e": [0.0, 0.25, 0.5, 1.0, 1.5],
    "besov.s": [0.1, 0.5, 1.0, 1.5, 2.5],
    "besov.p": [1.0, 2.0, "inf"],
    "besov.q": [1.0, 2.0, "inf"],
    "pi.g": [0.0, 1.0],
}

CWT_SPEC = {
    "c_mu": 4.0,
    "beta": 0.5,
    "c_tau": 1.0,
    "alpha": 1.0,
    "slab": GAUSS,
    "a0": 1.0,
}

SYNTH_GRID_EXPONENT = 14


@dataclass
class Invocation:
    """One CLI run: its metric name, CLI arguments and output check.

    ``check(files)`` raises ``checks.CheckFailed`` when an output is wrong; it
    gets the invocation's output paths and returns nothing.
    """

    metric: str
    argv: list[str]
    outputs: dict[str, str]
    check: Callable[[dict[str, str]], None]


@dataclass
class Workload:
    invocations: list[Invocation]
    # runs made once per benchmark run, outside the timed loop
    references: list[Invocation] = field(default_factory=list)


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def tree_io(seed: int, work: str) -> Workload:
    (sample_seed,) = _seeds(seed, 1)
    join = lambda name: os.path.join(work, name)
    sample_cfg = _write(
        join("sample.json"),
        {
            "slab": GAUSS,
            "tau": {"c": 1.0, "e": 1.0},
            "pi": {"c": 0.3, "e": 0.0},
            "j0": 3,
            "mode": {"kind": "infinite", "j_max": 18},
            "seed": sample_seed,
        },
    )
    norm_cfg = _write(join("norm.json"), {"besov": {"s": 1.0, "p": 2.0, "q": 2.0}})
    tree, rows, norm = join("tree.json"), join("tree.csv"), join("norm-report.json")
    sample = Invocation(
        "sample_s",
        ["sample", "--config", sample_cfg, "--out", tree, "--csv", rows],
        {"report": tree, "csv": rows},
        check_sample,
    )
    norm_run = Invocation(
        "norm_s",
        ["norm", "--config", norm_cfg, "--tree", tree, "--out", norm],
        {"report": norm, "tree": tree},
        check_norm,
    )
    return Workload([sample, norm_run])


def verdicts(seed: int, work: str) -> Workload:
    order_seed, verify_seed, evt_seed = _seeds(seed, 3)
    join = lambda name: os.path.join(work, name)
    order = random.Random(order_seed)
    vary = {}
    for name, values in SWEEP_VARY.items():
        values = list(values)
        order.shuffle(values)
        vary[name] = values
    sweep_cfg = _write(
        join("sweep.json"),
        {
            "base": {
                "kind": "general",
                "slab": GAUSS,
                "tau": {"c": 1.0, "e": 1.0},
                "pi": {"c": 1.0, "e": 0.5},
                "besov": {"s": 1.0, "p": 2.0, "q": 2.0},
                "r": 3.0,
            },
            "vary": vary,
        },
    )
    verify_cfg = _write(
        join("verify.json"),
        {
            "slab": GAUSS,
            "tau": {"c": 1.0, "e": 1.5},
            "pi": {"c": 0.5, "e": 0.0},
            "besov": {"s": 0.5, "p": 2.0, "q": 2.0},
            "levels": {"start": 8, "stop": 18},
            "reps": 100,
            "seed": verify_seed,
            "check": "membership",
        },
    )
    evt_cfg = _write(
        join("evt.json"),
        {
            "slab": {"family": "laplace", "lam": 1.0},
            "pi": {"c": 1.0, "e": 0.0},
            "levels": [20],
            "reps": 100,
            "seed": evt_seed,
        },
    )
    sweep_out, sweep_csv = join("sweep-report.json"), join("sweep.csv")
    verify_out, evt_out, evt_ref = join("verify-report.json"), join("evt-report.json"), join("evt-1thread.json")
    sweep = Invocation(
        "sweep_s",
        ["sweep", "--config", sweep_cfg, "--out", sweep_out, "--csv", sweep_csv],
        {"report": sweep_out, "csv": sweep_csv, "config": sweep_cfg},
        check_sweep,
    )
    verify = Invocation(
        "verify_s",
        ["verify", "--config", verify_cfg, "--threads", "1", "--out", verify_out],
        {"report": verify_out},
        check_verify,
    )
    evt = Invocation(
        "evt_s",
        ["evt", "--config", evt_cfg, "--threads", "2", "--out", evt_out],
        {"report": evt_out, "reference": evt_ref},
        check_evt,
    )
    # the --threads 1 report the --threads 2 one must equal byte for byte
    reference = Invocation(
        "evt_1thread_s",
        ["evt", "--config", evt_cfg, "--threads", "1", "--out", evt_ref],
        {"report": evt_ref},
        lambda files: check_evt({**files, "reference": files["report"]}),
    )
    return Workload([sweep, verify, evt], [reference])


def continuous(seed: int, work: str) -> Workload:
    atom_seed, moment_seed = _seeds(seed, 2)
    join = lambda name: os.path.join(work, name)
    sample_cfg = _write(
        join("cwt-sample.json"),
        {
            "spec": {**CWT_SPEC, "a_max": 2.0**16},
            "seed": atom_seed,
            "project": {"family": "daub4", "j0": 1, "top": 10},
        },
    )
    synth_cfg = _write(
        join("synth.json"), {"family": "daub4", "grid_exponent": SYNTH_GRID_EXPONENT}
    )
    verify_cfg = _write(
        join("cwt-verify.json"),
        {
            "family": "daub4",
            "moment": {
                "spec": {**CWT_SPEC, "a_max": 2.0**13},
                "m": 2.0,
                "levels": {"start": 4, "stop": 10},
                "reps": 100,
                "seed": moment_seed,
            },
        },
    )
    atoms_out, atoms_csv = join("cwt-sample-report.json"), join("atoms.csv")
    synth_out, synth_csv = join("synth-report.json"), join("curve.csv")
    verify_out = join("cwt-verify-report.json")
    return Workload(
        [
            Invocation(
                "cwt_sample_s",
                ["cwt-sample", "--config", sample_cfg, "--out", atoms_out, "--csv", atoms_csv],
                {"report": atoms_out, "csv": atoms_csv},
                check_cwt_sample,
            ),
            Invocation(
                "synth_s",
                ["synth", "--config", synth_cfg, "--tree", atoms_out, "--out", synth_out, "--csv", synth_csv],
                {"report": synth_out, "csv": synth_csv},
                lambda files: check_synth(files, 2**SYNTH_GRID_EXPONENT),
            ),
            Invocation(
                "cwt_verify_s",
                ["cwt-verify", "--config", verify_cfg, "--out", verify_out],
                {"report": verify_out},
                check_cwt_verify,
            ),
        ],
    )


WORKLOADS = {"tree-io": tree_io, "verdicts": verdicts, "continuous": continuous}
