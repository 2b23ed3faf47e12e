"""Acceptance checks: one test per shipped guarantee, at the stated
tolerances and runtime budgets.

Budgets are wall-clock upper bounds on the machine class we target; each
test measures its own elapsed time so a regression in speed fails loudly
rather than silently eating CI minutes.
"""

import json
import math
import time

import numpy as np
import pytest

from besovlab import cwt, lab, sampler, schedules, wavelets
from besovlab.besov import besov_seq_norm, vector_p_norm
from besovlab.cli import main
from besovlab.distributions import Cauchy, Gaussian, Laplace, PowerExponential, StudentT
from besovlab.sampler import CoefficientTree, Level
from besovlab.schedules import LevelSchedule
from besovlab.theory import BesovParams, Decision, classify_general, classify_regression

from kernel_oracle import kernel_k0
from table_fixture import ROWS, R_DEFAULT, resolve_s, run_row, simple_table

INF = math.inf


class Budget:
    """Context manager asserting the block finished inside its budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, f"took {elapsed:.1f}s, budget {self.seconds}s"
        return False


def test_c01_decision_table_fixture_exact_match():
    assert len(ROWS) >= 40
    families = {type(row.slab).__name__ for row in ROWS}
    assert {"Gaussian", "Laplace", "StudentT", "Cauchy"} <= families
    with Budget(1.0):
        for row in ROWS:
            verdict = run_row(row)
            assert verdict.decision.value == row.decision, row.label
            if row.threshold is not None:
                assert verdict.threshold == pytest.approx(row.threshold, abs=1e-12), row.label


def test_c02_simple_equals_general_on_200_random_points():
    rng = np.random.default_rng(20260826)
    slabs = [Gaussian(1.0), Laplace(1.0), StudentT(3.0), Cauchy(), PowerExponential(0.7, 1.0)]
    grid = [1.0, 2.0, 3.0, INF]
    checked = 0
    with Budget(1.0):
        for _ in range(200):
            alpha = float(rng.uniform(0.1, 4.0))
            beta = float(rng.uniform(0.0, 1.4))
            s = float(rng.uniform(0.05, 2.9))
            p = grid[rng.integers(len(grid))]
            q = grid[rng.integers(len(grid))]
            slab = slabs[rng.integers(len(slabs))]
            bp = BesovParams(s, p, q)
            simple = simple_table(slab, alpha, beta, bp, 3.0)
            general = classify_general(
                slab, LevelSchedule(1.0, alpha / 2.0), LevelSchedule(1.0, beta), bp, 3.0
            )
            if simple.covered and general.covered:
                assert simple.decision == general.decision, (alpha, beta, s, p, q, slab)
                checked += 1
    assert checked >= 100


def test_c03_lln_gaussian_level_18_mean_within_5_percent():
    with Budget(30.0):
        report = lab.lln_experiment(
            Gaussian(1.0), LevelSchedule(1.0, 0.5), 2.0, levels=[18], reps=50, seed=0
        )
    stat = report.levels[0]
    assert stat.n_value == pytest.approx(2.0**9)
    assert 0.95 <= stat.mean <= 1.05


def test_c04_evt_laplace_level_20_median_within_7_percent():
    from besovlab.distributions import quantile_hplus

    norm_constant = quantile_hplus(Laplace(1.0), 1.0 - 2.0**-20)
    assert norm_constant == pytest.approx(20.0 * math.log(2.0), rel=1e-9)
    with Budget(60.0):
        report = lab.evt_experiment(
            Laplace(1.0), LevelSchedule(1.0), levels=[20], reps=100, seed=0
        )
    stat = report.levels[0]
    assert 0.93 <= stat.median <= 1.07


def test_c05_exponent_regression_slopes_and_verdict_agreement():
    tau = LevelSchedule(1.0, 1.5)
    pi = LevelSchedule(1.0, 0.5)
    spec = sampler.PriorSpec(tau, pi, Gaussian(1.0), schedules.Infinite(18))
    with Budget(120.0):
        for s, want in [(1.0, -0.5), (1.5, 0.5)]:
            bp = BesovParams(s, 2.0, 2.0)
            fit = lab.exponent_regression(spec, bp, range(8, 19), reps=100, seed=0)
            assert fit.slope == pytest.approx(want, abs=0.05), f"s={s}"
            membership = lab.empirical_membership(spec, bp, range(8, 19), reps=100, seed=0)
            assert membership.agree is True, f"s={s}: {membership.empirical_verdict}"


def test_c06_regression_mode_worked_examples_12_point_grid():
    eps = 1e-7
    laplace_tau = LevelSchedule(0.7)
    cauchy_tau = LevelSchedule(1.0)
    grid = [
        # heavier-exponential slab, q finite: member iff s <= beta/p
        (Laplace(1.0), laplace_tau, 0.5, 0.20, 2.0, 2.0, "MemberAS"),
        (Laplace(1.0), laplace_tau, 0.5, 0.25, 2.0, 2.0, "MemberAS"),
        (Laplace(1.0), laplace_tau, 0.5, 0.25 + eps, 2.0, 2.0, "NotMemberAS"),
        (Laplace(1.0), laplace_tau, 0.8, 0.50, 1.0, 2.0, "MemberAS"),
        (Laplace(1.0), laplace_tau, 0.8, 0.80, 1.0, 2.0, "MemberAS"),
        (Laplace(1.0), laplace_tau, 0.8, 0.80 + eps, 1.0, 2.0, "NotMemberAS"),
        # q = inf shifts the cut by one half: member iff s <= beta/p - 1/2
        (Laplace(1.0), laplace_tau, 0.8, 0.20, 1.0, INF, "MemberAS"),
        (Laplace(1.0), laplace_tau, 0.8, 0.30, 1.0, INF, "MemberAS"),
        (Laplace(1.0), laplace_tau, 0.8, 0.30 + eps, 1.0, INF, "NotMemberAS"),
        # polynomial slab at p = inf, q < 2: member iff s <= 1 - beta
        (Cauchy(), cauchy_tau, 0.5, 0.40, INF, 1.0, "MemberAS"),
        (Cauchy(), cauchy_tau, 0.5, 0.50, INF, 1.0, "MemberAS"),
        (Cauchy(), cauchy_tau, 0.5, 0.50 + eps, INF, 1.0, "NotMemberAS"),
    ]
    assert len(grid) == 12
    with Budget(1.0):
        for slab, tau, beta, s, p, q, want in grid:
            verdict = classify_regression(
                slab, tau, LevelSchedule(1.0, beta), BesovParams(s, p, q), 3.0
            )
            assert verdict.decision.value == want, (type(slab).__name__, beta, s, p, q)


def test_c07_cwt_kernel_values_support_and_monotone_sup():
    fam = wavelets.family("daub4")
    with Budget(30.0):
        assert kernel_k0(fam, 1.0, 0.0) == pytest.approx(1.0, abs=1e-8)
        assert kernel_k0(fam, 2.0, 0.0) == pytest.approx(0.0, abs=1e-8)
        for u, v in [(2.0, 1.0), (2.0, 1.5), (2.0, -0.5), (4.0, -0.25), (0.5, -2.0), (8.0, 37.0)]:
            assert kernel_k0(fam, u, v) == 0.0, (u, v)
        sups = []
        for u in (2.0, 4.0, 8.0, 16.0, 32.0):
            lo, hi = -1.0 / u, 1.0
            vs = lo + (np.arange(257) + 0.381966) / 257 * (hi - lo)
            sups.append(max(abs(kernel_k0(fam, u, float(v))) for v in vs))
    assert all(a > b for a, b in zip(sups, sups[1:])), sups


def test_c08_cwt_moment_decay_slope_at_most_minus_1_3():
    spec = cwt.CwtSpec(
        c_mu=4.0,
        beta=0.5,
        c_tau=1.0,
        alpha=1.0,
        slab=Gaussian(1.0),
        a0=1.0,
        a_max=2.0**13,
    )
    with Budget(180.0):
        report = cwt.moment_bound_experiment(
            spec, wavelets.family("daub4"), 2.0, range(4, 11), reps=200, seed=1
        )
    assert report.expected_slope == pytest.approx(-1.5)
    assert report.slope is not None and report.slope <= -1.3


def test_c09_poisson_intensity_matches_closed_form():
    spec = cwt.CwtSpec(
        c_mu=2.0,
        beta=0.5,
        c_tau=1.0,
        alpha=1.0,
        slab=Gaussian(1.0),
        a0=1.0,
        a_max=16.0,
    )
    assert spec.intensity_total() == pytest.approx(12.0)
    reps = 200
    with Budget(10.0):
        counts = [len(cwt.sample_atoms(spec, seed=0, replicate=r)) for r in range(reps)]
    tolerance = 3.0 * math.sqrt(12.0 / reps)
    assert abs(float(np.mean(counts)) - 12.0) <= tolerance


def _dense_level_norm(full: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(full))) if full.size else 0.0
    return float(np.sum(np.abs(full) ** p) ** (1.0 / p))


def _dense_norm(t: CoefficientTree, bp: BesovParams) -> float:
    total = _dense_level_norm(np.asarray(t.scaling, dtype=np.float64), bp.p)
    weight = bp.s + 0.5 - bp.inv_p
    terms = []
    for lev in t.levels:
        full = np.zeros(2**lev.j)
        full[lev.k] = lev.w
        terms.append(2.0 ** (lev.j * weight) * _dense_level_norm(full, bp.p))
    if not terms:
        return total
    if math.isinf(bp.q):
        return total + max(terms)
    return total + float(sum(a**bp.q for a in terms) ** (1.0 / bp.q))


def _random_tree(rng: np.random.Generator) -> CoefficientTree:
    j0 = int(rng.integers(0, 3))
    top = int(rng.integers(j0, 9))
    scaling = rng.normal(size=2**j0)
    levels = []
    for j in range(j0, top + 1):
        width = 2**j
        count = int(rng.integers(0, width + 1))
        k = np.sort(rng.choice(width, size=count, replace=False)).astype(np.int64)
        w = rng.normal(size=count) * 2.0 ** float(-rng.uniform(0.0, 2.0) * j)
        keep = w != 0.0
        levels.append(Level(j, k[keep], w[keep]))
    return CoefficientTree(j0, scaling, tuple(levels))


def test_c10_sparse_norm_matches_dense_and_p_norm_sandwich():
    rng = np.random.default_rng(42)
    ps = [1.0, 1.5, 2.0, 3.0, INF]
    qs = [1.0, 2.0, 4.0, INF]
    with Budget(5.0):
        for _ in range(100):
            tree = _random_tree(rng)
            bp = BesovParams(
                float(rng.uniform(0.1, 3.0)),
                ps[rng.integers(len(ps))],
                qs[rng.integers(len(qs))],
            )
            sparse = besov_seq_norm(tree, bp)
            dense = _dense_norm(tree, bp)
            assert sparse == pytest.approx(dense, rel=1e-12, abs=1e-300)
        pairs = [(0.5, 1.0), (1.0, 2.0), (2.0, 3.0), (1.5, INF), (2.0, INF)]
        for i in range(1000):
            x = rng.normal(size=int(rng.integers(1, 50)))
            v, l = pairs[i % len(pairs)]
            nl = vector_p_norm(x, l)
            nv = vector_p_norm(x, v)
            inv_l = 0.0 if math.isinf(l) else 1.0 / l
            slack = 1e-9 * max(nl, nv, 1.0)
            assert nl <= nv + slack
            assert nv <= x.size ** (1.0 / v - inv_l) * nl + slack


def test_c11_cli_verify_reports_byte_identical_across_threads(tmp_path):
    cfg = {
        "slab": {"family": "gaussian", "sigma": 1.0},
        "tau": {"c": 1.0, "e": 1.5},
        "pi": {"c": 1.0, "e": 0.5},
        "besov": {"s": 1.0, "p": 2.0, "q": 2.0},
        "levels": {"start": 8, "stop": 14},
        "reps": 30,
        "seed": 0,
    }
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps(cfg))
    reports = []
    tables = []
    with Budget(60.0):
        for n in ("1", "4", "8"):
            out = tmp_path / f"report-{n}.json"
            table = tmp_path / f"levels-{n}.csv"
            code = main(
                [
                    "verify",
                    "--config",
                    str(cfg_path),
                    "--threads",
                    n,
                    "--out",
                    str(out),
                    "--csv",
                    str(table),
                ]
            )
            assert code == 0
            reports.append(out.read_bytes())
            tables.append(table.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert tables[0] == tables[1] == tables[2]
