"""Monte Carlo verification harness.

Four experiments cross-check the symbolic classifiers against simulation:

* `lln_experiment`          law of large numbers for the randomly indexed
  sums ``S_j = sum_{i <= N_j} |xi_i|^m`` with ``N_j ~ Bin(2^j, pi_j)``;
  the ratios ``S_j / n_j`` drift to the slab moment ``nu_m``.
* `evt_experiment`          extreme-value normalisation of level maxima:
  ``max_k |z_jk| / b_j`` with ``b_j`` the ``1 - 1/n_j`` folded quantile.
  Light (Gumbel-class) tails concentrate at 1; polynomial tails converge
  to a Frechet law and keep spread.
* `exponent_regression`     least-squares slope of ``log2`` level terms
  against the level index, compared to the exact schedule exponent.
* `empirical_membership`    turns the fitted slope into a verdict
  (Converges / Diverges / Inconclusive at three standard errors) and
  checks agreement with the symbolic classifier.

All experiments are bit-reproducible for a fixed ``(seed, reps, levels)``
regardless of the thread count: each (replicate, level) pair gets its own
seed stream via `sampler.rng_for`, replicates are farmed out to a thread
pool, and aggregation walks results in replicate order.  Counts and level
values come from `sampler.draw_count` / `sampler.draw_level`, so a level
seen here is the level `sampler.sample_tree` draws from the same stream.
"""

from __future__ import annotations

import math
import operator
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .besov import level_term
from .distributions import (
    FrechetTail,
    SlabDistribution,
    absolute_moment,
    has_moment,
    quantile_hplus,
    sample_abs,
    tail_class,
)
from .fields import _MAX_THREADS, ConfigError
from .sampler import (
    PriorSpec,
    _check_level,
    check_draw_size,
    draw_count,
    draw_level,
    rng_for,
)
from .schedules import GrowthKind, LevelSchedule, Regression, clamped_exponents, growth_regime
from .theory import BesovParams, _level_offset, classify_general, classify_regression

__all__ = [
    "LevelStat",
    "ExperimentReport",
    "lln_experiment",
    "evt_experiment",
    "exponent_regression",
    "empirical_membership",
]

_CHUNK = 1 << 22  # cap per-draw memory at 32 MiB of float64
# bounds the per-level results an experiment holds until it ends, replicates
# times levels: a result costs at most 96 bytes, so 2^22 of them about 400 MB
_MAX_RESULTS = 1 << 22


@dataclass(frozen=True)
class LevelStat:
    """Per-level summary across replicates."""

    j: int
    count: int
    n_value: float
    mean: float | None
    stderr: float | None
    median: float | None
    q25: float | None
    q75: float | None

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    reps: int  # replicates run; not in `to_dict`
    levels: tuple[LevelStat, ...]
    expected_ratio: float | None = None
    slope: float | None = None
    slope_stderr: float | None = None
    expected_slope: float | None = None
    empirical_verdict: str | None = None
    theory_verdict: dict | None = None
    agree: bool | None = None
    dropped_fraction: float = 0.0
    degenerate: bool = False

    @property
    def config(self) -> dict:
        """``{"reps": reps}``, the one input ``perfbench/trace_shim.py`` reads back."""
        return {"reps": self.reps}

    def to_dict(self) -> dict:
        out = {k: v for k, v in vars(self).items() if k != "reps"}
        return {**out, "levels": [ls.to_dict() for ls in self.levels]}


def _level_list(levels, reps: int) -> list[int]:
    """The sorted distinct levels of an experiment, once its ``levels`` and
    ``reps`` are checked (at most `_MAX_RESULTS` results in all); errors
    name the field."""
    try:
        levels = list(levels)
        for j in levels:
            if isinstance(j, bool):  # `operator.index` takes True as 1
                raise TypeError(f"got the bool {j!r}")
        out = sorted(set(map(operator.index, levels)))
    except TypeError as exc:
        raise ConfigError("levels", f"expected integer levels ({exc})") from None
    if not out:
        raise ConfigError("levels", "need at least one level")
    if out[0] < 0:
        raise ConfigError("levels", f"levels must be >= 0, got {out[0]}")
    _check_level(out[-1], "levels")
    if reps < 2:
        raise ConfigError("reps", f"need at least 2 replicates for a standard error, got {reps}")
    if reps * len(out) > _MAX_RESULTS:
        reason = f"reps x levels = {reps} x {len(out)} exceeds the {_MAX_RESULTS} results kept"
        raise ConfigError("reps", reason)
    return out


def _run_reps(reps: int, threads: int, work):
    """Run ``work(rep)`` for each replicate, results in replicate order.
    Worker ``t`` of ``threads`` runs the replicates
    ``[reps*t//threads, reps*(t+1)//threads)`` as one loop, so the pool holds
    at most ``threads`` tasks and the error raised is the earliest failing
    replicate's; one thread runs that loop in the calling thread.  A
    ``threads`` outside ``[1, _MAX_THREADS]`` is refused before any starts."""
    if not 1 <= threads <= _MAX_THREADS:
        raise ConfigError("threads", f"expected an integer in [1, {_MAX_THREADS}], got {threads}")

    def block(t: int) -> list:
        return [work(rep) for rep in range(reps * t // threads, reps * (t + 1) // threads)]

    if threads == 1:
        return block(0)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [x for part in pool.map(block, range(threads)) for x in part]


def _level_rows(lv: list[int], reps: int, seed: int, threads: int, draw):
    """``rows[rep][i] = draw(rng_for(seed, rep, lv[i]), lv[i])``."""
    return _run_reps(reps, threads, lambda rep: [draw(rng_for(seed, rep, j), j) for j in lv])


def _mean_stderr(xs: list[float]) -> tuple[float, float]:
    n = len(xs)
    mean = math.fsum(xs) / n
    if n < 2:
        return mean, math.nan
    devs = [x - mean for x in xs]
    k = 0
    if any(d and not 2.0**-511 <= abs(d) < 2.0**512 for d in devs):
        # a square would underflow or overflow: square the deviations scaled
        # by 2^-k, k the exponent of the largest, and undo that after the root
        k = math.frexp(max(map(abs, devs)))[1]
    var = math.fsum(math.ldexp(d, -k) ** 2 for d in devs) / (n - 1)
    return mean, math.ldexp(math.sqrt(var / n), k)


def _summarise(j: int, n_value: float, xs: list[float]) -> LevelStat:
    if not xs:
        return LevelStat(j, 0, n_value, None, None, None, None, None)
    mean, stderr = _mean_stderr(xs)
    med = statistics.median(xs)
    if len(xs) < 2:
        return LevelStat(j, 1, n_value, mean, None, med, None, None)
    q25, _, q75 = statistics.quantiles(xs, n=4, method="inclusive")
    return LevelStat(j, len(xs), n_value, mean, stderr, med, q25, q75)


def _column_stats(lv: list[int], n_values: dict, rows) -> tuple[LevelStat, ...]:
    """One `_summarise` per level over the replicates' entries that are not None."""
    return tuple(
        _summarise(j, n_values[j], [row[i] for row in rows if row[i] is not None])
        for i, j in enumerate(lv)
    )


def _abs_chunks(slab: SlabDistribution, rng: np.random.Generator, count: int):
    """``|xi|`` for ``count`` slab draws, drawn from the folded law
    (`sample_abs`), in pieces of at most `_CHUNK` values."""
    while count > 0:
        take = min(count, _CHUNK)
        yield sample_abs(slab, rng, take)
        count -= take


def _growing_levels(pi: LevelSchedule, levels, reps: int, who: str):
    """Level list and expected counts ``n_j = 2^j min(1, pi_j)`` of a
    randomly indexed experiment, which needs ``n_j`` increasing to infinity
    and at most 2^24 expected draws per replicate."""
    lv = _level_list(levels, reps)
    if growth_regime(pi) is not GrowthKind.INCREASES_TO_INFINITY:
        raise ConfigError("pi", f"{who} needs an expected count increasing to infinity")
    check_draw_size(pi, lv, "levels")
    return lv, {j: (1 << j) * pi.clamped_at(j) for j in lv}


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def lln_experiment(
    slab: SlabDistribution,
    pi: LevelSchedule,
    m: float,
    levels=range(8, 19),
    reps: int = 50,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Ratios ``S_j / n_j`` for the randomly indexed sums of ``|xi|^m``.

    Requires a growing expected count and a finite slab moment; the
    per-level means drift toward ``nu_m = E|xi|^m``.
    """
    lv, n_values = _growing_levels(pi, levels, reps, "lln_experiment")
    if not m > 0:
        raise ConfigError("m", f"moment order must be positive, got {m}")
    if math.isinf(m):
        raise ConfigError("m", f"moment order must be finite, got {m}")
    if not has_moment(slab, m):
        raise ConfigError("m", f"E|xi|^{m:g} is infinite for {type(slab).__name__}")
    nu_m = absolute_moment(slab, m)
    if nu_m == math.inf:
        raise ConfigError(
            "m", f"E|xi|^{m:g} is finite but overflows a float for {type(slab).__name__}"
        )

    def draw(rng: np.random.Generator, j: int) -> float:
        total = 0.0
        for chunk in _abs_chunks(slab, rng, draw_count(rng, pi, j)):
            total += float(np.sum(chunk**m))
        return total / n_values[j]

    stats = _column_stats(lv, n_values, _level_rows(lv, reps, seed, threads, draw))
    return ExperimentReport("lln", reps, stats, expected_ratio=nu_m)


def evt_experiment(
    slab: SlabDistribution,
    pi: LevelSchedule,
    levels=range(8, 19),
    reps: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Level maxima normalised by the ``1 - 1/n_j`` folded quantile.

    For Gumbel-class tails the ratio concentrates at 1; for polynomial
    tails it converges in law to a Frechet distribution whose median is
    ``(ln 2)^(-1/ell)``, so the per-level medians target that value while
    the spread stays macroscopic.
    """
    lv, n_values = _growing_levels(pi, levels, reps, "evt_experiment")
    b_values = {}
    for j, n_j in n_values.items():
        if n_j <= 1.0:
            raise ConfigError("levels", f"expected count n_j={n_j:g} <= 1 at level {j}")
        b_values[j] = quantile_hplus(slab, 1.0 - 1.0 / n_j)

    def draw(rng: np.random.Generator, j: int) -> float:
        chunks = _abs_chunks(slab, rng, draw_count(rng, pi, j))
        return max((float(np.max(chunk)) for chunk in chunks), default=0.0) / b_values[j]

    stats = _column_stats(lv, n_values, _level_rows(lv, reps, seed, threads, draw))
    tc = tail_class(slab)
    expected = math.log(2.0) ** (-1.0 / tc.ell) if isinstance(tc, FrechetTail) else 1.0
    return ExperimentReport("evt", reps, stats, expected_ratio=expected)


def _slope_fit(points: list[tuple[int, float]]) -> float | None:
    if len(points) < 2:
        return None
    xs = [float(j) for j, _ in points]
    ys = [y for _, y in points]
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    if sxx == 0.0:
        return None
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    return sxy / sxx


def _level_term_experiment(
    kind: str,
    spec: PriorSpec,
    bp: BesovParams,
    power: float,
    detrend: float,
    levels,
    reps: int,
    seed: int,
    threads: int,
) -> tuple[ExperimentReport, int]:
    """Shared core: per-replicate ``power * log2`` level terms, their mean
    slope less ``detrend`` and the expected slope ``power * E - detrend``
    for the level exponent ``E`` of the symbolic classifiers (None outside
    their regimes).  Returns the report, degenerate when no slope was fitted
    or over 20% of (replicate, level) pairs were empty, and the count of
    replicates whose upper half of levels was empty."""
    lv = _level_list(levels, reps)
    if not math.isinf(bp.p) and not has_moment(spec.slab, bp.p):
        raise ConfigError(
            "besov.p", f"E|xi|^p is infinite for p={bp.p} under {type(spec.slab).__name__}"
        )
    top = spec.top_level()
    if lv[-1] > top:
        raise ConfigError("levels", f"level {lv[-1]} exceeds the model's top level {top}")
    check_draw_size(spec.pi, lv, "levels")

    def draw(rng: np.random.Generator, j: int) -> float | None:
        vals = draw_level(spec, rng, j)
        if vals.size == 0:
            return None
        a_j = level_term(j, vals, bp)
        return power * math.log2(a_j) if a_j > 0 else None

    rows = _level_rows(lv, reps, seed, threads, draw)
    stats = _column_stats(lv, {j: (1 << j) * spec.pi.clamped_at(j) for j in lv}, rows)
    fits = (_slope_fit([(j, y) for j, y in zip(lv, row) if y is not None]) for row in rows)
    slopes = [fit for fit in fits if fit is not None]
    upper_half = range(len(lv) // 2, len(lv))
    empty_tail_votes = sum(all(row[i] is None for i in upper_half) for row in rows)
    dropped = sum(y is None for row in rows for y in row) / (reps * len(lv))

    if len(slopes) >= 2:
        slope, slope_stderr = _mean_stderr(slopes)
        slope -= detrend
    else:
        slope, slope_stderr = None, None
    _, e_pi, g_pi = clamped_exponents(spec.pi)
    pair = _level_offset(growth_regime(spec.pi), spec.slab, spec.tau, e_pi, g_pi, bp.p)
    expected = None if pair is None else float(Fraction(power) * (Fraction(bp.s) + pair[0]) - Fraction(detrend))
    report = ExperimentReport(
        kind,
        reps,
        stats,
        slope=slope,
        slope_stderr=slope_stderr,
        expected_slope=expected,
        dropped_fraction=dropped,
        degenerate=dropped > 0.2 or slope is None,
    )
    return report, empty_tail_votes


def exponent_regression(
    spec: PriorSpec,
    bp: BesovParams,
    levels=range(8, 19),
    reps: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Fit the base-2 slope of the level terms ``a_j^q`` against ``j``.

    Empty levels are dropped from each replicate's fit; the report is
    flagged degenerate when more than 20% of (replicate, level) pairs
    were dropped.  Requires ``q < inf``.
    """
    if math.isinf(bp.q):
        raise ConfigError("besov.q", "exponent_regression needs q < inf; use empirical_membership")
    kind = "exponent_regression"
    return _level_term_experiment(kind, spec, bp, bp.q, 0.0, levels, reps, seed, threads)[0]


def empirical_membership(
    spec: PriorSpec,
    bp: BesovParams,
    levels=range(8, 19),
    reps: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Monte Carlo membership verdict cross-checked against the classifier.

    The fitted slope of ``log2 a_j^q`` (``log2 a_j`` for ``q = inf``) is
    turned into a verdict at three standard errors: negative trend means
    the norm series converges, positive trend means it diverges.  In
    regression mode the slope is first detrended by the ``n^{q/2}``
    normalisation (``q/2`` per level, ``1/2`` for sups), which is what the
    finite-sample criterion compares against.  When the expected counts
    are summable the upper levels are empty and the tail of the norm is
    literally a finite sum; ninety percent of replicates showing an empty
    upper half short-circuits to Converges.
    """
    power = 1.0 if math.isinf(bp.q) else bp.q
    regression_mode = isinstance(spec.mode, Regression)
    detrend = power / 2.0 if regression_mode else 0.0
    report, empty_votes = _level_term_experiment(
        "empirical_membership", spec, bp, power, detrend, levels, reps, seed, threads
    )
    slope, slope_stderr = report.slope, report.slope_stderr
    empty_tail = empty_votes >= 0.9 * reps
    if empty_tail:
        verdict = "Converges"
    elif slope is None:
        verdict = "Inconclusive"
    elif slope < -3.0 * slope_stderr:
        verdict = "Converges"
    elif slope > 3.0 * slope_stderr:
        verdict = "Diverges"
    else:
        verdict = "Inconclusive"

    classify = classify_regression if regression_mode else classify_general
    theory = classify(spec.slab, spec.tau, spec.pi, bp, math.inf)
    if not theory.covered:
        agree = None
    elif verdict == "Converges":
        agree = theory.is_member
    elif verdict == "Diverges":
        agree = not theory.is_member
    else:
        agree = False

    return replace(
        report,
        empirical_verdict=verdict,
        theory_verdict=theory.to_dict(),
        agree=agree,
        degenerate=report.degenerate or empty_tail,
    )
