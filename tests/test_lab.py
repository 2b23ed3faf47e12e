import json
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from besovlab import lab
from besovlab.besov import level_terms
from besovlab.cwt import CwtSpec, moment_bound_experiment
from besovlab.distributions import (
    Cauchy,
    Gaussian,
    Laplace,
    PowerExponential,
    StudentT,
    sample,
    sample_abs,
)
from besovlab.fields import ConfigError
from besovlab.lab import (
    _mean_stderr,
    _run_reps,
    _summarise,
    empirical_membership,
    evt_experiment,
    exponent_regression,
    lln_experiment,
)
from besovlab.sampler import PriorSpec, sample_tree
from besovlab.schedules import Infinite, LevelSchedule, Regression
from besovlab.theory import BesovParams
from besovlab.wavelets import family

INF = math.inf

# E|N(0,1)| frozen from a quadrature oracle (see test_distributions)
ABS_MOMENT_GAUSS_1 = 0.7978845608028651


def spec_of(slab, tau, pi, j_max=20):
    return PriorSpec(tau=tau, pi=pi, slab=slab, mode=Infinite(j_max))


# ---------------------------------------------------------------------------
# law of large numbers for randomly indexed sums
# ---------------------------------------------------------------------------

def test_lln_gaussian_second_moment_targets_one():
    report = lln_experiment(
        Gaussian(1.0), LevelSchedule(1.0, 0.5, 0.0), m=2.0,
        levels=[18], reps=50, seed=11,
    )
    stat = report.levels[0]
    assert stat.count == 50
    assert stat.n_value == pytest.approx(2.0**9)
    assert abs(stat.mean - 1.0) < 0.05
    assert report.expected_ratio == pytest.approx(1.0)


def test_lln_gaussian_first_moment_targets_quadrature_value():
    report = lln_experiment(
        Gaussian(1.0), LevelSchedule(1.0, 0.5, 0.0), m=1.0,
        levels=[18], reps=50, seed=7,
    )
    assert abs(report.levels[0].mean - ABS_MOMENT_GAUSS_1) < 0.03
    assert report.expected_ratio == pytest.approx(ABS_MOMENT_GAUSS_1)


def test_lln_classical_limit_with_full_levels():
    report = lln_experiment(
        Gaussian(1.0), LevelSchedule(1.0), m=2.0, levels=[20], reps=2, seed=3,
    )
    assert abs(report.levels[0].mean - 1.0) < 0.01


def test_lln_stderr_scales_with_effective_sample_size():
    report = lln_experiment(
        Gaussian(1.0), LevelSchedule(1.0), m=2.0, levels=[10, 16], reps=50, seed=5,
    )
    lo, hi = report.levels
    ratio = lo.stderr / hi.stderr
    # 1/sqrt(n_j reps) predicts a factor of 8; allow a factor-2 band
    assert 4.0 < ratio < 16.0


def test_lln_rejects_infinite_moment_and_wrong_regime():
    with pytest.raises(ValueError):
        lln_experiment(Cauchy(), LevelSchedule(1.0, 0.5, 0.0), m=2.0, levels=[10], reps=5)
    with pytest.raises(ValueError):
        lln_experiment(Gaussian(1.0), LevelSchedule(1.0, 1.0, 0.0), m=2.0, levels=[10], reps=5)


# ---------------------------------------------------------------------------
# extreme-value normalisation
# ---------------------------------------------------------------------------

def test_mean_stderr_survives_deviations_whose_squares_leave_the_float_range():
    # (1e-170)^2 underflows to 0.0; the same values scaled by 2^600 do not
    xs = [1e-170, 3e-170, 5e-171]
    mean, stderr = _mean_stderr(xs)
    _, scaled = _mean_stderr([math.ldexp(x, 600) for x in xs])
    assert stderr > 0.0
    assert stderr == pytest.approx(math.ldexp(scaled, -600), rel=1e-15)
    # (1e200)^2 overflows: the same scaling keeps the square finite
    assert _mean_stderr([1e200, -1e200, 3e200])[1] == pytest.approx(2e200 / math.sqrt(3.0))


@given(xs=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=30))
@settings(max_examples=200, deadline=None)
def test_mean_stderr_is_the_plain_formula_when_no_square_underflows(xs):
    n = len(xs)
    mean = math.fsum(xs) / n
    assume(all(x == mean or abs(x - mean) > 1e-140 for x in xs))
    plain = math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / (n - 1) / n)
    assert _mean_stderr(xs) == (mean, plain)


def test_evt_laplace_ratio_concentrates_at_one():
    report = evt_experiment(
        Laplace(1.0), LevelSchedule(1.0), levels=[18], reps=60, seed=2,
    )
    stat = report.levels[0]
    assert abs(stat.median - 1.0) < 0.1
    assert report.expected_ratio == pytest.approx(1.0)


def test_evt_gumbel_trend_toward_one():
    report = evt_experiment(
        Gaussian(1.0), LevelSchedule(1.0), levels=[12, 16, 20], reps=50, seed=9,
    )
    meds = [stat.median for stat in report.levels]
    assert abs(meds[-1] - 1.0) <= abs(meds[0] - 1.0) + 0.02


def test_evt_cauchy_ratio_keeps_macroscopic_spread():
    report = evt_experiment(
        Cauchy(), LevelSchedule(1.0), levels=[12, 16], reps=60, seed=4,
    )
    for stat in report.levels:
        assert stat.q75 - stat.q25 > 0.5
    assert report.expected_ratio == pytest.approx(1.0 / math.log(2.0))


@pytest.mark.parametrize("slab", [Laplace(1.0), Gaussian(1.0), StudentT(3.0)], ids=["laplace", "gaussian", "student_t"])
def test_level_maxima_from_their_law_match_raw_maxima(slab):
    """evt draws a level's maximum from its exact law; at level 12 that law
    must not be told apart from the maximum of 4096 raw folded draws by a
    two-sample Kolmogorov-Smirnov test at the 5% level."""
    count, reps = 1 << 12, 400
    rng = np.random.default_rng(12)
    exact = [lab._level_max(slab, rng, count) for _ in range(reps)]
    raw = [float(np.max(sample_abs(slab, rng, count))) for _ in range(reps)]
    assert stats.ks_2samp(exact, raw).pvalue > 0.05


def test_level_max_of_no_draws_is_zero_and_of_one_is_a_draw():
    rng = np.random.default_rng(3)
    assert lab._level_max(Laplace(1.0), rng, 0) == 0.0
    # one draw: t = 1 - V, so the maximum is the folded quantile of V
    v = np.random.default_rng(3).random()
    assert lab._level_max(Laplace(1.0), rng, 1) == pytest.approx(-math.log1p(-v), rel=1e-12)


def test_evt_rejects_sub_unit_expected_counts():
    with pytest.raises(ValueError):
        evt_experiment(Gaussian(1.0), LevelSchedule(0.001), levels=[5], reps=5)


# ---------------------------------------------------------------------------
# exponent regression
# ---------------------------------------------------------------------------

def test_exponent_regression_recovers_negative_slope():
    spec = spec_of(Gaussian(1.0), LevelSchedule(1.0, 1.5, 0.0), LevelSchedule(1.0, 0.5, 0.0))
    report = exponent_regression(
        spec, BesovParams(1.0, 2, 2), levels=range(8, 17), reps=40, seed=21,
    )
    assert report.expected_slope == pytest.approx(-0.5)
    assert abs(report.slope - report.expected_slope) < 0.08
    assert not report.degenerate
    assert report.slope_stderr < 0.05


@pytest.mark.parametrize("slab", [Gaussian(1.0), StudentT(5.0)], ids=["gaussian", "student_t"])
@pytest.mark.parametrize(
    "pi", [LevelSchedule(1.0, 0.6, 0.0), LevelSchedule(1.0)], ids=["sparse", "full"]
)
def test_level_terms_are_those_of_sampled_trees(slab, pi):
    # the lab sees exactly the coefficients sample_tree draws from each stream
    levels, reps, seed = list(range(3, 10)), 6, 17
    spec = spec_of(slab, LevelSchedule(1.0, 0.8, 0.0), pi, j_max=levels[-1])
    bp = BesovParams(0.7, 2.0, 3.0)
    report = exponent_regression(spec, bp, levels, reps=reps, seed=seed)
    per_level = {j: [] for j in levels}
    for rep in range(reps):
        tree = sample_tree(spec, levels[0], seed=seed, replicate=rep)
        for j, a_j in zip(levels, level_terms(tree, bp)):
            if a_j > 0:
                per_level[j].append(bp.q * math.log2(a_j))
    n_values = [stat.n_value for stat in report.levels]
    assert report.levels == tuple(
        _summarise(j, n, per_level[j]) for j, n in zip(levels, n_values)
    )


def test_exponent_regression_flat_when_tuned_to_the_norm_exponent():
    s = 1.0
    spec = spec_of(Gaussian(1.0), LevelSchedule(1.0, s + 0.5, 0.0), LevelSchedule(1.0))
    report = exponent_regression(
        spec, BesovParams(s, 2, 2), levels=range(8, 15), reps=40, seed=13,
    )
    assert report.expected_slope == pytest.approx(0.0)
    assert abs(report.slope) < 0.08


def test_exponent_regression_summable_counts_degenerate():
    spec = spec_of(Gaussian(1.0), LevelSchedule(1.0, 0.5, 0.0), LevelSchedule(1.0, 2.0, 0.0))
    report = exponent_regression(
        spec, BesovParams(1.0, 2, 2), levels=range(8, 13), reps=10, seed=1,
    )
    assert report.degenerate
    assert report.dropped_fraction > 0.2
    assert report.slope is None
    assert report.expected_slope is None


def test_exponent_regression_rejects_q_inf_and_bad_levels():
    spec = spec_of(Gaussian(1.0), LevelSchedule(1.0, 1.5, 0.0), LevelSchedule(1.0, 0.5, 0.0))
    with pytest.raises(ValueError):
        exponent_regression(spec, BesovParams(1.0, 2, INF), levels=[8, 9], reps=5)
    with pytest.raises(ValueError):
        exponent_regression(
            spec_of(Gaussian(1.0), LevelSchedule(1.0), LevelSchedule(1.0), j_max=10),
            BesovParams(1.0, 2, 2), levels=[12], reps=5,
        )
    with pytest.raises(ValueError):
        exponent_regression(spec, BesovParams(1.0, 2, 2), levels=[8, 9], reps=1)


def test_exponent_regression_infinite_p_moment_gate():
    spec = spec_of(Cauchy(), LevelSchedule(1.0, 1.5, 0.0), LevelSchedule(1.0, 0.5, 0.0))
    with pytest.raises(ValueError):
        exponent_regression(spec, BesovParams(1.0, 2, 2), levels=[8, 9], reps=5)


# ---------------------------------------------------------------------------
# empirical membership vs the symbolic classifier
# ---------------------------------------------------------------------------

# Twelve off-boundary configurations (threshold margin >= 0.2) spanning
# growing, constant, and summable expected-count regimes.  The sparse
# constant-count pair needs more levels and replicates: with one expected
# survivor per level the per-replicate slopes carry chi-square log noise.
MEMBERSHIP_FIXTURE = [
    # growing counts, p finite
    (Gaussian(1.0), (1.5, 0.0), (0.5, 0.0), 1.0, 2, 2, True, 30, range(8, 15)),
    (Gaussian(1.0), (1.5, 0.0), (0.5, 0.0), 1.5, 2, 2, False, 30, range(8, 15)),
    (Laplace(1.0), (1.0, 0.0), (0.0, 0.0), 0.25, 1, 2, True, 30, range(8, 15)),
    (Laplace(1.0), (1.0, 0.0), (0.0, 0.0), 0.75, 1, 2, False, 30, range(8, 15)),
    (StudentT(5.0), (1.2, 0.0), (0.4, 0.0), 0.65, 2, 2, True, 30, range(8, 15)),
    (StudentT(5.0), (1.2, 0.0), (0.4, 0.0), 1.15, 2, 2, False, 30, range(8, 15)),
    (PowerExponential(1.5), (1.4, 0.0), (0.6, 0.0), 0.9, 2, 2, True, 30, range(8, 15)),
    # constant counts
    (Gaussian(1.0), (1.0, 0.0), (1.0, 0.0), 0.75, 2, 2, True, 60, range(8, 17)),
    (Gaussian(1.0), (1.0, 0.0), (1.0, 0.0), 1.25, 2, 2, False, 60, range(8, 17)),
    # summable counts: finitely many nonzero coefficients
    (Gaussian(1.0), (0.5, 0.0), (2.0, 0.0), 1.0, 2, 2, True, 30, range(8, 15)),
    (Laplace(1.0), (0.0, 0.0), (1.5, 0.0), 0.5, 2, 3, True, 30, range(8, 15)),
    (StudentT(5.0), (2.0, 0.0), (3.0, 0.0), 1.5, 3, 2, True, 30, range(8, 15)),
]


@pytest.mark.parametrize("idx", range(len(MEMBERSHIP_FIXTURE)))
def test_membership_agrees_off_boundary(idx):
    slab, (e_t, g_t), (e_pi, g_pi), s, p, q, member, reps, levels = MEMBERSHIP_FIXTURE[idx]
    spec = spec_of(slab, LevelSchedule(1.0, e_t, g_t), LevelSchedule(1.0, e_pi, g_pi))
    report = empirical_membership(
        spec, BesovParams(s, p, q), levels=levels, reps=reps, seed=100 + idx,
    )
    assert report.theory_verdict["decision"] == ("MemberAS" if member else "NotMemberAS")
    assert report.agree is True
    expected = "Converges" if member else "Diverges"
    assert report.empirical_verdict == expected


def test_membership_threshold_case_is_inconclusive():
    spec = spec_of(Gaussian(1.0), LevelSchedule(1.0, 1.5, 0.0), LevelSchedule(1.0, 0.5, 0.0))
    report = empirical_membership(
        spec, BesovParams(1.25, 2, 2), levels=range(8, 15), reps=30, seed=42,
    )
    assert report.expected_slope == pytest.approx(0.0)
    assert report.empirical_verdict == "Inconclusive"
    assert report.agree is False


def test_membership_sup_mode_uses_unit_power():
    spec = spec_of(Gaussian(1.0), LevelSchedule(1.0, 1.5, 0.0), LevelSchedule(1.0, 0.5, 0.0))
    report = empirical_membership(
        spec, BesovParams(1.0, 2, INF), levels=range(8, 15), reps=30, seed=8,
    )
    # sup-trend slope is s + 1/2 - e_tau - e_pi/p = -0.25
    assert report.expected_slope == pytest.approx(-0.25)
    assert report.empirical_verdict == "Converges"
    assert report.agree is True


def test_expected_slope_is_read_where_the_verdict_tests_no_pair():
    # case 2's Gumbel auxiliary condition fails, so the verdict decides no
    # exponent pair; the expected slope is still 2 (s + 1/2 - e_tau) = -1
    spec = spec_of(Gaussian(1.0), LevelSchedule(1.0, 1.5, 0.0), LevelSchedule(1.0, 1.0, 1.0), j_max=14)
    report = empirical_membership(spec, BesovParams(0.5, INF, 2.0), levels=range(8, 15), reps=10, seed=1)
    assert report.expected_slope == -1.0
    verdict = report.theory_verdict
    assert (verdict["decision"], verdict["case_id"]) == ("NotCovered", "general/case2-gumbel")


@pytest.mark.parametrize(
    "pi, levels, verdict, fitted",
    [
        # summable counts: the upper half of the levels is empty in every replicate
        ((2.0, 0.0), range(8, 13), "Converges", False),
        # one level: no slope to fit
        ((0.0, 0.0), [8], "Inconclusive", False),
        # constant counts: a slope is fitted, but about a third of the pairs are empty
        ((1.0, 0.0), range(6, 14), "Converges", True),
    ],
    ids=["empty-upper-half", "one-level", "dropped-above-a-fifth"],
)
def test_membership_flags_degenerate_runs(pi, levels, verdict, fitted):
    spec = spec_of(Gaussian(1.0), LevelSchedule(1.0, 1.5, 0.0), LevelSchedule(1.0, *pi))
    report = empirical_membership(spec, BesovParams(1.0, 2, 2), levels=levels, reps=20, seed=3)
    assert (report.empirical_verdict, report.degenerate) == (verdict, True)
    assert (report.slope is not None) == fitted
    assert fitted <= (report.dropped_fraction > 0.2)


def test_membership_regression_mode_detrends_by_the_sample_rate():
    spec = PriorSpec(
        tau=LevelSchedule(0.7),
        pi=LevelSchedule(1.0, 0.5, 0.0),
        slab=Laplace(1.0),
        mode=Regression(1 << 15),
    )
    report = empirical_membership(
        spec, BesovParams(0.2, 2, 2), levels=range(6, 15), reps=40, seed=17,
    )
    assert report.expected_slope == pytest.approx(2 * 0.45 - 1.0)
    assert report.empirical_verdict == "Converges"
    assert report.theory_verdict["decision"] == "MemberAS"
    assert report.agree is True


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_reports_identical_across_thread_counts():
    spec = spec_of(Gaussian(1.0), LevelSchedule(1.0, 1.5, 0.0), LevelSchedule(1.0, 0.5, 0.0))
    kwargs = dict(levels=range(8, 13), reps=12, seed=33)
    one = empirical_membership(spec, BesovParams(1.0, 2, 2), threads=1, **kwargs)
    four = empirical_membership(spec, BesovParams(1.0, 2, 2), threads=4, **kwargs)
    assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(four.to_dict(), sort_keys=True)

    lln_one = lln_experiment(Gaussian(1.0), LevelSchedule(1.0, 0.5, 0.0), 2.0,
                             levels=[10, 12], reps=8, seed=5, threads=1)
    lln_three = lln_experiment(Gaussian(1.0), LevelSchedule(1.0, 0.5, 0.0), 2.0,
                               levels=[10, 12], reps=8, seed=5, threads=3)
    assert lln_one.to_dict() == lln_three.to_dict()

    evt_one = evt_experiment(Laplace(1.0), LevelSchedule(1.0), levels=[6, 9], reps=6, seed=8,
                             threads=1)
    evt_two = evt_experiment(Laplace(1.0), LevelSchedule(1.0), levels=[6, 9], reps=6, seed=8,
                             threads=2)
    assert evt_one.to_dict() == evt_two.to_dict()

    # a Laplace slab reads its magnitudes from Exp(lam), sample_abs's own stream
    lln_laplace = [
        json.dumps(
            lln_experiment(Laplace(2.0), LevelSchedule(1.0, 0.5, 0.0), 1.5, levels=[9, 11],
                           reps=7, seed=4, threads=n).to_dict(),
            sort_keys=True,
        )
        for n in (1, 2, 3)
    ]
    assert lln_laplace == lln_laplace[:1] * 3

    cwt_spec = CwtSpec(3.0, 0.5, 1.0, 1.0, Gaussian(1.0), a0=1.0, a_max=16.0)
    moments = [
        moment_bound_experiment(cwt_spec, family("daub4"), 2.0, levels=[2, 3, 4], reps=4, seed=2,
                                threads=n)
        for n in (1, 2)
    ]
    assert moments[0].to_dict() == moments[1].to_dict()


@pytest.mark.parametrize(
    "slab",
    [Gaussian(1.5), StudentT(3.0), Cauchy(), PowerExponential(0.5, 1.0), PowerExponential(2.0, 3.0)],
)
def test_abs_chunks_fold_the_signed_stream_across_chunks(monkeypatch, slab):
    """Without a Laplace slab, a draw spanning several chunks reads the
    stream the signed draws read, chunk after chunk."""
    monkeypatch.setattr(lab, "_CHUNK", 1000)
    got = np.concatenate(list(lab._abs_chunks(slab, np.random.default_rng(5), 2500)))
    rng = np.random.default_rng(5)
    want = np.concatenate([np.abs(sample(slab, rng, take)) for take in (1000, 1000, 500)])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
@pytest.mark.parametrize("reps", [2, 3, 7, 10])
def test_run_reps_equals_the_serial_loop(reps, threads):
    def work(rep):
        return [rep, rep * rep]

    assert _run_reps(reps, threads, work) == [work(rep) for rep in range(reps)]


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_run_reps_submits_one_task_per_thread(monkeypatch, threads):
    submitted = []

    class Pool(ThreadPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args)
            return super().submit(fn, *args)

    monkeypatch.setattr(lab, "ThreadPoolExecutor", Pool)
    assert _run_reps(10, threads, lambda rep: rep * rep) == [rep * rep for rep in range(10)]
    assert len(submitted) == (0 if threads == 1 else threads)  # one thread: no pool


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_run_reps_raises_the_earliest_error(threads):
    def work(rep):
        if rep in (4, 6, 9):
            time.sleep(0.01 if rep == 4 else 0.0)  # a later block fails first
            raise ValueError(f"rep {rep}")
        return rep

    with pytest.raises(ValueError, match="^rep 4$"):
        _run_reps(10, threads, work)


@pytest.mark.parametrize(
    "levels, reps, path, reason",
    [
        ([], 2, "levels", "need at least one level"),
        ([4, -1], 2, "levels", "levels must be >= 0, got -1"),
        ([4, 70], 1, "levels", "level 70 is above 62, the highest level a draw supports"),
        ([4, 5], 1, "reps", "need at least 2 replicates for a standard error, got 1"),
    ],
)
def test_level_list_checks_levels_then_reps(levels, reps, path, reason):
    with pytest.raises(ConfigError) as info:
        lab._level_list(levels, reps)
    assert (info.value.path, info.value.reason) == (path, reason)


# each experiment that reads a list of levels, as a function of that list
LEVEL_EXPERIMENTS = pytest.mark.parametrize(
    "experiment",
    [
        lambda levels: lln_experiment(Gaussian(1.0), LevelSchedule(1.0, 0.5, 0.0), 2.0, levels, reps=2),
        lambda levels: moment_bound_experiment(
            CwtSpec(3.0, 0.5, 1.0, 1.0, Gaussian(1.0), a0=1.0, a_max=16.0), family("daub4"), 2.0,
            levels, reps=2,
        ),
    ],
    ids=["lln", "moment"],
)


@LEVEL_EXPERIMENTS
def test_a_level_that_is_not_an_integer_is_refused(experiment):
    # int() would truncate 3.7 and run level 3
    with pytest.raises(ConfigError) as info:
        experiment([3.7, 4])
    assert info.value.path == "levels"
    assert info.value.reason.startswith("expected integer levels")
    assert [ls.j for ls in experiment(np.arange(3, 5)).levels] == [3, 4]


@LEVEL_EXPERIMENTS
def test_a_boolean_level_is_refused(experiment):
    # operator.index would take True as level 1; the CLI refuses a boolean level too
    with pytest.raises(ConfigError) as info:
        experiment([True, 4])
    assert (info.value.path, info.value.reason) == ("levels", "expected integer levels (got the bool True)")


@pytest.mark.parametrize("threads", [0, 65])
def test_thread_count_outside_its_bound_is_refused(monkeypatch, threads):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(lab, "ThreadPoolExecutor", no_pool)
    with pytest.raises(ConfigError) as info:
        lln_experiment(Gaussian(1.0), LevelSchedule(1.0, 0.5, 0.0), 2.0, levels=[4, 5], reps=2,
                       threads=threads)
    assert info.value.path == "threads"
    assert info.value.reason == f"expected an integer in [1, 64], got {threads}"


def test_reports_change_with_seed():
    kwargs = dict(levels=[10], reps=6)
    a = lln_experiment(Gaussian(1.0), LevelSchedule(1.0, 0.5, 0.0), 2.0, seed=1, **kwargs)
    b = lln_experiment(Gaussian(1.0), LevelSchedule(1.0, 0.5, 0.0), 2.0, seed=2, **kwargs)
    assert a.levels[0].mean != b.levels[0].mean
