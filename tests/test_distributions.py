import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from besovlab.distributions import (
    Cauchy,
    FrechetTail,
    Gaussian,
    GumbelTail,
    Laplace,
    PowerExponential,
    StudentT,
    absolute_moment,
    cdf_hplus,
    has_moment,
    isf_hplus,
    quantile_hplus,
    sample,
    sample_abs,
    tail_class,
    _betainc_reg,
)

ALL_SLABS = [
    Gaussian(1.0),
    Gaussian(2.0),
    Laplace(1.0),
    Laplace(0.5),
    StudentT(3.0),
    StudentT(1.5),
    Cauchy(),
    PowerExponential(1.5, 2.0),
    PowerExponential(3.0, 1.0),
]


def test_cdf_anchor_values():
    assert cdf_hplus(Laplace(1.0), math.log(2)) == pytest.approx(0.5, abs=1e-14)
    assert cdf_hplus(Cauchy(), 1.0) == pytest.approx(0.5, abs=1e-14)
    # oracle: scipy.special.erf(1/(2*sqrt(2)))
    assert cdf_hplus(Gaussian(2.0), 1.0) == pytest.approx(0.3829249225480261, rel=1e-12)
    # oracle: 2*scipy.stats.t.cdf(1, 3) - 1
    assert cdf_hplus(StudentT(3.0), 1.0) == pytest.approx(0.6089977810442295, rel=1e-10)
    assert cdf_hplus(PowerExponential(2.0, 1.0), 1.0) == pytest.approx(-math.expm1(-1.0), rel=1e-14)


def test_cdf_rejects_negative_x():
    with pytest.raises(ValueError):
        cdf_hplus(Gaussian(1.0), -0.1)


def test_quantile_anchor_values():
    assert quantile_hplus(Cauchy(), 0.5) == pytest.approx(1.0, rel=1e-11)
    assert quantile_hplus(Laplace(1.0), 1 - 1 / 8) == pytest.approx(math.log(8), rel=1e-11)
    # oracle: scipy.stats.t.ppf(0.95, 3)
    assert quantile_hplus(StudentT(3.0), 0.9) == pytest.approx(2.3533634348018264, rel=1e-9)
    assert quantile_hplus(Gaussian(1.0), 0.0) == 0.0


@pytest.mark.parametrize("d", ALL_SLABS)
@pytest.mark.parametrize("u", [0.0, 1e-6, 0.1, 0.5, 0.9, 0.999, 0.999999])
def test_quantile_round_trip(d, u):
    x = quantile_hplus(d, u)
    assert abs(cdf_hplus(d, x) - u) < 1e-9


@pytest.mark.parametrize("d", ALL_SLABS)
def test_cdf_monotone(d):
    xs = np.linspace(0.0, 20.0, 400)
    vals = [cdf_hplus(d, float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.0
    assert vals[-1] <= 1.0


@pytest.mark.parametrize("u", [0.5, 0.9375, 0.96875])
def test_quantile_past_1e300(u):
    # the bracket doubles up to the largest float: b_4 and b_5 of evt's Gaussian(1e307)
    unit = quantile_hplus(Gaussian(1.0), u)
    assert quantile_hplus(Gaussian(1e307), u) == pytest.approx(1e307 * unit, rel=1e-11)


def test_quantile_rejects_bad_u():
    for u in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            quantile_hplus(Gaussian(1.0), u)


@pytest.mark.parametrize("d", ALL_SLABS)
def test_isf_inverts_the_folded_cdf_where_quantile_hplus_is_accurate(d):
    # quantile_hplus(d, 1 - t) reads its tail probability t to 2^-53 absolute,
    # so at t = 2^-40 it keeps about 4 digits; isf_hplus keeps its own to 1e-12
    for k in range(1, 41):
        t = 2.0**-k
        assert isf_hplus(d, t) == pytest.approx(quantile_hplus(d, 1.0 - t), rel=1e-4)


T_FAR = 2.0**-200  # 1 - T_FAR rounds to 1: only the survival function reaches it


@pytest.mark.parametrize(
    "d, closed_form",
    [
        (Laplace(1.0), 200.0 * math.log(2.0)),
        (Laplace(0.5), 400.0 * math.log(2.0)),
        (PowerExponential(1.5, 2.0), (200.0 * math.log(2.0)) ** (1.0 / 1.5) / 2.0),
        (PowerExponential(3.0, 1.0), (200.0 * math.log(2.0)) ** (1.0 / 3.0)),
        (Cauchy(), float(mpmath.cot(mpmath.pi * mpmath.mpf(T_FAR) / 2))),
    ],
)
def test_isf_closed_forms_far_in_the_tail(d, closed_form):
    assert isf_hplus(d, T_FAR) == pytest.approx(closed_form, rel=1e-14)


@pytest.mark.parametrize("d", [Gaussian(1.0), Gaussian(2.0), StudentT(3.0), StudentT(1.5)])
def test_isf_bisection_far_in_the_tail(d):
    # the bisection stops at relative width 1e-12 in x; the tail falls like
    # x^-nu or exp(-x^2/2), so the survival function there is within 1e-9 of t
    x = isf_hplus(d, T_FAR)
    if isinstance(d, Gaussian):
        tail = math.erfc(x / (d.sigma * math.sqrt(2.0)))
    else:
        tail = 2.0 * stats.t.sf(x, d.nu)
    assert tail == pytest.approx(T_FAR, rel=1e-9)


@pytest.mark.parametrize("d", ALL_SLABS + [PowerExponential(1e5)])
def test_isf_is_zero_at_one_and_refuses_t_outside_the_unit_interval(d):
    assert isf_hplus(d, 1.0) == 0.0
    for t in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            isf_hplus(d, t)


def test_isf_past_the_float_range_is_inf_or_refused():
    assert isf_hplus(Laplace(1e-310), 1.0 / 16) == math.inf
    assert isf_hplus(PowerExponential(1e-3), 1.0 / 16) == math.inf
    assert isf_hplus(Gaussian(1e308), 1.0 / 16) == math.inf
    with pytest.raises(RuntimeError):
        isf_hplus(StudentT(1e300), 1.0 / 16)


def test_power_exponential_of_large_shape_has_a_folded_cdf_and_quantiles():
    # (lam x)^m overflows a float for x > 1 when m = 1e5; the tail there is 0
    d = PowerExponential(1e5)
    assert cdf_hplus(d, 2.0) == 1.0
    assert cdf_hplus(d, 1e300) == 1.0
    assert cdf_hplus(d, 1.0) == pytest.approx(-math.expm1(-1.0), rel=1e-14)
    for u in (0.5, 1.0 - 2.0**-20):
        x = quantile_hplus(d, u)
        assert math.isfinite(x) and 0.99 < x < 1.01


def test_absolute_moment_values():
    # oracle: scipy quadrature of |x|^m against each density
    assert absolute_moment(Gaussian(1.0), 1.0) == pytest.approx(0.7978845608028651, rel=1e-12)
    assert absolute_moment(Gaussian(1.0), 2.0) == pytest.approx(1.0, rel=1e-12)
    assert absolute_moment(Gaussian(2.0), 1.0) == pytest.approx(1.5957691216057306, rel=1e-12)
    assert absolute_moment(Laplace(2.0), 3.0) == pytest.approx(math.gamma(4.0) / 8.0, rel=1e-12)
    assert absolute_moment(StudentT(3.0), 1.0) == pytest.approx(1.1026577908435842, rel=1e-10)
    assert absolute_moment(StudentT(3.0), 2.0) == pytest.approx(3.0, rel=1e-10)
    assert absolute_moment(StudentT(3.0), 2.5) == pytest.approx(8.375443731913986, rel=1e-8)
    assert absolute_moment(Cauchy(), 0.5) == pytest.approx(1.414213562373095, rel=1e-10)
    assert absolute_moment(PowerExponential(1.5, 2.0), 2.0) == pytest.approx(0.2976598371897497, rel=1e-10)


def test_absolute_moment_divergence():
    assert absolute_moment(StudentT(3.0), 3.0) == math.inf
    assert absolute_moment(StudentT(3.0), 4.0) == math.inf
    assert absolute_moment(Cauchy(), 1.0) == math.inf
    assert absolute_moment(Cauchy(), 2.0) == math.inf
    assert absolute_moment(Gaussian(1.0), 12.0) < math.inf


@pytest.mark.parametrize(
    "d",
    [Gaussian(1.0), Laplace(1.0), PowerExponential(2.0), StudentT(3.0)],
    ids=["gaussian", "laplace", "power_exponential", "student_t"],
)
def test_absolute_moment_refuses_an_infinite_order(d):
    with pytest.raises(ValueError, match="moment order must be finite, got inf"):
        absolute_moment(d, math.inf)


def test_has_moment_reads_the_tail_index():
    # finite moments whose closed form leaves the float range
    for d, m in [(Gaussian(10.0), 200.0), (Gaussian(1.0), 400.0), (Laplace(1e-3), 200.0)]:
        assert has_moment(d, m)
        assert absolute_moment(d, m) == math.inf
    assert has_moment(PowerExponential(0.5), 1e6)
    assert has_moment(StudentT(3.0), 2.999) and not has_moment(StudentT(3.0), 3.0)
    assert has_moment(Cauchy(), 0.999) and not has_moment(Cauchy(), 1.0)
    # exact orders: 1/Fraction(0.3) lies below nu, the float 1/0.3 equals it
    nu = 3.3333333333333335
    assert has_moment(StudentT(nu), 1 / Fraction(0.3))
    assert not has_moment(StudentT(nu), 1 / 0.3)


def test_absolute_moment_falls_back_to_the_log_form():
    # Gamma(200.5) overflows a float, though these moments do not
    assert absolute_moment(Gaussian(1e-10), 400.0) == 0.0
    mpmath.mp.dps = 30
    want = mpmath.mpf(0.1) ** 400 * mpmath.mpf(2) ** 200 * mpmath.gamma(200.5) / mpmath.sqrt(mpmath.pi)
    assert absolute_moment(Gaussian(0.1), 400.0) == pytest.approx(float(want), rel=1e-9)
    want = mpmath.gamma(201) / mpmath.mpf(10.0) ** 200
    assert absolute_moment(Laplace(10.0), 200.0) == pytest.approx(float(want), rel=1e-9)
    # Gamma(200) overflows: the log form gives 1.00502512562818..., close to 400/398
    assert absolute_moment(StudentT(400.0), 2.0) == pytest.approx(400.0 / 398.0, rel=1e-12)
    want = mpmath.gamma(201) / mpmath.mpf(100.0) ** 200
    got = absolute_moment(PowerExponential(1.0, 100.0), 200.0)
    assert got == pytest.approx(float(want), rel=1e-9)


def closed_form(d, m):
    """`absolute_moment`'s product alone, as it read before the log form."""
    if isinstance(d, Gaussian):
        return d.sigma**m * 2.0 ** (m / 2.0) * math.gamma((m + 1.0) / 2.0) / math.sqrt(math.pi)
    if isinstance(d, Laplace):
        return math.gamma(m + 1.0) / d.lam**m
    if isinstance(d, StudentT):
        return (
            d.nu ** (m / 2.0)
            * math.gamma((m + 1.0) / 2.0)
            * math.gamma((d.nu - m) / 2.0)
            / (math.sqrt(math.pi) * math.gamma(d.nu / 2.0))
        )
    return math.gamma(1.0 + m / d.m) / d.lam**m


@given(
    slab=st.sampled_from(
        [Gaussian(0.01), Gaussian(1.0), Gaussian(30.0), Laplace(0.05), Laplace(3.0),
         StudentT(3.0), StudentT(250.0), PowerExponential(0.5, 2.0), PowerExponential(1.7, 0.2)]
    ),
    m=st.floats(min_value=0.01, max_value=400.0),
)
@settings(max_examples=200, deadline=None)
def test_absolute_moment_keeps_every_finite_product(slab, m):
    assume(has_moment(slab, m))
    try:
        direct = closed_form(slab, m)
    except OverflowError:
        direct = math.inf
    assume(math.isfinite(direct))
    assert absolute_moment(slab, m) == direct


def test_tail_classes():
    assert tail_class(Gaussian(3.0)) == GumbelTail(2.0)
    assert tail_class(Laplace(2.0)) == GumbelTail(1.0)
    assert tail_class(PowerExponential(1.7, 1.0)) == GumbelTail(1.7)
    assert tail_class(StudentT(3.0)) == FrechetTail(3.0)
    assert tail_class(Cauchy()) == FrechetTail(1.0)


@pytest.mark.parametrize(
    "d",
    [Gaussian(1.0), Laplace(1.0), StudentT(3.0), Cauchy(), PowerExponential(1.5, 2.0)],
)
def test_sampler_matches_cdf_ks(d):
    """Folded signed draws and `sample_abs`'s magnitudes both follow ``H_+``."""
    for draw in (lambda *a: np.abs(sample(*a)), sample_abs):
        xs = draw(d, np.random.default_rng(20260826), 100_000)
        assert xs.min() >= 0.0
        xs.sort()
        ecdf = np.arange(1, xs.size + 1) / xs.size
        theo = np.array([cdf_hplus(d, float(x)) for x in xs[:: 100]])
        ks = np.max(np.abs(ecdf[::100] - theo))
        assert ks <= 0.02


@pytest.mark.parametrize(
    "d",
    [Gaussian(1.5), StudentT(3.0), Cauchy(), PowerExponential(0.5, 1.0), PowerExponential(2.0, 3.0)],
)
@pytest.mark.parametrize("seed", [0, 7, 20260826])
def test_sample_abs_folds_the_signed_stream(d, seed):
    """Only Laplace has its own magnitude stream: for every other family
    `sample_abs` is ``np.abs(sample(...))`` for the same seed, bit for bit."""
    folded = sample_abs(d, np.random.default_rng(seed), 4096)
    signed = sample(d, np.random.default_rng(seed), 4096)
    assert folded.tobytes() == np.abs(signed).tobytes()


@pytest.mark.parametrize("d", [StudentT(3.0), StudentT(1.5), Cauchy()])
def test_frechet_tail_ratio(d):
    ell = tail_class(d).ell
    t = quantile_hplus(d, 0.999)
    base = 1.0 - cdf_hplus(d, t)
    for x in (2.0, 4.0):
        ratio = (1.0 - cdf_hplus(d, x * t)) / base
        assert ratio == pytest.approx(x**-ell, rel=0.10)


def test_sampling_is_deterministic():
    a = sample(Gaussian(1.0), np.random.default_rng(42), size=16)
    b = sample(Gaussian(1.0), np.random.default_rng(42), size=16)
    assert np.array_equal(a, b)


@given(
    a=st.floats(0.25, 20.0),
    b=st.floats(0.25, 20.0),
    x=st.floats(0.0, 1.0),
)
@example(a=0.5, b=0.5, x=0.9999999999999999)
@settings(max_examples=200, deadline=None)
def test_betainc_against_scipy(a, b, x):
    # The reference is mpmath at 40 digits: scipy's betainc is off by about
    # 3e-9 within an ulp of x = 1 (at the pinned example it returns
    # 0.9999999905136262, the exact value is 0.99999999329212072...).
    with mpmath.workdps(40):
        ref = float(mpmath.betainc(a, b, 0, x, regularized=True))
    assert _betainc_reg(a, b, x) == pytest.approx(ref, abs=1e-10)


def test_power_exponential_m1_is_laplace():
    d1, d2 = PowerExponential(1.0, 2.0), Laplace(2.0)
    for x in (0.1, 0.7, 3.0):
        assert cdf_hplus(d1, x) == pytest.approx(cdf_hplus(d2, x), rel=1e-14)
    assert absolute_moment(d1, 2.0) == pytest.approx(absolute_moment(d2, 2.0), rel=1e-14)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Gaussian(0.0)
    with pytest.raises(ValueError):
        Laplace(-1.0)
    with pytest.raises(ValueError):
        StudentT(0.5)
    with pytest.raises(ValueError):
        PowerExponential(0.0, 1.0)


def test_student_sampler_agrees_with_scipy_moments():
    rng = np.random.default_rng(7)
    xs = sample(StudentT(5.0), rng, size=200_000)
    assert np.mean(np.abs(xs)) == pytest.approx(float(stats.t(5.0).expect(lambda x: abs(x))), rel=0.02)
