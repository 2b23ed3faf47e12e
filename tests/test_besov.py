import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besovlab import besov
from besovlab.besov import _exact_sum, besov_seq_norm, level_terms, vector_p_norm
from besovlab.distributions import Gaussian, StudentT
from besovlab.fields import ConfigError
from besovlab.sampler import CoefficientTree, Level, PriorSpec, sample_tree
from besovlab.schedules import Infinite, LevelSchedule
from besovlab.theory import BesovParams

INF = math.inf


def make_tree(j0, entries_by_level, scaling=None, top=None):
    """entries_by_level: {j: [(k, w), ...]}"""
    if top is None:
        top = max(entries_by_level) if entries_by_level else j0 - 1
    levels = []
    for j in range(j0, top + 1):
        ent = sorted(entries_by_level.get(j, []))
        levels.append(
            Level(j, np.array([e[0] for e in ent], dtype=np.int64), np.array([e[1] for e in ent]))
        )
    if scaling is None:
        scaling = np.zeros(2**j0)
    return CoefficientTree(j0, np.asarray(scaling, dtype=float), tuple(levels))


def scaled(t, c):
    """``c * t``; coefficients that become zero are dropped (as at ``c = 0``)."""
    levels = []
    for lev in t.levels:
        w = c * lev.w
        keep = w != 0.0
        levels.append(Level(lev.j, lev.k[keep], w[keep]))
    return CoefficientTree(t.j0, c * t.scaling, tuple(levels))


def dense_besov_norm(t, s, p, q):
    """Brute force from the definition on dense per-level arrays."""
    if math.isinf(p):
        coarse = max(abs(x) for x in t.scaling) if t.scaling.size else 0.0
    else:
        coarse = sum(abs(x) ** p for x in t.scaling) ** (1 / p)
    s_prime = s + 0.5 - (0.0 if math.isinf(p) else 1.0 / p)
    terms = []
    for lev in t.levels:
        dense = np.zeros(2**lev.j)
        dense[lev.k] = lev.w
        if math.isinf(p):
            lvl = max(abs(x) for x in dense)
        else:
            lvl = sum(abs(x) ** p for x in dense) ** (1 / p)
        terms.append(2.0 ** (lev.j * s_prime) * lvl)
    if not terms:
        return coarse
    if math.isinf(q):
        return coarse + max(terms)
    return coarse + sum(a**q for a in terms) ** (1 / q)


def test_level_p_norm_examples():
    # a level's norm is the norm of its stored values
    assert vector_p_norm(np.array([3.0, -4.0]), 2.0) == pytest.approx(5.0, rel=1e-14)
    assert vector_p_norm(np.array([]), 2.0) == 0.0
    assert vector_p_norm(np.array([]), INF) == 0.0
    assert vector_p_norm(np.array([1.0, 1.0, 1.0]), INF) == 1.0


def test_level_terms_examples():
    # single coefficient w_{2,0} = 1 with s' = 0.5 gives a_2 = 2
    t = make_tree(2, {2: [(0, 1.0)]})
    bp = BesovParams(s=0.5, p=2.0, q=1.0)
    assert level_terms(t, bp)[0] == pytest.approx(2.0, rel=1e-14)

    zero = make_tree(1, {}, top=4)
    assert np.array_equal(level_terms(zero, bp), np.zeros(4))

    # w_{j,0} = 2^-j with s' = 1 (s=1.5, p=1) gives a_j = 1 for all j
    t2 = make_tree(0, {j: [(0, 2.0**-j)] for j in range(0, 6)})
    bp2 = BesovParams(s=1.5, p=1.0, q=2.0)
    assert np.allclose(level_terms(t2, bp2), np.ones(6), rtol=1e-13)


def test_besov_seq_norm_examples():
    zero = make_tree(1, {}, top=3)
    assert besov_seq_norm(zero, BesovParams(1.0, 2.0, 2.0)) == 0.0

    coarse_only = make_tree(1, {}, scaling=[1.0, 0.0], top=0)
    assert besov_seq_norm(coarse_only, BesovParams(1.0, 1.0, 2.0)) == 1.0

    # a_2 = 2, a_3 = 4 with q=2: norm = sqrt(20)
    # s=0.5, p=2 -> s'=0.5: choose w_{2,0}=1 (a_2=2) and w_{3,0}=sqrt(2) (a_3=4)
    t = make_tree(2, {2: [(0, 1.0)], 3: [(0, math.sqrt(2.0))]})
    got = besov_seq_norm(t, BesovParams(0.5, 2.0, 2.0))
    assert got == pytest.approx(math.sqrt(20.0), rel=1e-13)


@given(
    c=st.floats(-8.0, 8.0),
    q=st.sampled_from([1.0, 2.0, 3.5, INF]),
    p=st.sampled_from([1.0, 2.0, 4.0, INF]),
)
@settings(max_examples=80, deadline=None)
def test_homogeneity(c, q, p):
    spec = PriorSpec(LevelSchedule(1.0, 1.0, 0.0), LevelSchedule(0.7), Gaussian(1.0), Infinite(6))
    t = sample_tree(spec, j0=1, scaling=[0.3, -0.9], seed=21)
    bp = BesovParams(0.8, p, q)
    assert besov_seq_norm(scaled(t, c), bp) == pytest.approx(
        abs(c) * besov_seq_norm(t, bp), rel=1e-12, abs=1e-300
    )


def test_monotonicity_in_coefficients():
    bp = BesovParams(1.2, 2.0, 2.0)
    base = make_tree(0, {1: [(0, 1.0), (1, -0.5)], 2: [(3, 0.25)]})
    bigger = make_tree(0, {1: [(0, 1.5), (1, -0.5)], 2: [(3, 0.25)]})
    assert besov_seq_norm(bigger, bp) >= besov_seq_norm(base, bp)


@given(
    data=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
    v=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    l=st.sampled_from([1.0, 2.0, 4.0, 8.0, INF]),
)
@settings(max_examples=200, deadline=None)
def test_norm_sandwich(data, v, l):
    # ||x||_l <= ||x||_v <= n^(1/v - 1/l) ||x||_l for 0 < v < l <= inf
    if not v < l:
        return
    x = np.asarray(data)
    n = x.size
    nl = vector_p_norm(x, l)
    nv = vector_p_norm(x, v)
    inv_l = 0.0 if math.isinf(l) else 1.0 / l
    slack = 1e-9 * max(nl, nv, 1.0)
    assert nl <= nv + slack
    assert nv <= n ** (1.0 / v - inv_l) * nl + slack


@given(
    q1=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
    q2=st.sampled_from([2.0, 3.0, 8.0, INF]),
    seed=st.integers(0, 50),
)
@settings(max_examples=60, deadline=None)
def test_q_monotonicity(q1, q2, seed):
    if not q1 <= q2:
        return
    spec = PriorSpec(LevelSchedule(1.0, 0.8, 0.0), LevelSchedule(0.6), Gaussian(1.0), Infinite(7))
    t = sample_tree(spec, j0=0, seed=seed)
    lo = besov_seq_norm(t, BesovParams(0.7, 2.0, q2))
    hi = besov_seq_norm(t, BesovParams(0.7, 2.0, q1))
    assert lo <= hi + 1e-12 * max(1.0, hi)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, INF])
@pytest.mark.parametrize("q", [1.0, 2.0, 5.0, INF])
def test_agreement_with_dense_brute_force(p, q):
    spec = PriorSpec(
        LevelSchedule(1.0, 0.5, 0.0), LevelSchedule(0.5, 0.1, 0.0), StudentT(3.0), Infinite(8)
    )
    for seed in range(12):
        t = sample_tree(spec, j0=2, scaling=[0.1, -2.0, 0.0, 1.0], seed=seed)
        bp = BesovParams(0.9, p, q)
        sparse = besov_seq_norm(t, bp)
        dense = dense_besov_norm(t, 0.9, p, q)
        assert sparse == pytest.approx(dense, rel=1e-12, abs=1e-300)


def test_level_p_norm_overflow_guard():
    # peak factoring keeps large powers finite
    vals = np.array([1e200, 1e199])
    assert math.isfinite(vector_p_norm(vals, 4.0))
    assert vector_p_norm(vals, INF) == 1e200


def fsum_bits(values):
    """``math.fsum(values)`` as its hex form, or "overflow"."""
    try:
        return math.fsum(values).hex()
    except OverflowError:
        return "overflow"


def exact_sum_bits(x):
    """`_exact_sum` of the array ``x`` as its hex form, or "overflow"."""
    try:
        return _exact_sum(x).hex()
    except OverflowError:
        return "overflow"


# nonnegative finite floats over the whole exponent range, with the ends and
# zero drawn often
NONNEGATIVE = st.one_of(
    st.floats(min_value=0.0, max_value=1e308),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e308]),
    st.floats(min_value=0.0, max_value=1e-300),
    st.floats(min_value=0.0, max_value=1.0),
)


@given(st.lists(NONNEGATIVE, max_size=300))
@example([])
@example([0.0])
@example([5e-324])
@example([1e308])
@example([1e-310, 3e-320, 5e-324, 0.0])
@example([5e-324, 1e308, 1.0, 5e-324])
@example([1.0, 2.0**-53, 2.0**-53])  # left-to-right addition gives 1.0
@example([1e308, 1e308])  # both overflow
@settings(max_examples=300, deadline=None)
def test_exact_sum_equals_fsum(values):
    assert exact_sum_bits(np.array(values)) == fsum_bits(values)


def test_exact_sum_of_a_million_normal_squares():
    x = np.random.default_rng(11).standard_normal(10**6) ** 2
    assert exact_sum_bits(x) == fsum_bits(x.tolist())


def test_exact_sum_of_cauchy_powers():
    rng = np.random.default_rng(12)
    for _ in range(300):
        x = np.abs(rng.standard_cauchy(int(rng.integers(1, 5000)))) ** rng.uniform(1.0, 8.0)
        assert exact_sum_bits(x) == fsum_bits(x.tolist())


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 9, 10, 100])
def test_exact_sum_over_slices(monkeypatch, size):
    # many slices of 3 values, whose buckets add up across slices
    monkeypatch.setattr(besov, "_SLICE", 3)
    rng = np.random.default_rng(size)
    x = np.concatenate([rng.random(size), [1.0 - 2.0**-53] * size, [5e-324] * size])
    assert exact_sum_bits(x) == fsum_bits(x.tolist())


def old_vector_p_norm(values, p):
    """`vector_p_norm` as it read with ``math.fsum``, for finite ``p``."""
    mags = np.abs(values)
    top = float(np.max(mags))
    if top == 0.0:
        return 0.0
    return top * math.fsum(((mags / top) ** p).tolist()) ** (1.0 / p)


@given(
    st.lists(st.floats(min_value=-1e308, max_value=1e308), min_size=1, max_size=200),
    st.one_of(st.sampled_from([1.0, 2.0, 3.0, 8.0]), st.floats(min_value=1.0, max_value=40.0)),
)
@settings(max_examples=200, deadline=None)
def test_vector_p_norm_is_unchanged_bit_for_bit(values, p):
    x = np.array(values)
    before = x.copy()
    assert vector_p_norm(x, p).hex() == old_vector_p_norm(x, p).hex()
    assert np.array_equal(x, before)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
@pytest.mark.parametrize(
    "values", [[1.0, INF], [-INF, 2.0], [math.nan, 1.0], [0.0, math.nan, INF]]
)
def test_vector_p_norm_of_a_non_finite_value_is_nan(values, p):
    # no RuntimeWarning either: the suite turns one into an error
    x = np.array(values)
    assert math.isnan(vector_p_norm(x, p))
    assert np.array_equal(x, np.array(values), equal_nan=True)


def test_level_weight_overflow_names_besov_s():
    t = CoefficientTree(0, [0.0], (Level(0, [0], [1.0]), Level(1, [1], [1.0])))
    with pytest.raises(ConfigError, match=r"^besov\.s: the level weight"):
        level_terms(t, BesovParams(2000.0, 2.0, 2.0))


def test_params_validation():
    with pytest.raises(ValueError):
        BesovParams(0.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        BesovParams(1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        BesovParams(1.0, 2.0, -1.0)
    bp = BesovParams(1.0, INF, 2.0)
    assert bp.s_prime == pytest.approx(1.5)

