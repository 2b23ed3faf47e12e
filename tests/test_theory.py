import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from besovlab.distributions import (
    Cauchy,
    Gaussian,
    Laplace,
    PowerExponential,
    StudentT,
)
from besovlab.fields import ConfigError
from besovlab.schedules import LevelSchedule
from besovlab.theory import (
    BesovParams,
    Decision,
    Verdict,
    _rule,
    classify_general,
    classify_regression,
    classify_simple,
    classify_three_param,
    no_spike_condition,
)

from table_fixture import ROWS, run_row, simple_table, three_param_formula

INF = math.inf

SLABS = [Gaussian(1.0), Laplace(1.0), StudentT(3.0), Cauchy(), PowerExponential(1.5)]


def bp(s, p, q):
    return BesovParams(s=s, p=p, q=q)


# ---------------------------------------------------------------------------
# decision-table fixture
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("row", ROWS, ids=[r.label for r in ROWS])
def test_table_fixture_row(row):
    verdict = run_row(row)
    assert verdict.decision.value == row.decision
    if row.threshold is not None:
        assert verdict.threshold == pytest.approx(row.threshold, rel=1e-12)


def test_table_fixture_is_large_enough():
    assert len(ROWS) >= 40
    kinds = {type(r.slab).__name__ for r in ROWS}
    assert {"Gaussian", "Laplace", "StudentT", "Cauchy", "PowerExponential"} <= kinds


# ---------------------------------------------------------------------------
# classify_simple anchor examples
# ---------------------------------------------------------------------------

def test_simple_gaussian_anchor():
    v = classify_simple(Gaussian(1.0), 3.0, 0.5, bp(1.0, 2, 2), 3.0)
    assert v.decision is Decision.MEMBER_AS
    assert v.threshold == pytest.approx(1.25)


def test_simple_student_p_inf_anchor():
    v = classify_simple(StudentT(3.0), 3.0, 0.5, bp(1.0, INF, 1), 3.0)
    assert v.decision is Decision.NOT_MEMBER_AS
    assert v.threshold == pytest.approx(5.0 / 6.0)


def test_simple_student_moment_gate():
    v = classify_simple(StudentT(3.0), 2.0, 0.5, bp(0.3, 4, 2), 3.0)
    assert v.decision is Decision.NOT_COVERED
    assert "E|xi|" in v.reason


def test_simple_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classify_simple(Gaussian(1.0), -0.5, 0.5, bp(1.0, 2, 2), 3.0)
    with pytest.raises(ValueError):
        classify_simple(Gaussian(1.0), 0.0, 0.0, bp(1.0, 2, 2), 3.0)
    with pytest.raises(ValueError):
        classify_simple(Gaussian(1.0), 3.0, 0.5, bp(3.0, 2, 2), 3.0)  # s >= r


@pytest.mark.parametrize(
    "alpha, beta, path",
    [(INF, 0.5, "alpha"), (math.nan, 0.5, "alpha"), (3.0, INF, "beta"), (3.0, math.nan, "beta")],
)
def test_simple_refuses_non_finite_exponents(alpha, beta, path):
    with pytest.raises(ConfigError) as err:
        classify_simple(Gaussian(1.0), alpha, beta, bp(1.0, 2, 2), 3.0)
    assert err.value.path == path


def test_simple_refuses_an_alpha_whose_half_rounds():
    # at s = 1/2, p = 1, beta = 1 the exponent is -alpha/2: the table reads
    # 5e-324 as a member, while alpha/2 = 0 would read it as none
    b = bp(0.5, 1.0, 2.0)
    assert simple_table(Gaussian(1.0), 5e-324, 1.0, b, 3.0).decision is Decision.MEMBER_AS
    with pytest.raises(ConfigError) as err:
        classify_simple(Gaussian(1.0), 5e-324, 1.0, b, 3.0)
    assert err.value.path == "alpha"
    assert classify_simple(Gaussian(1.0), 1e-323, 1.0, b, 3.0).decision is Decision.MEMBER_AS


# ---------------------------------------------------------------------------
# classify_general anchor examples
# ---------------------------------------------------------------------------

def test_general_matches_simple_on_dyadic_schedules():
    tau = LevelSchedule(1.0, 1.5, 0.0)   # 2^(-1.5 j) = 2^(-alpha j / 2), alpha = 3
    pi = LevelSchedule(1.0, 0.5, 0.0)    # beta = 0.5
    v = classify_general(Gaussian(1.0), tau, pi, bp(1.0, 2, 2), 3.0)
    w = simple_table(Gaussian(1.0), 3.0, 0.5, bp(1.0, 2, 2), 3.0)
    assert v.decision is Decision.MEMBER_AS
    assert v.decision == w.decision
    assert v.threshold == pytest.approx(w.threshold)


def test_general_summable_regime_ignores_slab_tails():
    pi = LevelSchedule(1.0, 2.0, 0.0)
    tau = LevelSchedule(1.0, 0.0, 0.0)
    v = classify_general(Cauchy(), tau, pi, bp(2.5, INF, INF), 3.0)
    assert v.decision is Decision.MEMBER_AS
    assert "case5" in v.case_id


def test_general_constant_regime_moment_gate():
    pi = LevelSchedule(1.0, 1.0, 0.0)
    tau = LevelSchedule(1.0, 1.0, 0.0)
    v = classify_general(StudentT(3.0), tau, pi, bp(0.3, 2, 4), 3.0)
    assert v.decision is Decision.NOT_COVERED
    assert "case3" in v.case_id


def test_general_regime_gap_propagates():
    pi = LevelSchedule(1.0, 1.0, -0.5)
    tau = LevelSchedule(1.0, 1.0, 0.0)
    v = classify_general(Gaussian(1.0), tau, pi, bp(0.3, 2, 2), 3.0)
    assert v.decision is Decision.NOT_COVERED
    assert "regime-gap" in v.case_id


def test_general_gumbel_aux_condition_fails_for_polynomial_counts():
    # n_j ~ j^2: the level maxima lose the deterministic normalisation
    pi = LevelSchedule(1.0, 1.0, 2.0)
    tau = LevelSchedule(1.0, 1.0, 0.0)
    v = classify_general(Gaussian(1.0), tau, pi, bp(0.3, INF, 2), 3.0)
    assert v.decision is Decision.NOT_COVERED
    assert "auxiliary" in v.reason


def test_general_frechet_q_range_gate():
    pi = LevelSchedule(1.0, 0.5, 0.0)
    tau = LevelSchedule(1.0, 1.0, 0.0)
    v = classify_general(StudentT(3.0), tau, pi, bp(0.3, INF, 3), 3.0)
    assert v.decision is Decision.NOT_COVERED
    v = classify_general(StudentT(3.0), tau, pi, bp(0.3, INF, 2), 3.0)
    assert v.covered


def test_general_case4_polynomial_moment_criterion():
    # n_j -> const, q = inf, tau_j = j^g 2^(-j s'): membership turns on
    # E|xi|^(-1/g), which for Cauchy holds iff -1/g < 1.
    s, p = 0.5, INF
    s_prime = s + 0.5
    pi = LevelSchedule(1.0, 1.0, 0.0)
    fast = classify_general(Cauchy(), LevelSchedule(1.0, s_prime, -2.0), pi, bp(s, p, INF), 3.0)
    slow = classify_general(Cauchy(), LevelSchedule(1.0, s_prime, -0.5), pi, bp(s, p, INF), 3.0)
    flat = classify_general(Cauchy(), LevelSchedule(1.0, s_prime, 0.0), pi, bp(s, p, INF), 3.0)
    assert fast.decision is Decision.MEMBER_AS
    assert slow.decision is Decision.NOT_MEMBER_AS
    assert flat.decision is Decision.NOT_COVERED


def test_general_case4_exponential_growth_needs_only_log_moment():
    pi = LevelSchedule(1.0, 1.0, 0.0)
    tau = LevelSchedule(1.0, 2.0, 0.0)
    v = classify_general(Cauchy(), tau, pi, bp(0.5, INF, INF), 3.0)
    assert v.decision is Decision.MEMBER_AS


# ---------------------------------------------------------------------------
# consistency with the independent decision table (tests/table_fixture.py)
# ---------------------------------------------------------------------------

GRID_P_Q = [1.0, 2.0, 3.0, INF]


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(0.1, 4.0),
    beta=st.floats(0.0, 1.4),
    s=st.floats(0.05, 2.9),
    p=st.sampled_from(GRID_P_Q),
    q=st.sampled_from(GRID_P_Q),
    slab=st.sampled_from(SLABS),
    c_t=st.floats(0.25, 2.0),
    c_pi=st.floats(0.25, 2.0),
)
def test_simple_equals_general_on_the_dyadic_family(alpha, beta, s, p, q, slab, c_t, c_pi):
    assume(alpha + beta > 0)
    simple = simple_table(slab, alpha, beta, bp(s, p, q), 3.0)
    general = classify_general(
        slab,
        LevelSchedule(c_t, alpha / 2.0, 0.0),
        LevelSchedule(c_pi, beta, 0.0),
        bp(s, p, q),
        3.0,
    )
    assert simple.covered == general.covered
    if simple.covered and general.covered:
        # the constant-count q=inf cell is the one place the labels differ:
        # the table only claims sufficiency, the case analysis gives an iff
        if Decision.SUFFICIENT_ONLY_MEMBER in (simple.decision, general.decision):
            assert simple.is_member == general.is_member
        else:
            assert simple.decision == general.decision
    # both round the same exact threshold once
    if simple.threshold is not None and general.threshold is not None:
        assert simple.threshold == general.threshold


def test_simple_and_general_agree_where_rounding_splits_the_threshold():
    # (1.1 - 1)/2 rounds above 0.05 while 0.05 + 0.5 - 0.55 rounds to 0:
    # both routes must read the sign of the exact sum s - T
    b = bp(0.05, 1.0, 1.0)
    simple = simple_table(Gaussian(1.0), 1.1, 0.0, b, 3.0)
    general = classify_general(
        Gaussian(1.0), LevelSchedule(1.0, 0.55, 0.0), LevelSchedule(1.0, 0.0, 0.0), b, 3.0
    )
    assert simple.decision is general.decision is Decision.MEMBER_AS


GRID_SLABS = SLABS + [PowerExponential(0.7, 1.0)]
GRID_ALPHAS = [0.0, 0.5, 2.0 / 3.0, 1.1, 3.0]
GRID_BETAS = [0.0, 1.0 / 3.0, 0.5, 0.9, 1.0, 1.2]
GRID_S = [0.05, 0.7, 1.6]


def _grid_points():
    """Every grid cell at a few fixed ``s`` and, where the table reports a
    threshold ``T`` inside ``(0, r)``, at ``T`` and its two neighbours."""
    for slab in GRID_SLABS:
        for alpha in GRID_ALPHAS:
            for beta in GRID_BETAS:
                if alpha == beta == 0:
                    continue
                for p in GRID_P_Q:
                    for q in GRID_P_Q:
                        probe = simple_table(slab, alpha, beta, bp(0.01, p, q), 3.0)
                        ss = list(GRID_S)
                        t = probe.threshold
                        if t is not None:
                            ss += [x for x in (math.nextafter(t, -INF), t, math.nextafter(t, INF))
                                   if 0 < x < 3.0]
                        for s in ss:
                            yield slab, alpha, beta, bp(s, p, q)


def test_simple_equals_the_table_at_every_threshold_and_its_neighbours():
    checked = at_threshold = 0
    for slab, alpha, beta, b in _grid_points():
        want = simple_table(slab, alpha, beta, b, 3.0)
        got = classify_simple(slab, alpha, beta, b, 3.0)
        where = (type(slab).__name__, alpha, beta, b)
        assert (got.decision, got.case_id, got.threshold) == (
            want.decision,
            want.case_id,
            want.threshold,
        ), where
        checked += 1
        at_threshold += b.s == want.threshold
    assert checked > 5000 and at_threshold > 1000


def test_general_decides_a_rounded_quotient_exactly():
    # 0.1/3 rounds to s itself, so a rounded e_pi/p gives E = 0 and G = 1 > 0
    # fails the sup; the exact e_pi/p is larger and E < 0
    v = classify_general(
        Gaussian(1.0),
        LevelSchedule(1.0, 0.5, 1.0),
        LevelSchedule(0.5, 0.1, 0.0),
        bp(0.1 / 3, 3.0, INF),
        3.0,
    )
    assert v.decision is Decision.MEMBER_AS


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(0.1, 4.0),
    beta=st.floats(0.0, 1.4),
    s=st.floats(0.05, 2.9),
    p=st.sampled_from(GRID_P_Q),
    q=st.sampled_from(GRID_P_Q),
)
def test_gaussian_and_laplace_verdicts_agree(alpha, beta, s, p, q):
    assume(alpha + beta > 0)
    g = classify_simple(Gaussian(1.0), alpha, beta, bp(s, p, q), 3.0)
    l = classify_simple(Laplace(1.0), alpha, beta, bp(s, p, q), 3.0)
    assert g.decision == l.decision
    if g.threshold is not None:
        assert g.threshold == pytest.approx(l.threshold)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(0.1, 4.0),
    beta=st.floats(0.0, 1.4),
    s_lo=st.floats(0.05, 2.8),
    gap=st.floats(0.001, 1.0),
    p=st.sampled_from(GRID_P_Q),
    q=st.sampled_from(GRID_P_Q),
    slab=st.sampled_from(SLABS),
)
def test_membership_is_monotone_in_smoothness(alpha, beta, s_lo, gap, p, q, slab):
    assume(alpha + beta > 0)
    s_hi = min(s_lo + gap, 2.9)
    assume(s_hi > s_lo)
    lo = classify_simple(slab, alpha, beta, bp(s_lo, p, q), 3.0)
    hi = classify_simple(slab, alpha, beta, bp(s_hi, p, q), 3.0)
    if hi.is_member:
        assert lo.is_member


@pytest.mark.parametrize("nu", [1.5, 3.0, 5.0])
@pytest.mark.parametrize("beta", [0.0, 0.3, 0.9])
def test_polynomial_tail_threshold_sits_below_gumbel_threshold(nu, beta):
    alpha = 3.0
    heavy = classify_simple(StudentT(nu), alpha, beta, bp(0.1, INF, INF), 3.0)
    light = classify_simple(Gaussian(1.0), alpha, beta, bp(0.1, INF, INF), 3.0)
    assert heavy.threshold == pytest.approx(light.threshold - (1.0 - beta) / nu)
    assert heavy.threshold < light.threshold


# ---------------------------------------------------------------------------
# three-hyperparameter family
# ---------------------------------------------------------------------------

def test_three_param_gamma_cutoff_is_exact():
    # gamma is -2/9 - 1 rounded down, so below the exact cutoff: a member,
    # as the general route finds; a rounded cutoff equals gamma
    gamma = -2.0 / 9.0 - 1.0
    v = classify_three_param(Gaussian(1.0), 3.0, 0.5, gamma, 1.0, 9.0, 3.0)
    assert v.decision is Decision.MEMBER_AS


def test_three_param_gaussian_boundary_example():
    # delta = 0 at s = (alpha - 1)/2
    v = classify_three_param(Gaussian(1.0), 3.0, 0.5, -2.5, 1.0, 2.0, 3.0)
    assert v.decision is Decision.MEMBER_AS


def test_three_param_laplace_boundary_example():
    v = classify_three_param(Laplace(1.0), 3.0, 0.5, -2.5, 1.0, 2.0, 3.0)
    assert v.decision is Decision.NOT_MEMBER_AS


def test_three_param_interior_example():
    v = classify_three_param(Gaussian(1.0), 3.2, 0.5, 5.0, 1.0, 2.0, 3.0)
    assert v.decision is Decision.MEMBER_AS  # delta = -0.1 < 0
    v = classify_three_param(Laplace(1.0), 3.2, 0.5, 5.0, 1.0, INF, 3.0)
    assert v.decision is Decision.MEMBER_AS


def test_three_param_q_inf_admits_gamma_equality():
    v = classify_three_param(Gaussian(1.0), 3.0, 0.2, -1.0, 1.0, INF, 3.0)
    assert v.decision is Decision.MEMBER_AS
    v = classify_three_param(Laplace(1.0), 3.0, 0.2, -2.0, 1.0, INF, 3.0)
    assert v.decision is Decision.MEMBER_AS
    v = classify_three_param(Laplace(1.0), 3.0, 0.2, -1.999, 1.0, INF, 3.0)
    assert v.decision is Decision.NOT_MEMBER_AS


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([1.0, 2.0, 3.0, INF]),
    gaussian=st.booleans(),
    ulps=st.sampled_from([-1, 0, 1]),
    s=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.75]),
    beta=st.floats(0.0, 0.99),
)
def test_three_param_matches_the_gamma_cutoff_at_delta_zero(q, gaussian, ulps, s, beta):
    slab, m = (Gaussian(1.0), 2) if gaussian else (Laplace(1.0), 1)
    alpha = 2 * s + 1  # delta = s + 1/2 - alpha/2 = 0 exactly
    cutoff = -Fraction(2, m) - (0 if math.isinf(q) else 2 / Fraction(q))
    gamma = float(cutoff)
    if ulps:
        gamma = math.nextafter(gamma, ulps * INF)
    # the cutoff formula classify_three_param used to state itself
    member = Fraction(gamma) <= cutoff if math.isinf(q) else Fraction(gamma) < cutoff
    v = classify_three_param(slab, alpha, beta, gamma, s, q, 3.0)
    assert v.decision is (Decision.MEMBER_AS if member else Decision.NOT_MEMBER_AS)


def test_three_param_unsupported_slab():
    v = classify_three_param(Cauchy(), 3.0, 0.5, 0.0, 1.0, 2.0, 3.0)
    assert v.decision is Decision.NOT_COVERED


def test_three_param_rejects_beta_one():
    with pytest.raises(ValueError):
        classify_three_param(Gaussian(1.0), 3.0, 1.0, 0.0, 1.0, 2.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(0.2, 4.0),
    beta=st.floats(0.0, 0.99),
    gamma=st.floats(-6.0, 6.0),
    s=st.floats(0.05, 2.9),
    q=st.sampled_from(GRID_P_Q),
    gaussian=st.booleans(),
)
def test_three_param_equals_its_formula(alpha, beta, gamma, s, q, gaussian):
    slab = Gaussian(1.0) if gaussian else Laplace(1.0)
    v = classify_three_param(slab, alpha, beta, gamma, s, q, 3.0)
    assert v == three_param_formula(slab, alpha, gamma, s, q)


@pytest.mark.parametrize("q", [1.0, 2.0, INF])
@pytest.mark.parametrize("gaussian", [True, False])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_three_param_equals_its_formula_at_the_threshold(q, gaussian, ulps):
    slab = Gaussian(1.0) if gaussian else Laplace(1.0)
    for alpha in (1.5, 3.0, 4.25):
        s = (alpha - 1) / 2  # exact: delta = 0
        if ulps:
            s = math.nextafter(s, ulps * INF)
        for gamma in (-3.0, -2.0, -1.0, 0.0):
            v = classify_three_param(slab, alpha, 0.5, gamma, s, q, 3.0)
            assert v == three_param_formula(slab, alpha, gamma, s, q), (alpha, gamma)
            assert v.threshold == (alpha - 1) / 2


TINY = [5e-324, 1.5e-323, -5e-324, -1.5e-323, math.ulp(0.0) * 2**51 + 5e-324]


@pytest.mark.parametrize("q", [1.0, INF])
@pytest.mark.parametrize("gaussian", [True, False])
@pytest.mark.parametrize("tiny", TINY)
def test_three_param_equals_its_formula_at_subnormal_exponents(q, gaussian, tiny):
    # tiny/2 rounds (the last bit is set), so the schedule carries an
    # exponent half an ulp off the exact one; decision and threshold stay
    slab = Gaussian(1.0) if gaussian else Laplace(1.0)
    assert tiny / 2 * 2 != tiny
    for alpha, gamma, s in ((abs(tiny), 0.0, 0.25), (3.0, tiny, 1.0), (3.0, tiny, 0.75)):
        v = classify_three_param(slab, alpha, 0.5, gamma, s, q, 3.0)
        assert v == three_param_formula(slab, alpha, gamma, s, q)


# ---------------------------------------------------------------------------
# regression mode
# ---------------------------------------------------------------------------

def test_regression_laplace_example_q_finite():
    tau = LevelSchedule(0.7, 0.0, 0.0)
    pi = LevelSchedule(1.0, 0.5, 0.0)
    v = classify_regression(Laplace(1.0), tau, pi, bp(0.2, 2, 2), 3.0)
    assert v.decision is Decision.MEMBER_AS
    assert v.threshold == pytest.approx(0.25)  # member iff s <= beta/p
    at = classify_regression(Laplace(1.0), tau, pi, bp(0.25, 2, 2), 3.0)
    assert at.decision is Decision.MEMBER_AS
    above = classify_regression(Laplace(1.0), tau, pi, bp(0.2500001, 2, 2), 3.0)
    assert above.decision is Decision.NOT_MEMBER_AS


def test_regression_laplace_example_q_inf():
    tau = LevelSchedule(0.7, 0.0, 0.0)
    pi = LevelSchedule(1.0, 0.5, 0.0)
    v = classify_regression(Laplace(1.0), tau, pi, bp(0.2, 2, INF), 3.0)
    assert v.decision is Decision.NOT_MEMBER_AS
    assert v.threshold == pytest.approx(-0.25)  # member iff s <= beta/p - 1/2


def test_regression_cauchy_example():
    tau = LevelSchedule(1.0, 0.0, 0.0)
    pi = LevelSchedule(1.0, 0.5, 0.0)
    v = classify_regression(Cauchy(), tau, pi, bp(0.4, INF, 1), 3.0)
    assert v.decision is Decision.MEMBER_AS
    assert v.threshold == pytest.approx(0.5)  # member iff s <= 1 - beta
    at = classify_regression(Cauchy(), tau, pi, bp(0.5, INF, 1), 3.0)
    assert at.decision is Decision.MEMBER_AS
    above = classify_regression(Cauchy(), tau, pi, bp(0.5000001, INF, 1), 3.0)
    assert above.decision is Decision.NOT_MEMBER_AS


def test_regression_cauchy_q_admissibility():
    tau = LevelSchedule(1.0, 0.0, 0.0)
    pi = LevelSchedule(1.0, 0.5, 0.0)
    gated = classify_regression(Cauchy(), tau, pi, bp(0.4, INF, 2), 3.0)
    assert gated.decision is Decision.NOT_COVERED
    ok = classify_regression(Cauchy(), tau, pi, bp(0.4, INF, 1.9), 3.0)
    assert ok.covered


def test_regression_tail_gate_is_exact():
    # ell + 1 rounds down to q, though q < ell + 1 exactly
    tau, pi = LevelSchedule(1.0, 1.5), LevelSchedule(1.0, 0.5)
    v = classify_regression(
        StudentT(1.7049084564785606), tau, pi, bp(0.5, INF, 2.7049084564785604), 3.0
    )
    assert v.decision is Decision.MEMBER_AS


@given(ell=st.floats(min_value=1.0, max_value=40.0), step=st.sampled_from([-1, 0, 1]))
@settings(max_examples=200, deadline=None)
def test_regression_tail_gate_equals_the_fraction_comparison(ell, step):
    q = ell + 1.0
    if step:
        q = math.nextafter(q, step * INF)
    tau, pi = LevelSchedule(1.0, 1.5), LevelSchedule(1.0, 0.5)
    v = classify_regression(StudentT(ell), tau, pi, bp(0.5, INF, q), 3.0)
    refused = "needs q < ell + 1" in v.reason
    assert refused == (Fraction(q) >= Fraction(ell) + 1)
    assert refused or v.covered


def test_regression_constant_count_case():
    # n_j -> const: member iff s <= 1/p for constant tau
    tau = LevelSchedule(1.0, 0.0, 0.0)
    pi = LevelSchedule(1.0, 1.0, 0.0)
    at = classify_regression(Laplace(1.0), tau, pi, bp(0.5, 2, 2), 3.0)
    assert at.decision is Decision.MEMBER_AS
    assert at.threshold == pytest.approx(0.5)
    above = classify_regression(Laplace(1.0), tau, pi, bp(0.51, 2, 2), 3.0)
    assert above.decision is Decision.NOT_MEMBER_AS


def test_regression_constant_count_q_inf_case():
    # constant tau: M(j) increases iff s < 1/p - 1/2
    tau = LevelSchedule(1.0, 0.0, 0.0)
    pi = LevelSchedule(1.0, 1.0, 0.0)
    member = classify_regression(Laplace(1.0), tau, pi, bp(0.3, 1, INF), 3.0)
    assert member.decision is Decision.MEMBER_AS
    silent = classify_regression(Laplace(1.0), tau, pi, bp(0.3, 4, INF), 3.0)
    assert silent.decision is Decision.NOT_COVERED


def test_regression_summable_and_gap_regimes():
    tau = LevelSchedule(1.0, 0.0, 0.0)
    v = classify_regression(Cauchy(), tau, LevelSchedule(1.0, 2.0, 0.0), bp(0.4, 2, 2), 3.0)
    assert v.decision is Decision.MEMBER_AS
    v = classify_regression(Cauchy(), tau, LevelSchedule(1.0, 1.0, -0.5), bp(0.4, 2, 2), 3.0)
    assert v.decision is Decision.NOT_COVERED


def test_regression_decides_a_rounding_tie_exactly():
    # 0.05 + 0.5 - 0.55 rounds to 0, so G = 1 > 0 would fail the sup;
    # the exact exponent is -4e-17
    v = classify_regression(
        Gaussian(1.0),
        LevelSchedule(1.0, 0.55, 1.0),
        LevelSchedule(0.5, 0.0, 0.0),
        bp(0.05, 2.0, INF),
        3.0,
    )
    assert v.decision is Decision.MEMBER_AS


def test_regression_thresholds_sit_half_above_infinite_model():
    # the n^(-1/2) scale buys exactly 1/2 of smoothness in case 1
    tau = LevelSchedule(1.0, 1.0, 0.0)
    pi = LevelSchedule(1.0, 0.5, 0.0)
    fixed = classify_general(Gaussian(1.0), tau, pi, bp(0.3, 2, 2), 3.0)
    reg = classify_regression(Gaussian(1.0), tau, pi, bp(0.3, 2, 2), 3.0)
    assert reg.threshold == pytest.approx(fixed.threshold + 0.5)


# ---------------------------------------------------------------------------
# the s-free rule: a verdict reads s only through its side of the threshold
# ---------------------------------------------------------------------------

# schedule exponents: the regime boundaries themselves, and floats between
EXPONENT = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0]), st.floats(-2.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(
    slab=st.sampled_from(SLABS),
    tau_e=EXPONENT,
    tau_g=EXPONENT,
    pi_e=EXPONENT,
    pi_g=EXPONENT,
    p=st.sampled_from(GRID_P_Q),
    q=st.sampled_from(GRID_P_Q),
    ss=st.lists(st.floats(0.05, 2.9), min_size=2, max_size=4),
)
def test_a_verdict_reads_s_only_through_its_side_of_the_threshold(slab, tau_e, tau_g, pi_e, pi_g, p, q, ss):
    tau, pi = LevelSchedule(1.0, tau_e, tau_g), LevelSchedule(1.0, pi_e, pi_g)
    for classify in (classify_general, classify_regression):
        verdicts = {s: classify(slab, tau, pi, bp(s, p, q), 3.0) for s in ss}
        t = verdicts[ss[0]].threshold
        if t is not None:
            # every float below t lies below the exact threshold T, every float above it above T
            near = (math.nextafter(t, -INF), t, math.nextafter(t, INF))
            verdicts.update({s: classify(slab, tau, pi, bp(s, p, q), 3.0) for s in near if 0 < s < 3.0})
        assert {v.threshold for v in verdicts.values()} == {t}
        below = {v for s, v in verdicts.items() if t is None or s < t}
        above = {v for s, v in verdicts.items() if t is not None and s > t}
        assert len(below) <= 1 and len(above) <= 1, (classify.__name__, verdicts)
        # a member at s is a member at every smaller s
        decided = [v.decision for _, v in sorted(verdicts.items())
                   if v.decision in (Decision.MEMBER_AS, Decision.NOT_MEMBER_AS)]
        members = [d is Decision.MEMBER_AS for d in decided]
        assert members == sorted(members, reverse=True), (classify.__name__, verdicts)


MODELS = ("general", "regression")


def _tail_gates(q: str, ell: str) -> tuple[Verdict, Verdict]:
    """The (general, regression) polynomial-tail gates quoting ``q`` and ``ell``."""
    general = f"polynomial tail needs q < ell; got q={q}, ell={ell}"
    regression = f"regression-mode polynomial tail needs q < ell + 1; got q={q}, ell={ell}"
    return (Verdict(Decision.NOT_COVERED, "general/case2-frechet", None, general),
            Verdict(Decision.NOT_COVERED, "regression/case2-frechet", None, regression))


def _gaps(e: str) -> tuple[Verdict, Verdict]:
    """The (general, regression) regime-gap verdicts quoting ``e``."""
    reason = f"expected counts n_j tend to 0 while sum n_j diverges (e={e}, g=-0.5); no theory case applies"
    return tuple(Verdict(Decision.NOT_COVERED, f"{model}/regime-gap", None, reason) for model in MODELS)


T3, T3_0, TAU, PI = StudentT(3), StudentT(3.0), LevelSchedule(1.0, 1.5), LevelSchedule(1.0, 0.5)
FRECHET_MEMBER = Verdict(
    Decision.MEMBER_AS, "regression/case2-frechet", 2.0, assumptions=("Frechet tail with index ell=3",)
)
# keys that compare equal but print differently, in pairs, each with its
# (general, regression) verdicts from a cold cache
PRINTED_PAIRS = {
    "slab": [((T3, TAU, PI, bp(1.0, INF, 3.0)), (_tail_gates("3.0", "3")[0], FRECHET_MEMBER)),
             ((T3_0, TAU, PI, bp(1.0, INF, 3.0)), (_tail_gates("3.0", "3.0")[0], FRECHET_MEMBER))],
    "q": [((T3_0, TAU, PI, bp(1.0, INF, 3)), (_tail_gates("3", "3.0")[0], FRECHET_MEMBER)),
          ((T3_0, TAU, PI, bp(1.0, INF, 3.0)), (_tail_gates("3.0", "3.0")[0], FRECHET_MEMBER))],
    "q-gate": [((T3_0, TAU, PI, bp(1.0, INF, 4)), _tail_gates("4", "3.0")),
               ((T3_0, TAU, PI, bp(1.0, INF, 4.0)), _tail_gates("4.0", "3.0"))],
    "pi": [((Gaussian(1.0), TAU, LevelSchedule(1.0, 1, -0.5), bp(1.0, 2.0, 2.0)), _gaps("1")),
           ((Gaussian(1.0), TAU, LevelSchedule(1.0, 1.0, -0.5), bp(1.0, 2.0, 2.0)), _gaps("1.0"))],
}


@pytest.mark.parametrize("pair", PRINTED_PAIRS.values(), ids=PRINTED_PAIRS)
def test_a_cached_rule_equals_a_cold_call(pair):
    for first, second in (pair, pair[::-1]):
        _rule.cache_clear()
        for args, want in (first, second):
            assert (classify_general(*args, 3.0), classify_regression(*args, 3.0)) == want


# ---------------------------------------------------------------------------
# no-spike specialisation
# ---------------------------------------------------------------------------

def test_no_spike_with_polynomial_slack_is_member():
    s = 1.0
    tau = LevelSchedule(1.0, s + 0.5, -2.0)
    v = no_spike_condition(Gaussian(1.0), tau, bp(s, 2, 2), 3.0)
    assert v.decision is Decision.MEMBER_AS
    assert v.case_id.startswith("no-spike/")


def test_no_spike_without_slack_is_not_member():
    s = 1.0
    tau = LevelSchedule(1.0, s + 0.5, 0.0)
    v = no_spike_condition(Gaussian(1.0), tau, bp(s, 2, 2), 3.0)
    assert v.decision is Decision.NOT_MEMBER_AS


def test_no_spike_matches_general_with_unit_spike_weight():
    tau = LevelSchedule(1.0, 1.2, -1.0)
    for p, q in [(2, 2), (INF, 2), (2, INF), (INF, INF)]:
        direct = no_spike_condition(StudentT(3.0), tau, bp(0.4, p, q), 3.0)
        via = classify_general(StudentT(3.0), tau, LevelSchedule(1.0), bp(0.4, p, q), 3.0)
        assert direct.decision == via.decision
        assert direct.threshold == via.threshold
