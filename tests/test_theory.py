import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from besovlab.besov import BesovParams
from besovlab.distributions import (
    Cauchy,
    Gaussian,
    Laplace,
    PowerExponential,
    StudentT,
)
from besovlab.schedules import LevelSchedule
from besovlab.theory import (
    Decision,
    classify_general,
    classify_regression,
    classify_simple,
    classify_three_param,
    no_spike_condition,
)

from table_fixture import ROWS, run_row

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


# ---------------------------------------------------------------------------
# classify_general anchor examples
# ---------------------------------------------------------------------------

def test_general_matches_simple_on_dyadic_schedules():
    tau = LevelSchedule(1.0, 1.5, 0.0)   # 2^(-1.5 j) = 2^(-alpha j / 2), alpha = 3
    pi = LevelSchedule(1.0, 0.5, 0.0)    # beta = 0.5
    v = classify_general(Gaussian(1.0), tau, pi, bp(1.0, 2, 2), 3.0)
    w = classify_simple(Gaussian(1.0), 3.0, 0.5, bp(1.0, 2, 2), 3.0)
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
# consistency between the two routes
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
    simple = classify_simple(slab, alpha, beta, bp(s, p, q), 3.0)
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
    simple = classify_simple(Gaussian(1.0), 1.1, 0.0, b, 3.0)
    general = classify_general(
        Gaussian(1.0), LevelSchedule(1.0, 0.55, 0.0), LevelSchedule(1.0, 0.0, 0.0), b, 3.0
    )
    assert simple.decision is general.decision is Decision.MEMBER_AS


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
def test_three_param_equals_general_schedule_route(alpha, beta, gamma, s, q, gaussian):
    slab = Gaussian(1.0) if gaussian else Laplace(1.0)
    direct = classify_three_param(slab, alpha, beta, gamma, s, q, 3.0)
    via_general = classify_general(
        slab,
        LevelSchedule(1.0, alpha / 2.0, gamma / 2.0),
        LevelSchedule(1.0, beta, 0.0),
        bp(s, INF, q),
        3.0,
    )
    assert direct.decision == via_general.decision


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
