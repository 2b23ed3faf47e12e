import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab.schedules import (
    GrowthKind,
    LevelSchedule,
    clamped_exponents,
    growth_regime,
    series_verdict,
    sup_verdict,
)


def test_value_at_basic():
    s = LevelSchedule(c=3.0, e=0.5, g=-1.0)
    assert s.value_at(0) == 3.0  # j^g := 1 at j = 0
    assert s.value_at(2) == pytest.approx(3.0 * 0.5 * 2.0**-1.0)
    assert s.value_at(4) == pytest.approx(3.0 * 0.25 * 0.25)


def test_value_at_rejects_negative_level():
    with pytest.raises(ValueError):
        LevelSchedule(1.0).value_at(-1)


def test_clamping():
    s = LevelSchedule(c=4.0, e=0.5)
    assert s.clamped_at(0) == 1.0
    assert s.clamped_at(10) == pytest.approx(4.0 * 2.0**-5.0)


def test_series_verdict_examples():
    assert series_verdict(0.0, -1.0) is False  # harmonic
    assert series_verdict(0.0, -1.5) is True  # p-series
    assert series_verdict(0.3, 5.0) is True
    assert series_verdict(-0.01, -100.0) is False
    assert series_verdict(0.0, -1.0000001) is True


def test_sup_verdict_examples():
    assert sup_verdict(0.0, 0.0) is True
    assert sup_verdict(-0.1, -5.0) is False
    assert sup_verdict(0.0, 0.5) is False
    assert sup_verdict(0.2, 3.0) is True


@given(e=st.floats(1.0, 3.0), g=st.floats(-4.0, 4.0))
@settings(max_examples=100, deadline=None)
def test_series_partial_sums_stabilize_when_convergent(e, g):
    # when e > 0 the partial sums to j=50 and j=60 agree; the 1e-6 relative
    # window at j=50 only resolves numerically once e is order 1
    assert series_verdict(e, g) is True
    s50 = sum(j**g * 2.0 ** (-e * j) for j in range(1, 51))
    s60 = sum(j**g * 2.0 ** (-e * j) for j in range(1, 61))
    assert abs(s60 - s50) < 1e-6 * s50


@given(e=st.floats(-1.0, 1.0), g=st.floats(-3.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_converges_implies_bounded(e, g):
    if series_verdict(e, g):
        assert sup_verdict(e, g) is True


@pytest.mark.parametrize(
    "sched,kind",
    [
        (LevelSchedule(1.0, 0.5, 0.0), GrowthKind.INCREASES_TO_INFINITY),
        (LevelSchedule(1.0, 0.0, 0.0), GrowthKind.INCREASES_TO_INFINITY),  # pi = 1
        (LevelSchedule(5.0, 1.0, 2.0), GrowthKind.INCREASES_TO_INFINITY),  # n_j ~ j^2
        (LevelSchedule(0.5, 1.0, 0.0), GrowthKind.TENDS_TO_CONSTANT),
        (LevelSchedule(1.0, 2.0, 0.0), GrowthKind.SUMMABLE),  # pi = 2^{-2j}
        (LevelSchedule(1.0, 1.0, -2.0), GrowthKind.SUMMABLE),  # pi = j^{-2} 2^{-j}
        (LevelSchedule(1.0, 1.0, -0.5), GrowthKind.NOT_COVERED),
        (LevelSchedule(1.0, 1.0, -1.0), GrowthKind.NOT_COVERED),
        (LevelSchedule(0.0), GrowthKind.SUMMABLE),  # pi = 0
    ],
)
def test_growth_regimes(sched, kind):
    assert growth_regime(sched) is kind


def test_growth_constant_limit():
    assert growth_regime(LevelSchedule(0.25, 1.0, 0.0)) is GrowthKind.TENDS_TO_CONSTANT


def _ladder_regime(pi: LevelSchedule) -> GrowthKind:
    """The regime as a comparison ladder on the clamped exponents, an oracle
    for `growth_regime` that does not go through the two predicates."""
    c, e, g = clamped_exponents(pi)
    if c == 0:
        return GrowthKind.SUMMABLE
    if e < 1:
        return GrowthKind.INCREASES_TO_INFINITY
    if e == 1:
        if g > 0:
            return GrowthKind.INCREASES_TO_INFINITY
        if g == 0:
            return GrowthKind.TENDS_TO_CONSTANT
        if g < -1:
            return GrowthKind.SUMMABLE
        return GrowthKind.NOT_COVERED
    return GrowthKind.SUMMABLE


_ONE_AND_NEIGHBOURS = [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]


@given(
    c=st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 1e6),
    e=st.sampled_from(_ONE_AND_NEIGHBOURS + [0.0, -1.0, 2.0]) | st.floats(-5.0, 5.0),
    g=st.sampled_from([-1.0, 0.0]) | st.floats(-5.0, 5.0),
)
@settings(max_examples=500, deadline=None)
def test_growth_regime_matches_the_ladder(c, e, g):
    pi = LevelSchedule(c, e, g)
    assert growth_regime(pi) is _ladder_regime(pi)


@given(c=st.floats(0.01, 50.0))
@settings(max_examples=60, deadline=None)
def test_growth_regime_invariant_under_c(c):
    # away from the e=1 boundary the regime never depends on c
    for e, g in [(0.3, 1.0), (0.0, -2.0), (2.0, 5.0), (1.5, 0.0)]:
        base = growth_regime(LevelSchedule(1.0, e, g))
        assert growth_regime(LevelSchedule(c, e, g)) is base


def test_clamped_exponents():
    assert clamped_exponents(LevelSchedule(3.0, 0.5, 1.0)) == (3.0, 0.5, 1.0)
    assert clamped_exponents(LevelSchedule(3.0, 0.0, 0.0)) == (1.0, 0.0, 0.0)
    assert clamped_exponents(LevelSchedule(0.7, 0.0, 0.0)) == (0.7, 0.0, 0.0)
    assert clamped_exponents(LevelSchedule(2.0, 0.0, 1.5)) == (1.0, 0.0, 0.0)
    assert clamped_exponents(LevelSchedule(2.0, -1.0, 0.0)) == (1.0, 0.0, 0.0)
    assert clamped_exponents(LevelSchedule(2.0, 0.0, -0.5)) == (2.0, 0.0, -0.5)
    assert clamped_exponents(LevelSchedule(0.0)) == (0.0, 0.0, 0.0)


def test_clamped_matches_values_eventually():
    # the clamped exponents describe min(1, pi_j) for large j
    for sched in [LevelSchedule(4.0, 0.25, 0.5), LevelSchedule(2.0, 0.0, 2.0)]:
        c, e, g = clamped_exponents(sched)
        for j in (40, 50):
            expect = c * j**g * 2.0 ** (-e * j)
            assert sched.clamped_at(j) == pytest.approx(expect, rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        LevelSchedule(-1.0)
    with pytest.raises(ValueError):
        LevelSchedule(1.0, math.inf, 0.0)
