import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab.sampler import CoefficientTree, Level
from besovlab.wavelets import FAMILY_NAMES, cascade_eval, family, synthesize, unit_tables

SQRT2 = math.sqrt(2.0)


def make_tree(j0, rows, scaling=None):
    """rows: {j: {k: w}} with contiguous levels from j0."""
    top = max(rows) if rows else j0 - 1
    levels = []
    for j in range(j0, top + 1):
        entries = sorted((k, w) for k, w in rows.get(j, {}).items() if w != 0.0)
        k = np.asarray([e[0] for e in entries], dtype=np.int64)
        w = np.asarray([e[1] for e in entries], dtype=np.float64)
        levels.append(Level(j, k, w))
    if scaling is None:
        scaling = np.zeros(2**j0)
    return CoefficientTree(j0, np.asarray(scaling, dtype=np.float64), tuple(levels))


def full_grid(t, fam, grid_exponent):
    """The full-grid rendering: every term interpolated at all ``2^G``
    points, its argument ``(2^j x - k)`` reduced modulo the level's period."""
    G = grid_exponent
    xs, phi_u, psi_u = unit_tables(fam.name, min(max(G, 10), 16))
    x = np.arange(1 << G) / (1 << G)
    out = np.zeros(x.size)
    rows = [(t.j0, range(1 << t.j0), t.scaling, phi_u)]
    rows += [(lev.j, lev.k, lev.w, psi_u) for lev in t.levels]
    for j, ks, ws, table in rows:
        base = np.mod((1 << j) * x, 1 << j)
        for k, w in zip(ks, ws):
            arg = np.mod(base - k, 1 << j)
            out += w * 2.0 ** (j / 2.0) * np.interp(arg, xs, table, left=0.0, right=0.0)
    return out


@st.composite
def cauchy_trees(draw):
    """Trees with j0 in 0..3, up to five levels of Cauchy values at a drawn
    density, and a Cauchy scaling row with some exact zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j0 = draw(st.integers(0, 3))
    rows = {}
    for j in range(j0, j0 + draw(st.integers(0, 5))):
        keep = rng.random(2**j) < draw(st.floats(0.0, 1.0))
        rows[j] = dict(zip(np.flatnonzero(keep).tolist(), rng.standard_cauchy(2**j)[keep]))
    scaling = rng.standard_cauchy(2**j0) * (rng.random(2**j0) < 0.8)
    return make_tree(j0, rows, scaling=scaling)


class TestFilters:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_lowpass_sums_to_sqrt2(self, name):
        fam = family(name)
        assert math.fsum(fam.h) == pytest.approx(SQRT2, abs=1e-12)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_shift_orthonormality(self, name):
        fam = family(name)
        h = np.asarray(fam.h)
        for shift in range(0, fam.taps, 2):
            dot = float(np.dot(h[: fam.taps - shift], h[shift:]))
            want = 1.0 if shift == 0 else 0.0
            assert dot == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_highpass_has_zero_sum(self, name):
        fam = family(name)
        assert math.fsum(fam.g) == pytest.approx(0.0, abs=1e-12)

    def test_support_and_metadata(self):
        fam = family("daub4")
        assert fam.taps == 4
        assert fam.support == 3
        assert fam.vanishing_moments == 2
        assert fam.r_plus_rho == pytest.approx(2.55)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown wavelet family"):
            family("coiflet")

    def test_bad_filter_rejected(self):
        from besovlab.wavelets import WaveletFamily

        with pytest.raises(ValueError, match="sum to sqrt"):
            WaveletFamily("bogus", (0.5, 0.5), 1, 0.0)


class TestCascade:
    def test_depth_validation(self):
        with pytest.raises(ValueError, match="depth"):
            cascade_eval(family("haar"), 0)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_grid_shape(self, name):
        fam = family(name)
        grid = cascade_eval(fam, 6)
        assert grid.phi.size == fam.support * 2**6 + 1
        assert grid.psi.size == grid.phi.size
        assert grid.spacing == pytest.approx(2.0**-6)
        assert grid.grid[-1] == pytest.approx(fam.support)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_phi_integrates_to_one(self, name):
        grid = cascade_eval(family(name), 10)
        assert np.sum(grid.phi[:-1]) * grid.spacing == pytest.approx(1.0, abs=1e-6)

    def test_haar_closed_forms(self):
        grid = cascade_eval(family("haar"), 4)
        t = grid.grid
        phi_want = np.where(t < 1.0, 1.0, 0.0)
        psi_want = np.where(t < 0.5, 1.0, np.where(t < 1.0, -1.0, 0.0))
        np.testing.assert_allclose(grid.phi, phi_want, atol=1e-14)
        np.testing.assert_allclose(grid.psi, psi_want, atol=1e-14)

    def test_daub4_psi_riemann_sums(self):
        grid = cascade_eval(family("daub4"), 12)
        assert np.sum(grid.psi[:-1]) * grid.spacing == pytest.approx(0.0, abs=1e-6)
        assert np.sum(grid.psi[:-1] ** 2) * grid.spacing == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("name", ["daub6", "daub8"])
    def test_deeper_families_normalised(self, name):
        grid = cascade_eval(family(name), 12)
        assert np.sum(grid.psi[:-1]) * grid.spacing == pytest.approx(0.0, abs=1e-6)
        assert np.sum(grid.psi[:-1] ** 2) * grid.spacing == pytest.approx(1.0, abs=1e-4)

    def test_refinement_is_consistent_across_depths(self):
        fam = family("daub6")
        coarse = cascade_eval(fam, 5)
        fine = cascade_eval(fam, 9)
        np.testing.assert_allclose(fine.phi[:: 2**4], coarse.phi, atol=1e-12)


class TestSynthesize:
    def test_grid_exponent_precondition(self):
        t = make_tree(0, {3: {0: 1.0}})
        with pytest.raises(ValueError, match="grid exponent"):
            synthesize(t, family("haar"), 4)

    def test_zero_tree_renders_zero(self):
        t = make_tree(1, {1: {}, 2: {}})
        out = synthesize(t, family("daub4"), 6)
        assert out.shape == (64,)
        np.testing.assert_array_equal(out, np.zeros(64))

    def test_haar_scaling_constant(self):
        t = make_tree(0, {}, scaling=[1.0])
        out = synthesize(t, family("haar"), 5)
        np.testing.assert_allclose(out, np.ones(32), atol=1e-12)

    def test_haar_mother_step(self):
        t = make_tree(0, {0: {0: 1.0}})
        out = synthesize(t, family("haar"), 5)
        want = np.where(np.arange(32) < 16, 1.0, -1.0)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_haar_level_one_translate(self):
        t = make_tree(0, {0: {}, 1: {1: 1.0}})
        out = synthesize(t, family("haar"), 5)
        x = np.arange(32) / 32.0
        inside = (x >= 0.5) & (x < 1.0)
        want = np.where(inside & (x < 0.75), SQRT2, np.where(inside, -SQRT2, 0.0))
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_haar_parseval(self):
        rng = np.random.default_rng(7)
        rows = {
            j: {int(k): float(rng.normal()) for k in rng.choice(2**j, size=2 ** (j - 1), replace=False)}
            for j in range(1, 5)
        }
        scaling = rng.normal(size=2)
        t = make_tree(1, rows, scaling=scaling)
        out = synthesize(t, family("haar"), 8)
        energy_grid = float(np.sum(out**2)) / out.size
        energy_tree = float(np.sum(scaling**2)) + sum(
            float(np.sum(lev.w**2)) for lev in t.levels
        )
        assert energy_grid == pytest.approx(energy_tree, abs=1e-6)

    def test_daub4_energy_close(self):
        rng = np.random.default_rng(3)
        rows = {2: {1: 1.0, 3: -0.5}, 3: {0: 0.25, 5: float(rng.normal())}}
        t = make_tree(2, rows, scaling=rng.normal(size=4))
        out = synthesize(t, family("daub4"), 11)
        energy_grid = float(np.sum(out**2)) / out.size
        energy_tree = float(np.sum(t.scaling**2)) + sum(
            float(np.sum(lev.w**2)) for lev in t.levels
        )
        assert energy_grid == pytest.approx(energy_tree, rel=0.02)

    @pytest.mark.parametrize("name", ["haar", "daub4"])
    def test_linearity(self, name):
        t1 = make_tree(1, {1: {0: 0.7}, 2: {2: -1.1}}, scaling=[0.3, 0.0])
        t2 = make_tree(1, {1: {1: -0.2}, 2: {2: 0.5, 3: 1.0}}, scaling=[0.1, -0.4])
        t_sum = make_tree(
            1,
            {1: {0: 0.7, 1: -0.2}, 2: {2: -0.6, 3: 1.0}},
            scaling=[0.4, -0.4],
        )
        fam = family(name)
        lhs = synthesize(t1, fam, 7) + synthesize(t2, fam, 7)
        rhs = synthesize(t_sum, fam, 7)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_scaling_row_spans_the_unit_interval(self):
        # the daub4 scaling function at j0=0 is supported on all of [0, 1],
        # so a lone coefficient spreads mass across the whole grid
        t = make_tree(0, {}, scaling=[1.0])
        out = synthesize(t, family("daub4"), 10)
        # phi_u = sqrt(3) phi(3 x) integrates to 1 / sqrt(3)
        assert float(np.mean(out)) == pytest.approx(
            1.0 / math.sqrt(3.0), rel=2e-2
        )
        assert np.any(out[:10] != 0.0) and np.any(out[-10:] != 0.0)

    @given(t=cauchy_trees(), name=st.sampled_from(FAMILY_NAMES), extra=st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_full_grid_formula_bit_for_bit(self, t, name, extra):
        # every support lies inside [0, 1]: inside its block a term's
        # reduced argument is exactly i / span, outside it adds +-0.0
        fam = family(name)
        G = t.top_level + 2 + extra
        got, want = synthesize(t, fam, G), full_grid(t, fam, G)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
