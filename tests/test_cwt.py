import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from besovlab import cwt as cwt_module
from besovlab.cwt import (
    AtomSet,
    CoarseTerm,
    CwtSpec,
    moment_bound_experiment,
    project_to_orthogonal,
    sample_atoms,
    verify_kernel_bounds,
)
from besovlab.distributions import Cauchy, Gaussian, Laplace, StudentT
from besovlab.fields import ConfigError
from besovlab.schedules import LevelSchedule
from besovlab.theory import BesovParams, Decision, classify_cwt, classify_general
from besovlab.wavelets import FAMILY_NAMES, cascade_eval, family, unit_tables
from kernel_oracle import kernel_k0
from projection_oracle import project_per_atom
from table_fixture import simple_table

GAUSS = Gaussian(1.0)
# classify_cwt's label for each case of classify_general on (tau, mu); a case
# 1 or 3 whose moment gate fails reads cwt/general-assumption-h
GENERAL_LABELS = {
    "case1": "cwt/general",
    "case3": "cwt/general",
    "case4": "cwt/general-q-inf",
    "case5": "cwt/general-summable",
    "regime-gap": "cwt/general-regime-gap",
}


def atom_set(*rows):
    """The `AtomSet` of the ``(a, b, omega)`` rows, in order."""
    return AtomSet(*zip(*rows))


def dense_tree(t):
    rows = {lev.j: np.zeros(2**lev.j) for lev in t.levels}
    for lev in t.levels:
        rows[lev.j][lev.k] = lev.w
    return t.scaling.copy(), rows


def assert_same_bits(t1, t2):
    assert (t1.j0, t1.top_level) == (t2.j0, t2.top_level)
    np.testing.assert_array_equal(t1.scaling.view(np.int64), t2.scaling.view(np.int64))
    for l1, l2 in zip(t1.levels, t2.levels, strict=True):
        np.testing.assert_array_equal(l1.k, l2.k)
        np.testing.assert_array_equal(l1.w.view(np.int64), l2.w.view(np.int64))


def kernel_row_by_grid_rows(fam, u, vs, depth):
    """`_kernel_row` as it was laid out before: one grid point per row."""
    U, Vs = (u, np.asarray(vs, float)) if u >= 1.0 else (1.0 / u, -u * np.asarray(vs, float))
    xs, _, vals = unit_tables(fam.name, depth)
    args = Vs[None, :] + xs[:, None] / U
    other = np.interp(args.ravel(), xs, vals, left=0.0, right=0.0).reshape(args.shape)
    out = (vals @ other) * (xs[1] - xs[0]) / math.sqrt(U)
    return np.where((vs > -1.0 / u) & (vs < 1.0), out, 0.0)


def tree_l2_diff(t1, t2):
    s1, r1 = dense_tree(t1)
    s2, r2 = dense_tree(t2)
    assert set(r1) == set(r2)
    total = float(np.sum((s1 - s2) ** 2))
    total += sum(float(np.sum((r1[j] - r2[j]) ** 2)) for j in r1)
    return math.sqrt(total)


class TestModelTypes:
    def test_atom_validation(self):
        # the first bad atom is named by its index; a later bad one is not reached
        good, worse = (2.0, 0.5, 1.0), (0.0, math.nan, math.inf)
        cases = [
            ((0.0, 0.5, 1.0), "atom scale must be finite and > 0, got 0.0"),
            ((math.nan, 0.5, 1.0), "atom scale must be finite and > 0, got nan"),
            ((2.0, 1.5, 1.0), "atom shift must lie in [0, 1], got 1.5"),
            ((2.0, math.nan, 1.0), "atom shift must lie in [0, 1], got nan"),
            ((2.0, 0.5, math.inf), "atom mark must be finite, got inf"),
            # an atom's checks run in order: scale, shift, mark
            (worse, "atom scale must be finite and > 0, got 0.0"),
            ((2.0, 1.5, math.nan), "atom shift must lie in [0, 1], got 1.5"),
        ]
        for bad, message in cases:
            for index in (1, 4):
                with pytest.raises(ConfigError) as info:
                    atom_set(*[good] * index, bad, worse)
                assert (info.value.path, info.value.reason) == (f"[{index}]", message)
        with pytest.raises(ConfigError, match="c_w must be finite"):
            CoarseTerm(math.nan)

    def test_atom_set_joins_in_order(self):
        first, second = atom_set((2.0, 0.5, 1.0)), atom_set((4.0, 0.25, -1.0), (1.0, 1.0, 0.5))
        joined = first + second
        assert joined == atom_set((2.0, 0.5, 1.0), (4.0, 0.25, -1.0), (1.0, 1.0, 0.5))
        assert len(joined) == 3 and len(AtomSet()) == 0
        assert joined != first
        with pytest.raises(ValueError):  # columns of unequal length
            AtomSet([1.0, 2.0], [0.5], [1.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="a0"):
            CwtSpec(1.0, 0.5, 1.0, 1.0, GAUSS, a0=8.0, a_max=4.0)
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            CwtSpec(1.0, -0.5, 1.0, 1.0, GAUSS, a0=1.0, a_max=4.0)


class TestSampleAtoms:
    def test_closed_form_intensity(self):
        spec = CwtSpec(1.0, 0.5, 1.0, 1.0, GAUSS, a0=4.0, a_max=64.0)
        assert spec.intensity_total() == pytest.approx(12.0)

    def test_mean_count_near_intensity(self):
        spec = CwtSpec(1.0, 0.5, 1.0, 1.0, GAUSS, a0=4.0, a_max=64.0)
        counts = [len(sample_atoms(spec, seed)) for seed in range(200)]
        assert abs(np.mean(counts) - 12.0) <= 3.0 * math.sqrt(12.0 / 200.0)

    def test_mean_and_variance_within_four_stderr(self):
        spec = CwtSpec(1.0, 0.5, 1.0, 1.0, GAUSS, a0=4.0, a_max=64.0)
        lam = spec.intensity_total()
        n = 400
        counts = np.array([len(sample_atoms(spec, 17, replicate=r)) for r in range(n)])
        mean_err = 4.0 * math.sqrt(lam / n)
        var_err = 4.0 * math.sqrt((lam + 2.0 * lam**2) / n)
        assert abs(counts.mean() - lam) <= mean_err
        assert abs(counts.var(ddof=1) - lam) <= var_err

    def test_zero_intensity_gives_empty_set(self):
        spec = CwtSpec(0.0, 0.5, 1.0, 1.0, GAUSS, a0=4.0, a_max=64.0)
        assert sample_atoms(spec, 0) == AtomSet()

    def test_steep_intensity_count_stable_in_a_max(self):
        lam1 = CwtSpec(1.0, 2.0, 1.0, 1.0, GAUSS, a0=1.0, a_max=1e3).intensity_total()
        lam2 = CwtSpec(1.0, 2.0, 1.0, 1.0, GAUSS, a0=1.0, a_max=1e6).intensity_total()
        assert lam1 <= 1.0 and lam2 <= 1.0
        assert abs(lam2 - lam1) < 1e-3

    def test_atoms_respect_window_and_marks(self):
        spec = CwtSpec(3.0, 1.0, 4.0, 2.0, GAUSS, a0=2.0, a_max=32.0)
        atoms = sample_atoms(spec, 3)
        assert len(atoms) > 0
        assert np.all((2.0 <= atoms.a) & (atoms.a <= 32.0))
        assert np.all((0.0 <= atoms.b) & (atoms.b <= 1.0))
        assert np.all(np.isfinite(atoms.omega))

    def test_log_intensity_branch(self):
        spec = CwtSpec(2.0, 1.0, 1.0, 1.0, GAUSS, a0=1.0, a_max=math.e)
        assert spec.intensity_total() == pytest.approx(2.0)


class TestKernel:
    @pytest.mark.parametrize("name", ["haar", "daub4", "daub8"])
    def test_orthonormality_points(self, name):
        fam = family(name)
        assert kernel_k0(fam, 1.0, 0.0) == pytest.approx(1.0, abs=1e-8)
        assert kernel_k0(fam, 2.0, 0.0) == pytest.approx(0.0, abs=1e-8)

    def test_outside_window_is_exact_zero(self):
        fam = family("daub4")
        assert kernel_k0(fam, 1.0, 2.0) == 0.0
        assert kernel_k0(fam, 4.0, -0.3) == 0.0
        assert kernel_k0(fam, 0.5, -2.5) == 0.0

    def test_haar_closed_forms(self):
        fam = family("haar")
        assert kernel_k0(fam, 2.0, 0.25) == pytest.approx(math.sqrt(2.0) / 2.0, abs=2e-3)
        assert kernel_k0(fam, 3.0, 1.0 / 3.0) == pytest.approx(math.sqrt(3.0) / 3.0, abs=2e-3)
        assert kernel_k0(fam, 0.5, -0.5) == pytest.approx(math.sqrt(0.5), abs=2e-3)

    @given(
        u=st.floats(min_value=0.1, max_value=10.0),
        v=st.floats(min_value=-3.0, max_value=1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_flip_identity(self, u, v):
        fam = family("daub4")
        lhs = kernel_k0(fam, u, v)
        rhs = kernel_k0(fam, 1.0 / u, -u * v)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="scale ratio"):
            kernel_k0(family("haar"), 0.0, 0.0)

    @pytest.mark.parametrize("u", [5e-324, 1e-310])
    def test_tiny_scale_ratio_is_zero(self, u):
        # the flipped ratio 1/u is inf, which is not a dyadic scale
        assert kernel_k0(family("daub4"), u, 0.5) == 0.0

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_kernel_row_is_close_to_the_grid_row_layout(self, name):
        # the row sums add in another order than the BLAS product did
        fam = family(name)
        for depth in (10, 12):
            for u in (2.0**-6, 0.3, 1.0, 1.7, 8.0, 2.0**6):
                for count in (1, 33):
                    vs = -1.0 / u + (np.arange(count) + 0.381966) / count * (1.0 + 1.0 / u)
                    new = cwt_module._kernel_row(fam, u, vs, depth)
                    old = kernel_row_by_grid_rows(fam, u, vs, depth)
                    assert np.max(np.abs(new - old)) <= 1e-11 * np.max(np.abs(old))

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_kernel_row_does_not_depend_on_the_block_size(self, name):
        fam = family(name)
        for u in (0.3, 1.7):
            vs = -1.0 / u + (np.arange(45) + 0.381966) / 45 * (1.0 + 1.0 / u)
            blocks = cwt_module._kernel_row(fam, u, vs, 12)
            with mock.patch.object(cwt_module, "_CHUNK_SAMPLES", 1):  # one shift per block
                single = cwt_module._kernel_row(fam, u, vs, 12)
            np.testing.assert_array_equal(blocks.view(np.int64), single.view(np.int64))


class TestKernelBounds:
    def test_haar_sup_bounded_by_one(self):
        report = verify_kernel_bounds(family("haar"))
        assert np.all(report.sup <= 1.0 + 1e-3)

    def test_daub4_sup_monotone_for_coarse_ratios(self):
        report = verify_kernel_bounds(family("daub4"))
        vals = {u: s for u, s in zip(report.u, report.sup)}
        seq = [vals[float(2.0**k)] for k in range(1, 7)]
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_slope_symmetry(self):
        report = verify_kernel_bounds(family("daub4"))
        assert report.slope_high == pytest.approx(-report.slope_low, abs=0.3)
        assert report.slope_high < 0 < report.slope_low

    def test_constants_cover_grid(self):
        report = verify_kernel_bounds(family("haar"))
        expo = report.exponent
        assert expo == pytest.approx(0.5)
        for u, s in zip(report.u, report.sup):
            if u >= 1:
                assert s <= report.c_high * u**-expo + 1e-12
            if u <= 1:
                assert s <= report.c_low * u**expo + 1e-12

    def test_grid_must_span_contract_window(self):
        with pytest.raises(ValueError, match="span"):
            verify_kernel_bounds(family("haar"), u_grid=[0.5, 1.0, 2.0])

    @pytest.mark.parametrize("u_grid", [[], np.empty(0)], ids=["list", "array"])
    def test_empty_grid_is_refused(self, u_grid):
        with pytest.raises(ConfigError) as info:
            verify_kernel_bounds(family("haar"), u_grid)
        assert str(info.value) == "u_grid: expected a nonempty list of scale ratios"

    def test_memory_is_bounded_by_the_block(self):
        fam = family("daub8")
        verify_kernel_bounds(fam, [2.0**-6, 2.0**6], v_count=3)  # fill the table caches
        tracemalloc.start()
        try:
            verify_kernel_bounds(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # a 257 x 28,673 block would be 56 MiB

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_scale_ratios_at_the_ends_of_the_range_are_finite(self, name):
        grid = [2.0**-40, 2.0**-6, 2.0**6, 2.0**40]
        with np.errstate(over="raise", invalid="raise"):
            doc = verify_kernel_bounds(family(name), grid, v_count=9, depth=8)
        assert all(map(math.isfinite, (doc.c_high, doc.c_low)))

    @pytest.mark.parametrize("u", [2.0**-41, 2.0**41, math.nan])
    def test_scale_ratio_off_the_range_is_refused(self, u):
        with pytest.raises(ConfigError, match=r"\[2\^-40, 2\^40\]"):
            verify_kernel_bounds(family("haar"), [2.0**-6, u, 2.0**6], v_count=3, depth=4)

    def test_report_serialises(self):
        doc = verify_kernel_bounds(family("haar")).to_dict()
        assert doc["family"] == "haar"
        assert len(doc["u"]) == len(doc["sup"])


SCALES = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-9]),
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1.0, max_value=2.0**14),
    st.integers(min_value=-3, max_value=12).map(lambda n: 2.0**n),
)


@st.composite
def atoms(draw, max_size=12):
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        a = draw(SCALES)
        if draw(st.booleans()):  # an integer rescaled shift: dyadic when a is 2^n
            b = min(draw(st.integers(min_value=0, max_value=64)) / 64.0, 1.0)
        else:
            b = draw(st.floats(min_value=0.0, max_value=1.0))
        out.append((a, b, draw(st.floats(min_value=-10.0, max_value=10.0))))
    return atom_set(*out)


class TestProjection:
    def test_empty_atoms_zero_tree(self):
        t = project_to_orthogonal(AtomSet(), family("daub4"), 1, 4)
        assert t.j0 == 1 and t.top_level == 4
        np.testing.assert_array_equal(t.scaling, np.zeros(2))
        assert all(lev.k.size == 0 for lev in t.levels)

    def test_coarse_constant_enters_scaling_row(self):
        t = project_to_orthogonal(AtomSet(), family("haar"), 2, 3, coarse=CoarseTerm(c_w=0.75))
        np.testing.assert_allclose(t.scaling, np.full(4, 0.75))

    @pytest.mark.parametrize("name", ["haar", "daub4", "daub8"])
    def test_single_dyadic_atom_is_orthonormal(self, name):
        fam = family(name)
        t = project_to_orthogonal(atom_set((2.0**3, 5 * 2.0**-3, 1.0)), fam, 0, 5)
        _, rows = dense_tree(t)
        for j, row in rows.items():
            want = np.zeros(2**j)
            if j == 3:
                want[5] = 1.0
            np.testing.assert_allclose(row, want, atol=1e-8)
        np.testing.assert_allclose(t.scaling, np.zeros(1), atol=1e-8)

    def test_two_atoms_sum_of_projections(self):
        fam = family("daub4")
        a1, a2 = (3.7, 0.21, 1.4), (12.9, 0.63, -0.8)
        t12 = project_to_orthogonal(atom_set(a1, a2), fam, 0, 4)
        t1 = project_to_orthogonal(atom_set(a1), fam, 0, 4)
        t2 = project_to_orthogonal(atom_set(a2), fam, 0, 4)
        s1, r1 = dense_tree(t1)
        s2, r2 = dense_tree(t2)
        s12, r12 = dense_tree(t12)
        np.testing.assert_allclose(s12, s1 + s2, atol=1e-12)
        for j in r12:
            np.testing.assert_allclose(r12[j], r1[j] + r2[j], atol=1e-12)

    def test_homogeneous_in_mark(self):
        fam = family("daub4")
        t1 = project_to_orthogonal(atom_set((5.3, 0.4, 1.0)), fam, 1, 4)
        t2 = project_to_orthogonal(atom_set((5.3, 0.4, -2.5)), fam, 1, 4)
        s1, r1 = dense_tree(t1)
        s2, r2 = dense_tree(t2)
        diffs = [s2 + 2.5 * s1] + [r2[j] + 2.5 * r1[j] for j in r1]
        assert math.sqrt(sum(float(np.sum(d**2)) for d in diffs)) <= 1e-12

    @pytest.mark.parametrize("a, b", [(6.3, 0.37), (0.37, 0.2), (0.8, 0.9)])
    def test_matches_kernel_formula(self, a, b):
        # independent route: w_jk from per-atom quadrature of the kernel;
        # an atom with a < 1 reaches past the projection row and is clipped
        fam = family("daub4")
        t = project_to_orthogonal(atom_set((a, b, 1.0)), fam, 1, 3)
        _, rows = dense_tree(t)
        for j in (1, 2, 3):
            for k in range(2**j):
                want = kernel_k0(fam, a * 2.0**-j, 2.0**j * b - k)
                assert rows[j][k] == pytest.approx(want, abs=2e-4)

    def test_truncation_control(self):
        # tail atoms beyond a_max matter less and less as the window grows
        fam = family("daub4")
        spec = CwtSpec(2.0, 0.5, 1.0, 1.0, GAUSS, a0=1.0, a_max=256.0)
        atoms = sample_atoms(spec, seed=5)
        trees = {}
        for a_max in (64.0, 128.0, 256.0):
            keep = atoms.a <= a_max
            sub = AtomSet(atoms.a[keep], atoms.b[keep], atoms.omega[keep])
            trees[a_max] = project_to_orthogonal(sub, fam, 0, 6)
        step1 = tree_l2_diff(trees[128.0], trees[64.0])
        step2 = tree_l2_diff(trees[256.0], trees[128.0])
        assert step2 < step1

    def test_level_bounds_validated(self):
        with pytest.raises(ValueError, match="j0"):
            project_to_orthogonal(AtomSet(), family("haar"), 3, 2)

    @pytest.mark.parametrize("a", [1e-9, 1e-300])
    def test_tiny_scale_atom_is_sampled_only_where_it_reaches_the_row(self, a):
        # the atom spans L / a rescaled units (terabytes of samples at
        # a = 1e-9); the row and the samples that reach it are 192 values
        fam = family("daub4")
        coarse = CoarseTerm(atoms=atom_set((a, 0.5, 1.0)))
        project_to_orthogonal(AtomSet(), fam, 1, 4, coarse=coarse)  # fill the table caches
        tracemalloc.start()
        try:
            t = project_to_orthogonal(AtomSet(), fam, 1, 4, coarse=coarse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (t.j0, t.top_level) == (1, 4)
        assert peak < 2**20  # the fixed cost is the depth-12 cascade grid

    @given(
        name=st.sampled_from(FAMILY_NAMES),
        j0=st.integers(min_value=0, max_value=3),
        extra=st.integers(min_value=0, max_value=6),
        free=atoms(),
        fixed=atoms(max_size=3),
        c_w=st.floats(min_value=-2.0, max_value=2.0),
        chunk=st.sampled_from([1, 2**9, 2**12, 2**18]),
    )
    @settings(max_examples=150, deadline=None)
    def test_blocks_equal_the_per_atom_loop_bit_for_bit(
        self, name, j0, extra, free, fixed, c_w, chunk
    ):
        fam = family(name)
        coarse = CoarseTerm(c_w=c_w, atoms=fixed)
        with mock.patch.object(cwt_module, "_CHUNK_SAMPLES", chunk):
            t = project_to_orthogonal(free, fam, j0, j0 + extra, coarse=coarse)
        assert_same_bits(t, project_per_atom(free, fam, j0, j0 + extra, coarse=coarse))

    @pytest.mark.parametrize(
        "name, j0, top, a_max", [("haar", 4, 10, 2.0**13), ("daub4", 4, 10, 2.0**13),
                                 ("daub6", 2, 9, 2.0**13), ("daub8", 1, 8, 2.0**14)]
    )
    def test_sampled_realisations_equal_the_per_atom_loop(self, name, j0, top, a_max):
        fam = family(name)
        spec = CwtSpec(4.0, 0.5, 1.0, 1.0, GAUSS, a0=1.0, a_max=a_max)
        for rep in range(2):
            found = sample_atoms(spec, seed=8, replicate=rep)
            assert_same_bits(
                project_to_orthogonal(found, fam, j0, top), project_per_atom(found, fam, j0, top)
            )

    def test_chunks_bound_the_memory_of_many_tiny_scale_atoms(self):
        # 2,000 atoms of 3,072 samples each: 6.1M samples, about 330 MiB at
        # once; chunks of at most 2^18 samples keep the peak near 20 MiB
        fam = family("daub4")
        found = atom_set(*[(1e-9, 0.5, 1.0)] * 2000)
        project_to_orthogonal(atom_set((1e-9, 0.5, 1.0)), fam, 1, 9)  # fill the table caches
        tracemalloc.start()
        try:
            project_to_orthogonal(found, fam, 1, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**25

    def test_an_atom_too_coarse_for_int64_positions_is_refused(self):
        with pytest.raises(ValueError, match="too large to project"):
            project_to_orthogonal(atom_set((2.0**70 * 1.1, 0.3, 1.0)), family("daub4"), 1, 4)

    @given(
        name=st.sampled_from(FAMILY_NAMES),
        t=st.lists(
            st.one_of(
                st.floats(min_value=-1.0, max_value=8.0),
                st.integers(min_value=0, max_value=7 << 12).map(lambda i: i / 4096.0),
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300]),
            ),
            min_size=1,
            max_size=50,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_psi_lookup_equals_np_interp(self, name, t):
        grid = cascade_eval(family(name), 12)
        t = np.array(t)
        want = np.interp(t, grid.grid, grid.psi, left=0.0, right=0.0)
        got = cwt_module._interp_psi(t, name)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestMomentExperiment:
    def test_decay_slope_matches_dominant_exponent(self):
        spec = CwtSpec(1.0, 0.5, 1.0, 1.0, GAUSS, a0=1.0, a_max=2.0**9)
        report = moment_bound_experiment(
            spec, family("daub8"), 2.0, levels=range(4, 9), reps=40, seed=1
        )
        assert report.expected_slope == pytest.approx(-1.5)
        assert -1.75 <= report.slope <= -1.25
        assert report.kind == "cwt-moment"
        assert report.dropped_fraction == 0.0

    def test_zero_intensity_zero_moments(self):
        spec = CwtSpec(0.0, 0.5, 1.0, 1.0, GAUSS, a0=1.0, a_max=64.0)
        report = moment_bound_experiment(spec, family("daub4"), 2.0, levels=range(3, 6), reps=3, seed=0)
        assert all(st.mean == 0.0 for st in report.levels)
        assert report.slope is None
        # no level has a logarithm to fit
        assert report.dropped_fraction == 1.0

    def test_doubling_intensity_doubles_second_moment(self):
        base = dict(beta=0.5, c_tau=1.0, alpha=1.0, slab=GAUSS, a0=1.0, a_max=2.0**9)
        r1 = moment_bound_experiment(
            CwtSpec(c_mu=4.0, **base), family("daub4"), 2.0, levels=range(4, 8), reps=200, seed=3
        )
        r2 = moment_bound_experiment(
            CwtSpec(c_mu=8.0, **base), family("daub4"), 2.0, levels=range(4, 8), reps=200, seed=11
        )
        total1 = sum(st.mean for st in r1.levels)
        total2 = sum(st.mean for st in r2.levels)
        assert total2 / total1 == pytest.approx(2.0, rel=0.15)

    @pytest.mark.parametrize("name, m", [("daub4", 0.3278688524590164), ("daub6", 0.21796939709664764)])
    def test_kernel_gate_is_exact(self, name, m):
        # m (r + rho + 1/2) exceeds 1 exactly, though the float product rounds to 1
        spec = CwtSpec(1.0, 0.5, 1.0, 1.0, GAUSS, a0=1.0, a_max=16.0)
        report = moment_bound_experiment(spec, family(name), m, levels=range(2, 4), reps=2)
        assert report.kind == "cwt-moment"
        with pytest.raises(ValueError, match="kernel term"):
            moment_bound_experiment(
                spec, family(name), math.nextafter(m, 0.0), levels=range(2, 4), reps=2
            )

    def test_preconditions(self):
        spec = CwtSpec(1.0, 0.5, 1.0, 1.0, Cauchy(), a0=1.0, a_max=64.0)
        with pytest.raises(ValueError, match="finite moment"):
            moment_bound_experiment(spec, family("daub4"), 2.0, levels=range(3, 6))
        spec2 = CwtSpec(1.0, 0.5, 1.0, 1.0, GAUSS, a0=1.0, a_max=64.0)
        with pytest.raises(ValueError, match="kernel term"):
            moment_bound_experiment(spec2, family("haar"), 1.0, levels=range(3, 6))
        with pytest.raises(ValueError, match="replicates"):
            moment_bound_experiment(spec2, family("daub4"), 2.0, levels=range(3, 6), reps=1)
        with pytest.raises(ValueError, match="levels"):
            moment_bound_experiment(spec2, family("daub4"), 2.0, levels=[])


class TestClassifyCwt:
    def test_power_family_anchor(self):
        v = classify_cwt(GAUSS, 3.0, 0.5, BesovParams(1.0, 2.0, 2.0), r=2.5, rho=0.5)
        assert v.decision is Decision.MEMBER_AS
        assert v.threshold == pytest.approx(1.25)
        assert v.case_id.startswith("cwt/")

    def test_general_family_p_infinity_not_covered(self):
        v = classify_cwt(
            GAUSS, 3.0, 0.5, BesovParams(1.0, math.inf, 2.0), r=2.5, rho=0.5,
            mu=LevelSchedule(1.0, 0.5), tau=LevelSchedule(1.0, 1.5),
        )
        assert v.decision is Decision.NOT_COVERED
        assert v.case_id == "cwt/general-p-inf"

    def test_steep_intensity_always_member(self):
        for s in (0.5, 1.5, 2.2):
            v = classify_cwt(GAUSS, 3.0, 1.5, BesovParams(s, 2.0, 2.0), r=2.5, rho=0.5)
            assert v.decision is Decision.MEMBER_AS

    def test_kernel_regularity_gate(self):
        v = classify_cwt(GAUSS, 3.0, 0.5, BesovParams(0.5, 2.0, 2.0), r=1.0, rho=0.5)
        assert v.decision is Decision.NOT_COVERED
        assert v.case_id == "cwt/kernel-regularity"

    def test_smoothness_at_or_above_r_is_refused_before_the_gates(self):
        # r + rho = 3.5 fails the kernel gate, yet s >= r is refused at r first
        for s in (3.0, 5.0):
            with pytest.raises(ConfigError) as info:
                classify_cwt(GAUSS, 10.0, 0.5, BesovParams(s, 2.0, 2.0), r=3.0, rho=0.5)
            assert info.value.path == "r"

    def test_heavy_tail_gate(self):
        v = classify_cwt(Cauchy(), 1.0, 0.5, BesovParams(0.2, 2.0, 2.0), r=0.6, rho=0.5)
        assert v.decision is Decision.NOT_COVERED
        assert v.case_id == "cwt/heavy-tail-gap"
        # a smoother filter restores coverage for the same tail
        v2 = classify_cwt(Cauchy(), 1.0, 0.5, BesovParams(0.2, math.inf, math.inf), r=4.0, rho=1.6)
        assert v2.case_id != "cwt/heavy-tail-gap"
        assert v2.decision is Decision.NOT_MEMBER_AS

    def test_kernel_gates_are_exact(self):
        # 1 + 0.1 exceeds (1 + 1.2)/2 and 1.25 exceeds 2/(1 + 0.1 + 1/2) exactly,
        # though each pair rounds to equal floats
        v = classify_cwt(GAUSS, 1.2, 0.5, BesovParams(0.3, 2.0, 2.0), r=1.0, rho=0.1)
        assert v.case_id == "cwt/p-finite"
        v = classify_cwt(StudentT(1.25), 1.0, 0.5, BesovParams(0.3, 1.0, 1.0), r=1.0, rho=0.1)
        assert v.case_id == "cwt/p-finite"
        # at an exact tie each gate still refuses
        v = classify_cwt(GAUSS, 1.0, 0.5, BesovParams(0.3, 2.0, 2.0), r=0.5, rho=0.5)
        assert v.case_id == "cwt/kernel-regularity"
        v = classify_cwt(Cauchy(), 1.0, 0.5, BesovParams(0.3, 1.0, 1.0), r=1.0, rho=0.5)
        assert v.case_id == "cwt/heavy-tail-gap"

    @given(
        slab=st.sampled_from([GAUSS, Laplace(1.0), StudentT(3.0), Cauchy()]),
        c_mu=st.floats(min_value=0.25, max_value=1.0),
        e_mu=st.floats(min_value=0.0, max_value=2.0),
        g_mu=st.floats(min_value=-2.0, max_value=2.0),
        e_tau=st.floats(min_value=0.0, max_value=3.0),
        g_tau=st.floats(min_value=-2.0, max_value=2.0),
        s=st.floats(min_value=0.05, max_value=2.4),
        p=st.sampled_from([1.0, 2.0, 3.0]),
        q=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    )
    @example(slab=GAUSS, c_mu=1.0, e_mu=0.5, g_mu=0.0, e_tau=1.5, g_tau=0.0, s=1.0, p=2.0, q=2.0)
    @example(slab=GAUSS, c_mu=1.0, e_mu=1.0, g_mu=0.0, e_tau=1.5, g_tau=0.0, s=1.0, p=2.0, q=math.inf)
    @example(slab=Cauchy(), c_mu=1.0, e_mu=0.5, g_mu=0.0, e_tau=1.5, g_tau=0.0, s=1.0, p=2.0, q=2.0)
    @example(slab=GAUSS, c_mu=1.0, e_mu=2.0, g_mu=0.0, e_tau=1.5, g_tau=0.0, s=1.0, p=2.0, q=2.0)
    @example(slab=GAUSS, c_mu=1.0, e_mu=1.0, g_mu=-0.5, e_tau=1.5, g_tau=0.0, s=1.0, p=2.0, q=2.0)
    @example(slab=Cauchy(), c_mu=1.0, e_mu=1.0, g_mu=0.0, e_tau=1.5, g_tau=0.0, s=1.0, p=1.0, q=2.0)
    @example(slab=GAUSS, c_mu=1.0, e_mu=1.0, g_mu=0.0, e_tau=1.5, g_tau=0.0, s=1.0, p=2.0, q=2.0)
    @settings(max_examples=200, deadline=None)
    def test_general_route_matches_classify_general(
        self, slab, c_mu, e_mu, g_mu, e_tau, g_tau, s, p, q
    ):
        # an increasing mu (e = 0 with g > 0) is refused at mu
        assume(e_mu > 0 or g_mu <= 0)
        bp = BesovParams(s, p, q)
        mu, tau = LevelSchedule(c_mu, e_mu, g_mu), LevelSchedule(1.0, e_tau, g_tau)
        cwt_v = classify_cwt(slab, 3.0, 0.5, bp, r=2.5, rho=0.5, mu=mu, tau=tau)
        general = classify_general(slab, tau, mu, bp, 2.5)
        case = general.case_id.split("/", 1)[1]
        if case in ("case1", "case3") and not general.covered:
            assert cwt_v.case_id == "cwt/general-assumption-h"
        else:
            assert cwt_v.case_id == GENERAL_LABELS[case]
        if case == "case4":
            # the orthogonal model has a constant-count case at q = inf; cwt does not
            assert cwt_v.decision is Decision.NOT_COVERED
            assert cwt_v.threshold is None
        else:
            assert cwt_v.decision is general.decision
            assert cwt_v.threshold == general.threshold

    def test_general_route_decides_a_rounding_tie_exactly(self):
        # 0.05 + 0.5 - 0.55 rounds to 0, so G = 1 > 0 would fail the sup;
        # the exact exponent is -4e-17
        v = classify_cwt(
            GAUSS, 1.0, 0.5, BesovParams(0.05, 2.0, math.inf), r=3.0, rho=0.5,
            mu=LevelSchedule(1.0, 0.0, 0.0), tau=LevelSchedule(1.0, 0.55, 1.0),
        )
        assert v.decision is Decision.MEMBER_AS

    def test_general_summable_and_gap(self):
        bp = BesovParams(1.0, 2.0, 2.0)
        v = classify_cwt(
            GAUSS, 3.0, 0.5, bp, r=2.5, rho=0.5,
            mu=LevelSchedule(1.0, 2.0), tau=LevelSchedule(1.0, 1.5),
        )
        assert v.decision is Decision.MEMBER_AS
        assert v.case_id == "cwt/general-summable"
        # a zero intensity has no atoms at all, whatever the growth of 2^j mu
        v0 = classify_cwt(
            GAUSS, 3.0, 0.5, bp, r=2.5, rho=0.5,
            mu=LevelSchedule(0.0, 0.5), tau=LevelSchedule(1.0, 1.5),
        )
        assert v0.decision is Decision.MEMBER_AS
        assert v0.case_id == "cwt/general-summable"
        v0 = classify_cwt(
            GAUSS, 3.0, 0.5, bp, r=2.5, rho=0.5,
            mu=LevelSchedule(0.0, -1.0), tau=LevelSchedule(1.0, 1.5),
        )
        assert v0.case_id == "cwt/general-summable"
        v2 = classify_cwt(
            GAUSS, 3.0, 0.5, bp, r=2.5, rho=0.5,
            mu=LevelSchedule(1.0, 1.0, -0.5), tau=LevelSchedule(1.0, 1.5),
        )
        assert v2.decision is Decision.NOT_COVERED

    def test_general_constant_count_needs_q_moment(self):
        bp = BesovParams(1.0, 2.0, 4.0)
        v = classify_cwt(
            StudentT(3.0), 3.0, 1.0, bp, r=2.5, rho=0.5,
            mu=LevelSchedule(1.0, 1.0), tau=LevelSchedule(1.0, 1.5),
        )
        assert v.decision is Decision.NOT_COVERED
        assert v.case_id == "cwt/general-assumption-h"

    def test_general_q_infinity_needs_growth(self):
        bp = BesovParams(1.0, 2.0, math.inf)
        v = classify_cwt(
            GAUSS, 3.0, 1.0, bp, r=2.5, rho=0.5,
            mu=LevelSchedule(1.0, 1.0), tau=LevelSchedule(1.0, 1.5),
        )
        assert v.decision is Decision.NOT_COVERED
        assert v.case_id == "cwt/general-q-inf"
        v2 = classify_cwt(
            GAUSS, 3.0, 0.5, bp, r=2.5, rho=0.5,
            mu=LevelSchedule(1.0, 0.5), tau=LevelSchedule(1.0, 1.5),
        )
        assert v2.decision in (Decision.MEMBER_AS, Decision.NOT_MEMBER_AS)

    @pytest.mark.parametrize("mu", [LevelSchedule(1.0, -0.5), LevelSchedule(0.5, 0.0, 0.5)])
    def test_increasing_mu_is_refused(self, mu):
        # classify_general would read min(1, mu), a family the route does not cover
        with pytest.raises(ConfigError) as info:
            classify_cwt(
                GAUSS, 1.0, 0.5, BesovParams(0.75, 2.0, 2.0), r=2.5, rho=0.5,
                mu=mu, tau=LevelSchedule(1.0, 1.5),
            )
        assert info.value.path == "mu"

    def test_mu_and_tau_come_together(self):
        with pytest.raises(ValueError, match="both"):
            classify_cwt(
                GAUSS, 3.0, 0.5, BesovParams(1.0, 2.0, 2.0), r=2.5, rho=0.5,
                mu=LevelSchedule(1.0, 0.5),
            )

    @given(
        slab=st.sampled_from([GAUSS, Laplace(1.0), StudentT(3.0), Cauchy()]),
        alpha=st.floats(min_value=0.5, max_value=5.0),
        beta=st.floats(min_value=0.0, max_value=2.0),
        s=st.floats(min_value=0.05, max_value=3.9),
        p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
        q=st.sampled_from([1.0, 2.0, 4.0, math.inf]),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_orthogonal_classifier(self, slab, alpha, beta, s, p, q):
        bp = BesovParams(s, p, q)
        r, rho = 4.0, 1.6
        cwt_v = classify_cwt(slab, alpha, beta, bp, r=r, rho=rho)
        if cwt_v.case_id in ("cwt/kernel-regularity", "cwt/heavy-tail-gap"):
            return
        simple_v = simple_table(slab, alpha, beta, bp, r=r)
        assert cwt_v.decision is simple_v.decision
        if simple_v.threshold is not None:
            assert cwt_v.threshold == pytest.approx(simple_v.threshold)
