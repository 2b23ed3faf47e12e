import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from besovlab.cli import _echo, main
from besovlab.distributions import Gaussian
from besovlab.sampler import (
    CoefficientTree,
    Level,
    PriorSpec,
    nonzero_counts,
    rng_for,
    sample_tree,
    tree_from_dict,
    tree_to_dict,
)
from besovlab.schedules import Infinite, LevelSchedule, Regression


def spec_with(pi, tau=LevelSchedule(1.0), slab=Gaussian(1.0), mode=Infinite(10)):
    return PriorSpec(tau=tau, pi=pi, slab=slab, mode=mode)


def test_all_spike_gives_empty_levels():
    t = sample_tree(spec_with(LevelSchedule(0.0)), j0=2, scaling=[1.0, 2.0, 3.0, 4.0], seed=5)
    assert all(lev.k.size == 0 for lev in t.levels)
    assert np.array_equal(t.scaling, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(nonzero_counts(t), np.zeros(9, dtype=np.int64))


def test_no_spike_fills_level_completely():
    spec = spec_with(LevelSchedule(1.0), mode=Infinite(10))
    t = sample_tree(spec, j0=10, seed=3)
    assert len(t.levels) == 1
    assert t.levels[0].k.size == 1024
    assert np.array_equal(t.levels[0].k, np.arange(1024))


def test_binomial_mean_count_at_sparse_level():
    # E N_16 = 2^16 * 2^-8 = 256, sd = sqrt(n_j (1-pi)) ~ 16
    spec = spec_with(LevelSchedule(1.0, 0.5, 0.0), mode=Infinite(16))
    counts = []
    for rep in range(200):
        t = sample_tree(spec, j0=16, seed=99, replicate=rep)
        counts.append(t.levels[0].k.size)
    mean = np.mean(counts)
    tol = 3.0 * math.sqrt(256.0) / math.sqrt(200.0)
    assert abs(mean - 256.0) <= tol


def test_binomial_variance_sanity():
    spec = spec_with(LevelSchedule(1.0, 0.5, 0.0), mode=Infinite(12))
    counts = np.array(
        [sample_tree(spec, j0=12, seed=7, replicate=r).levels[0].k.size for r in range(400)]
    )
    n_j = 2**12 * 2.0**-6
    expect_var = n_j * (1 - 2.0**-6)
    # chi^2-ish spread: allow 4 std errors of the variance estimate
    se_var = expect_var * math.sqrt(2.0 / 399.0)
    assert abs(np.var(counts, ddof=1) - expect_var) <= 4 * se_var


def test_summable_regime_rare_high_levels():
    # E total count above level 4 = sum_{j>4} 2^-j = 2^-4 - 2^-20
    spec = spec_with(LevelSchedule(1.0, 2.0, 0.0), mode=Infinite(20))
    totals = []
    for rep in range(500):
        t = sample_tree(spec, j0=0, seed=11, replicate=rep)
        totals.append(sum(lev.k.size for lev in t.levels if lev.j > 4))
    expect = 2.0**-4 - 2.0**-20
    se = math.sqrt(expect / 500.0)  # variance ~ mean for rare counts
    assert abs(np.mean(totals) - expect) <= 3 * se


def test_deterministic_given_seed():
    spec = spec_with(LevelSchedule(1.0, 0.5, 0.0), mode=Infinite(12))
    t1 = sample_tree(spec, j0=3, seed=1234, replicate=7)
    t2 = sample_tree(spec, j0=3, seed=1234, replicate=7)
    assert tree_to_dict(t1) == tree_to_dict(t2)
    t3 = sample_tree(spec, j0=3, seed=1235, replicate=7)
    assert tree_to_dict(t1) != tree_to_dict(t3)


def test_positions_sorted_unique_in_range():
    spec = spec_with(LevelSchedule(0.9), mode=Infinite(9))
    t = sample_tree(spec, j0=4, seed=2)
    for lev in t.levels:
        assert np.all(np.diff(lev.k) > 0)
        assert lev.k.size == np.unique(lev.k).size
        if lev.k.size:
            assert 0 <= lev.k[0] and lev.k[-1] < 2**lev.j


def test_regression_mode_top_level_and_scale():
    spec = spec_with(
        LevelSchedule(1.0),
        tau=LevelSchedule(1.0),
        mode=Regression(n=1000),
    )
    assert spec.top_level() == 8  # floor(log2 1000) - 1 = 9 - 1
    t = sample_tree(spec, j0=0, seed=0)
    assert t.top_level == 8
    # amplitude carries the n^{-1/2} factor
    assert spec.amplitude(3) == pytest.approx(1000**-0.5)


@pytest.mark.parametrize("n, top", [(2**49 - 1, 47), (2**49, 48), (2**53 - 1, 51), (2**53, 52), (3, 0)])
def test_regression_top_level_is_exact_where_log2_rounds(n, top):
    # math.log2(2^k - 1) rounds up to k once k >= 49
    assert PriorSpec(LevelSchedule(1.0), LevelSchedule(1.0), Gaussian(1.0), Regression(n)).top_level() == top


def test_regression_mode_needs_enough_samples():
    spec = spec_with(LevelSchedule(1.0), mode=Regression(n=10))
    with pytest.raises(ValueError):
        sample_tree(spec, j0=3, seed=0)


def test_invalid_levels_rejected():
    spec = spec_with(LevelSchedule(1.0), mode=Infinite(2))
    with pytest.raises(ValueError):
        sample_tree(spec, j0=5, seed=0)
    with pytest.raises(ValueError):
        sample_tree(spec, j0=-1, seed=0)


@pytest.mark.parametrize(
    "doc",
    [
        {"j0": 10**8, "scaling": [0.0], "levels": []},
        {"j0": 0, "scaling": [0.0], "levels": [{"j": 10**8, "k": [0], "w": [1.0]}]},
    ],
    ids=["j0", "level-j"],
)
def test_huge_level_index_is_refused_without_computing_its_width(doc):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            tree_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_tree_validation():
    with pytest.raises(ValueError):
        Level(3, np.array([1, 1]), np.array([1.0, 2.0]))  # duplicate positions
    with pytest.raises(ValueError):
        Level(2, np.array([4]), np.array([1.0]))  # out of range
    with pytest.raises(ValueError):
        Level(2, np.array([1]), np.array([0.0]))  # explicit zero
    with pytest.raises(ValueError):
        CoefficientTree(1, np.zeros(3), ())  # wrong scaling width


def test_oversized_draw_rejected():
    dense = spec_with(LevelSchedule(1.0), mode=Infinite(48))
    with pytest.raises(ValueError, match="mode: more than"):
        sample_tree(dense, j0=48)
    # the budget counts expected nonzeros, not level widths
    sparse = spec_with(LevelSchedule(1e-9), mode=Infinite(34))
    assert sample_tree(sparse, j0=1, seed=3).top_level == 34


def test_json_round_trip():
    spec = spec_with(LevelSchedule(1.0, 0.5, 0.0), mode=Infinite(8))
    t = sample_tree(spec, j0=2, scaling=[0.5, -1.5, 0.0, 2.0], seed=77)
    t2 = tree_from_dict(json.loads(json.dumps(tree_to_dict(t))))
    assert t2.j0 == t.j0
    assert np.array_equal(t2.scaling, t.scaling)
    for a, b in zip(t.levels, t2.levels):
        assert a.j == b.j
        assert np.array_equal(a.k, b.k)
        assert np.array_equal(a.w, b.w)


def test_json_format_shape():
    t = CoefficientTree(0, np.array([1.0]), (Level(0, np.array([0]), np.array([2.5])),))
    doc = tree_to_dict(t)
    assert doc == {"j0": 0, "scaling": [1.0], "levels": [{"j": 0, "k": [0], "w": [2.5]}]}


def test_csv_round_trip(tmp_path):
    spec = spec_with(LevelSchedule(1.0, 0.5, 0.0), mode=Infinite(9))
    t = sample_tree(spec, j0=3, seed=13)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_echo(spec), "j0": 3, "seed": 13}))
    table = tmp_path / "tree.csv"
    report = tmp_path / "report.json"
    assert main(["sample", "--config", str(cfg), "--out", str(report), "--csv", str(table)]) == 0
    with open(table, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["j", "k", "w"]
    assert len(rows) == int(nonzero_counts(t).sum())
    for lev in t.levels:
        mine = [(int(k), float(w)) for j, k, w in rows if int(j) == lev.j]
        assert [k for k, _ in mine] == lev.k.tolist()
        assert [w for _, w in mine] == lev.w.tolist()


def test_rng_for_streams_are_distinct():
    a = rng_for(5, 0, 3).random(4)
    b = rng_for(5, 0, 4).random(4)
    c = rng_for(5, 1, 3).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, rng_for(5, 0, 3).random(4))

