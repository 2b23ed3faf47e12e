"""Sampling coefficient trees from the spike-and-slab prior.

A coefficient at level ``j`` is nonzero with probability ``min(1, pi_j)``
and, when nonzero, equals ``tau_j * xi`` with ``xi`` drawn from the slab.
Two truncation modes exist: a plain truncation at a top level ``J``
("infinite model" cut off for simulation), and a regression-scaled mode
where a sample size ``n`` fixes ``J = floor(log2 n) - 1`` and multiplies
every coefficient by ``n^(-1/2)``.

Levels are stored sparsely as position and value columns; zeros are
implicit.  Sampling is O(number of nonzeros) per level: `draw_level` draws
a binomial count, then that many slab values, and `sample_tree` then draws
uniform positions without replacement (by sequential rejection) from the
same generator.  The Monte Carlo experiments in `lab` use the same level
draw, so they see exactly the coefficients `sample_tree` returns.
Randomness is keyed by (seed, replicate, level) through
``numpy.random.SeedSequence`` spawn keys, so results are reproducible
under any parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .distributions import SlabDistribution, sample as slab_sample
from .fields import ConfigError, array, block, integer, numbers, under
from .schedules import Infinite, LevelSchedule, Mode, Regression

__all__ = [
    "Level",
    "CoefficientTree",
    "PriorSpec",
    "sample_tree",
    "draw_count",
    "draw_level",
    "check_dense_size",
    "check_draw_size",
    "nonzero_counts",
    "rng_for",
    "tree_to_dict",
    "tree_from_dict",
]


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (replicate, level, ...) sub-stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class Level:
    """Sparse level: strictly increasing positions ``k`` with nonzero ``w``."""

    j: int
    k: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.k, dtype=np.int64)
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "w", w)
        if self.j < 0:
            raise ValueError(f"level index must be >= 0, got {self.j}")
        if k.shape != w.shape or k.ndim != 1:
            raise ValueError("positions and values must be 1-d arrays of equal length")
        if k.size:
            # no int64 position reaches 2^63; 2**j of a huge j would not fit in memory
            if k[0] < 0 or (self.j < 63 and k[-1] >= 1 << self.j):
                raise ValueError(f"positions out of range [0, 2^{self.j}) at level {self.j}")
            if np.any(np.diff(k) <= 0):
                raise ValueError(f"positions must be strictly increasing at level {self.j}")
            if np.any(w == 0.0):
                raise ValueError("stored coefficients must be nonzero (zeros are implicit)")


@dataclass(frozen=True)
class CoefficientTree:
    j0: int
    scaling: np.ndarray
    levels: tuple[Level, ...]

    def __post_init__(self) -> None:
        scaling = np.asarray(self.scaling, dtype=np.float64)
        object.__setattr__(self, "scaling", scaling)
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.j0 < 0:
            raise ValueError(f"j0 must be >= 0, got {self.j0}")
        if self.j0 > 62 or scaling.shape != (1 << self.j0,):  # no array holds 2^63 values
            raise ValueError(
                f"scaling must hold 2^{self.j0} values, got shape {scaling.shape}"
            )
        expect = self.j0
        for lev in self.levels:
            if lev.j != expect:
                raise ValueError(
                    f"levels must cover [j0, J] contiguously; expected {expect}, got {lev.j}"
                )
            expect += 1

    @property
    def top_level(self) -> int:
        return self.j0 + len(self.levels) - 1 if self.levels else self.j0 - 1


# Largest expected nonzero count of one draw: about 256 MB of positions and
# values, plus at most four permuted positions per nonzero on dense levels.
# Dense rows (scaling rows, projection rows, synthesis grids) get the same cap.
_MAX_EXPECTED_NONZEROS = 2**24

# Highest level a draw supports: the level width 2^j goes to the binomial
# draw as a C long, and positions are int64.
_MAX_LEVEL = 62

_NUMBER = {int, float}  # a tree value's exact type: a bool is not a number here


def _check_level(j: int, blame: str) -> None:
    if j > _MAX_LEVEL:
        raise ConfigError(
            blame, f"level {j} is above {_MAX_LEVEL}, the highest level a draw supports"
        )


def check_dense_size(log2_size: float, blame: str) -> None:
    """Reject a dense array of ``2^log2_size`` values before it is allocated
    when it would hold more than 2^24; ``blame`` is the field that sized it."""
    if log2_size > math.log2(_MAX_EXPECTED_NONZEROS):
        raise ConfigError(
            blame, f"more than {_MAX_EXPECTED_NONZEROS} values in one dense array; lower it"
        )


def check_draw_size(pi: LevelSchedule, levels: Iterable[int], blame: str) -> None:
    """Reject a draw over ``levels`` before it allocates anything when its
    expected nonzero count ``sum_j 2^j min(1, pi_j)`` exceeds 2^24 or a
    level is above 62; ``blame`` is the config field that chose the
    levels."""
    total = 0.0
    for j in levels:
        _check_level(j, blame)
        total += math.ldexp(pi.clamped_at(j), j)
        if total > _MAX_EXPECTED_NONZEROS:
            raise ConfigError(
                blame,
                f"more than {_MAX_EXPECTED_NONZEROS} nonzero coefficients "
                f"expected by level {j}; lower the top level or pi",
            )


@dataclass(frozen=True)
class PriorSpec:
    tau: LevelSchedule
    pi: LevelSchedule
    slab: SlabDistribution
    mode: Mode = Infinite(12)

    def top_level(self) -> int:
        if isinstance(self.mode, Infinite):
            return self.mode.j_max
        return self.mode.n.bit_length() - 2  # floor(log2 n) - 1, exact for every n

    def amplitude(self, j: int) -> float:
        """Scale multiplying the slab draw at level ``j``."""
        amp = self.tau.value_at(j)
        if not math.isfinite(amp):
            raise ConfigError("tau", f"the amplitude at level {j} overflows a float")
        if isinstance(self.mode, Regression):
            amp /= math.sqrt(self.mode.n)
        return amp


def draw_count(rng: np.random.Generator, pi: LevelSchedule, j: int) -> int:
    """Nonzero count of level ``j``, ``Bin(2^j, min(1, pi_j))``.  A full level
    (``min(1, pi_j) >= 1``) draws nothing from ``rng``."""
    p = pi.clamped_at(j)
    if p >= 1.0:
        return 1 << j
    return int(rng.binomial(1 << j, p))


def draw_level(spec: PriorSpec, rng: np.random.Generator, j: int) -> np.ndarray:
    """Coefficient values of level ``j`` in draw order: the count, then that
    many slab values times ``spec.amplitude(j)``; positions are not drawn.
    A product that overflows a float is a `ConfigError` at ``tau``."""
    count = draw_count(rng, spec.pi, j)
    amp = spec.amplitude(j)
    draws = slab_sample(spec.slab, rng, size=count)
    try:
        with np.errstate(over="raise"):
            return amp * draws
    except FloatingPointError:
        reason = f"the amplitude {amp:g} times a slab draw overflows a float at level {j}"
        raise ConfigError("tau", reason) from None


def _positions_without_replacement(rng: np.random.Generator, width: int, count: int) -> np.ndarray:
    """``count`` distinct uniform positions in [0, width), sorted."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count == width:
        return np.arange(width, dtype=np.int64)
    if count > width:
        raise ValueError("count exceeds level width")
    if count * 4 >= width:
        # dense level: a permutation is cheaper than rejection
        pos = rng.permutation(width)[:count]
        return np.sort(pos.astype(np.int64))
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        batch = rng.integers(0, width, size=count - len(out))
        for v in batch.tolist():
            if v not in seen:
                seen.add(v)
                out.append(v)
    return np.sort(np.asarray(out, dtype=np.int64))


def sample_tree(
    spec: PriorSpec,
    j0: int,
    scaling: Iterable[float] | None = None,
    seed: int = 0,
    replicate: int = 0,
) -> CoefficientTree:
    """Draw one tree from the prior; deterministic given (seed, replicate).

    Each level is `draw_level`'s values, then their positions drawn from
    the same generator; exact zeros are dropped.  ``scaling`` supplies the
    coarse coefficients u_{j0,m} (the theory holds for any fixed values);
    defaults to zeros.
    """
    if j0 < 0:
        raise ValueError(f"j0 must be >= 0, got {j0}")
    top = spec.top_level()
    if isinstance(spec.mode, Infinite) and top < j0:
        raise ConfigError("mode.j_max", f"top level {top} below j0={j0}")
    if isinstance(spec.mode, Regression) and spec.mode.n < 2 ** (j0 + 1):
        raise ConfigError(
            "mode.n", f"regression mode needs n >= 2^(j0+1) = {2 ** (j0 + 1)}, got {spec.mode.n}"
        )
    check_draw_size(spec.pi, range(j0, top + 1), "mode")
    check_dense_size(j0, "j0")  # the scaling row
    if scaling is None:
        scaling_arr = np.zeros(2**j0)
    else:
        scaling_arr = np.asarray(list(scaling), dtype=np.float64)
        if scaling_arr.size != 1 << j0:
            raise ConfigError("scaling", f"expected 2^{j0} values, got {scaling_arr.size}")
        _finite(scaling_arr, "scaling[{}]")

    levels = []
    for j in range(j0, top + 1):
        rng = rng_for(seed, replicate, j)
        w = draw_level(spec, rng, j)
        k = _positions_without_replacement(rng, 1 << j, w.size)
        keep = w != 0.0
        levels.append(Level(j, k[keep], w[keep]))
    return CoefficientTree(j0, scaling_arr, tuple(levels))


def nonzero_counts(t: CoefficientTree) -> np.ndarray:
    """Per-level nonzero coefficient counts, ordered from j0 upward."""
    return np.asarray([lev.k.size for lev in t.levels], dtype=np.int64)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def tree_to_dict(t: CoefficientTree) -> dict:
    """The tree as a JSON-ready document (format v2): ``j0``, ``scaling``
    and one columnar ``{"j", "k": [...], "w": [...]}`` per level;
    `tree_from_dict` reads it."""
    return {
        "j0": t.j0,
        "scaling": t.scaling.tolist(),
        "levels": [{"j": lev.j, "k": lev.k.tolist(), "w": lev.w.tolist()} for lev in t.levels],
    }


def _column(item, key: str, types: set, what: str) -> list:
    values = array(item, key)
    if not set(map(type, values)) <= types:
        bad = next(v for v in values if type(v) not in types)
        raise ConfigError(key, f"expected a list of {what}, got {bad!r}")
    return values


def _finite(values: np.ndarray, key: str) -> None:
    """A `ConfigError` at ``key.format(i)`` for the first value ``values[i]``
    that is infinite or NaN."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise ConfigError(key.format(i), f"expected a finite number, got {values[i]}")


def _level_from_dict(item) -> Level:
    """A level in the columnar form ``{"j", "k": [...], "w": [...]}``."""
    j = integer(item, "j")
    lev = Level(j, _column(item, "k", {int}, "integers"), _column(item, "w", _NUMBER, "numbers"))
    _finite(lev.w, "w[{}]")
    return lev


def tree_from_dict(doc: dict) -> CoefficientTree:
    """Inverse of `tree_to_dict`.  A malformed document raises a `ConfigError`
    led by the failing field path, e.g. ``levels[2].k: expected a list of
    integers, got 0.5``."""
    j0 = integer(doc, "j0")
    items = array(doc, "levels")
    with under("levels"):
        levels = tuple(block(_level_from_dict, items, i) for i in range(len(items)))
    scaling = np.asarray(numbers(doc, "scaling"), dtype=np.float64)
    _finite(scaling, "scaling[{}]")
    return CoefficientTree(j0, scaling, levels)
