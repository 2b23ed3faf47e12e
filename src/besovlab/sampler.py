"""Sampling coefficient trees from the spike-and-slab prior.

A coefficient at level ``j`` is nonzero with probability ``min(1, pi_j)``
and, when nonzero, equals ``tau_j * xi`` with ``xi`` drawn from the slab.
Two truncation modes exist: a plain truncation at a top level ``J``
("infinite model" cut off for simulation), and a regression-scaled mode
where a sample size ``n`` fixes ``J = floor(log2 n) - 1`` and multiplies
every coefficient by ``n^(-1/2)``.

Levels are stored sparsely as (position, value) pairs; zeros are
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
from typing import Iterable, Union

import numpy as np

from .distributions import SlabDistribution, sample as slab_sample, slab_from_dict, slab_to_dict
from .fields import ConfigError, array, block, integer, numbers, string, under
from .schedules import LevelSchedule

__all__ = [
    "Level",
    "CoefficientTree",
    "Infinite",
    "Regression",
    "PriorSpec",
    "sample_tree",
    "draw_count",
    "draw_level",
    "check_dense_size",
    "nonzero_counts",
    "rng_for",
    "tree_to_dict",
    "tree_from_dict",
    "tree_to_csv_rows",
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
            if k[0] < 0 or k[-1] >= 2**self.j:
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
        if scaling.shape != (2**self.j0,):
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


@dataclass(frozen=True)
class Infinite:
    """Truncate the infinite model at top level ``j_max`` (inclusive)."""

    j_max: int


@dataclass(frozen=True)
class Regression:
    """Finite-n regression prior: top level ``floor(log2 n) - 1`` and a
    global ``n^(-1/2)`` scale on coefficients."""

    n: int


Mode = Union[Infinite, Regression]

# mode kind -> (its integer field, mode type)
_MODES = {"infinite": ("j_max", Infinite), "regression": ("n", Regression)}

# Largest expected nonzero count of one draw: about 256 MB of positions and
# values, plus at most four permuted positions per nonzero on dense levels.
# Dense rows (scaling rows, projection rows, synthesis grids) get the same cap.
_MAX_EXPECTED_NONZEROS = 2**24

# Highest level a draw supports: the level width 2^j goes to the binomial
# draw as a C long, and positions are int64.
_MAX_LEVEL = 62

_NUMBER = (int, float)  # a tree value's exact type: a bool is not a number here


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


def _mode_from_dict(d) -> Mode:
    """``{"kind": "infinite", "j_max": J}`` or ``{"kind": "regression", "n": n}``."""
    kind = string(d, "kind")
    if kind not in _MODES:
        raise ConfigError("kind", f"expected 'infinite' or 'regression', got {kind!r}")
    name, mode_type = _MODES[kind]
    return mode_type(integer(d, name))


@dataclass(frozen=True)
class PriorSpec:
    tau: LevelSchedule
    pi: LevelSchedule
    slab: SlabDistribution
    mode: Mode = Infinite(12)

    def to_dict(self) -> dict:
        """The prior as a config block; `from_dict` reads it back."""
        kind = "infinite" if isinstance(self.mode, Infinite) else "regression"
        mode = {"kind": kind, **vars(self.mode)}
        return {
            "slab": slab_to_dict(self.slab),
            "tau": self.tau.to_dict(),
            "pi": self.pi.to_dict(),
            "mode": mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PriorSpec":
        """Inverse of `to_dict`; a missing or null ``mode`` is ``Infinite(12)``.
        Errors are `ConfigError`s naming the failing field (``mode.j_max``)."""
        return cls(
            tau=block(LevelSchedule.from_dict, d, "tau"),
            pi=block(LevelSchedule.from_dict, d, "pi"),
            slab=block(slab_from_dict, d, "slab"),
            mode=block(_mode_from_dict, d, "mode", None) or cls.mode,
        )

    def check_draw_size(self, levels: Iterable[int], blame: str) -> None:
        """Reject a draw over ``levels`` before it allocates anything when its
        expected nonzero count ``sum_j 2^j min(1, pi_j)`` exceeds 2^24 or a
        level is above 62; ``blame`` is the config field that chose the
        levels."""
        total = 0.0
        for j in levels:
            _check_level(j, blame)
            total += math.ldexp(self.pi.clamped_at(j), j)
            if total > _MAX_EXPECTED_NONZEROS:
                raise ConfigError(
                    blame,
                    f"more than {_MAX_EXPECTED_NONZEROS} nonzero coefficients "
                    f"expected by level {j}; lower the top level or pi",
                )

    def top_level(self) -> int:
        if isinstance(self.mode, Infinite):
            return self.mode.j_max
        return int(math.floor(math.log2(self.mode.n))) - 1

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
        raise ValueError(f"top level {top} below j0={j0}")
    if isinstance(spec.mode, Regression) and spec.mode.n < 2 ** (j0 + 1):
        raise ValueError(
            f"regression mode needs n >= 2^(j0+1) = {2 ** (j0 + 1)}, got {spec.mode.n}"
        )
    spec.check_draw_size(range(j0, top + 1), "mode")
    check_dense_size(j0, "j0")  # the scaling row
    if scaling is None:
        scaling_arr = np.zeros(2**j0)
    else:
        scaling_arr = np.asarray(list(scaling), dtype=np.float64)

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
    """The tree as a JSON-ready document: ``j0``, ``scaling`` and one
    ``{"j", "entries": [[k, w], ...]}`` per level; `tree_from_dict` reads it."""
    return {
        "j0": t.j0,
        "scaling": t.scaling.tolist(),
        "levels": [
            {"j": lev.j, "entries": [[k, w] for k, w in zip(lev.k.tolist(), lev.w.tolist())]}
            for lev in t.levels
        ],
    }


def _level_from_dict(item) -> Level:
    j = integer(item, "j")
    entries = array(item, "entries")
    for e in entries:
        if not (isinstance(e, list) and len(e) == 2 and type(e[0]) is int and type(e[1]) in _NUMBER):
            raise ValueError(f"entry {e!r} at level {j} is not an [integer k, number w] pair")
    return Level(j, [e[0] for e in entries], [e[1] for e in entries])


def tree_from_dict(doc: dict) -> CoefficientTree:
    """Inverse of `tree_to_dict`.  A malformed document raises a `ConfigError`
    led by the failing field path, e.g. ``levels[2]: entry [0.5, 1.0] at
    level 5 is not an [integer k, number w] pair``."""
    j0 = integer(doc, "j0")
    items = array(doc, "levels")
    with under("levels"):
        levels = tuple(block(_level_from_dict, items, i) for i in range(len(items)))
    return CoefficientTree(j0, np.asarray(numbers(doc, "scaling"), dtype=np.float64), levels)


def tree_to_csv_rows(t: CoefficientTree) -> list[tuple[int, int, float]]:
    """Flat (j, k, w) rows for the wavelet part of the tree."""
    rows = []
    for lev in t.levels:
        for k, w in zip(lev.k.tolist(), lev.w.tolist()):
            rows.append((lev.j, k, w))
    return rows
