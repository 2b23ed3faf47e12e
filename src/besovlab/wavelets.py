"""Compactly supported orthonormal wavelets on dyadic grids.

The scaling function ``phi`` and wavelet ``psi`` of a Daubechies-type
filter live on ``[0, L]`` with ``L = taps - 1``.  `cascade_eval` refines
their point values to any dyadic resolution: integer-grid values come
from the eigenvector of the downsampled filter matrix, and each extra
depth level applies the two-scale relation
``phi(t) = sqrt(2) sum_k h_k phi(2t - k)``.

`synthesize` renders a coefficient tree on ``[0, 1]`` using the
unit-support rescaling ``psi_u(t) = sqrt(L) psi(L t)``, whose dyadic
translates ``2^(j/2) psi_u(2^j x - k)`` are orthonormal across levels
(they are the integer-shift sub-family ``psi_{j, kL}`` in rescaled
coordinates).  A term at level ``j`` with ``0 <= k < 2^j`` is supported on
``[k 2^-j, (k+1) 2^-j]``, inside ``[0, 1]``, so nothing wraps.

The ``(r, rho)`` regularity pair on each family is configuration
metadata quoted from the standard literature tables, not computed here.
Only the sum ``r + rho`` enters downstream bounds.  Note the measured
decay of reproducing-kernel cross-scale products is governed by the
Holder smoothness of ``psi`` itself, which for the shorter Daubechies
filters is far below the vanishing-moment count; quantitative
experiments report fitted slopes rather than trusting the hint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import ConfigError
from .sampler import CoefficientTree, check_dense_size

__all__ = [
    "WaveletFamily",
    "family",
    "FAMILY_NAMES",
    "cascade_eval",
    "CascadeGrid",
    "synthesize",
    "unit_tables",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT10 = math.sqrt(10.0)
_A6 = math.sqrt(5.0 + 2.0 * _SQRT10)

# Published filter coefficients, normalised so that sum(h) = sqrt(2).
_FILTERS: dict[str, tuple[float, ...]] = {
    "haar": (1.0 / _SQRT2, 1.0 / _SQRT2),
    "daub4": (
        (1.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 - _SQRT3) / (4.0 * _SQRT2),
        (1.0 - _SQRT3) / (4.0 * _SQRT2),
    ),
    "daub6": (
        (1.0 + _SQRT10 + _A6) / (16.0 * _SQRT2),
        (5.0 + _SQRT10 + 3.0 * _A6) / (16.0 * _SQRT2),
        (10.0 - 2.0 * _SQRT10 + 2.0 * _A6) / (16.0 * _SQRT2),
        (10.0 - 2.0 * _SQRT10 - 2.0 * _A6) / (16.0 * _SQRT2),
        (5.0 + _SQRT10 - 3.0 * _A6) / (16.0 * _SQRT2),
        (1.0 + _SQRT10 - _A6) / (16.0 * _SQRT2),
    ),
    "daub8": (
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ),
}

# (vanishing moments, documented Holder exponent of psi^(r)); see module
# docstring for the caveat on using these quantitatively.
_REGULARITY: dict[str, tuple[int, float]] = {
    "haar": (0, 0.0),
    "daub4": (2, 0.55),
    "daub6": (3, 1.0878),
    "daub8": (4, 1.6179),
}

FAMILY_NAMES = tuple(_FILTERS)


@dataclass(frozen=True)
class WaveletFamily:
    name: str
    h: tuple[float, ...]
    vanishing_moments: int
    holder: float

    def __post_init__(self) -> None:
        taps = len(self.h)
        if taps < 2 or taps % 2 != 0:
            raise ValueError(f"filter needs an even tap count >= 2, got {taps}")
        if abs(math.fsum(self.h) - _SQRT2) > 1e-12:
            raise ValueError(f"filter of {self.name!r} does not sum to sqrt(2)")
        for shift in range(0, taps, 2):
            dot = math.fsum(
                self.h[k] * self.h[k + shift] for k in range(taps - shift)
            )
            want = 1.0 if shift == 0 else 0.0
            if abs(dot - want) > 1e-12:
                raise ValueError(
                    f"filter of {self.name!r} fails orthonormality at shift {shift}"
                )

    @property
    def taps(self) -> int:
        return len(self.h)

    @property
    def support(self) -> int:
        """Length of the support of phi and psi."""
        return len(self.h) - 1

    @property
    def g(self) -> tuple[float, ...]:
        """Highpass filter by the quadrature-mirror rule."""
        taps = len(self.h)
        return tuple((-1.0) ** k * self.h[taps - 1 - k] for k in range(taps))

    @property
    def r_plus_rho(self) -> float:
        return self.vanishing_moments + self.holder


def family(name: str) -> WaveletFamily:
    try:
        h = _FILTERS[name]
        r, rho = _REGULARITY[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown wavelet family {name!r}; known: {FAMILY_NAMES}")
    return WaveletFamily(name, h, r, rho)


# ---------------------------------------------------------------------------
# cascade refinement
# ---------------------------------------------------------------------------

def _integer_phi(fam: WaveletFamily) -> np.ndarray:
    """Values of phi at the integers ``0..L``, normalised to sum 1."""
    L = fam.support
    if L == 1:
        # Haar: phi = 1 on [0, 1); the filter matrix is degenerate here
        return np.array([1.0, 0.0])
    h = np.asarray(fam.h)
    size = L - 1  # interior integers 1..L-1 (phi vanishes at 0 and L)
    mat = np.zeros((size, size))
    for i in range(1, L):
        for k in range(1, L):
            idx = 2 * i - k
            if 0 <= idx < fam.taps:
                mat[i - 1, k - 1] = _SQRT2 * h[idx]
    vals, vecs = np.linalg.eig(mat)
    pick = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, pick])
    v = v / v.sum()
    out = np.zeros(L + 1)
    out[1:L] = v
    return out


@dataclass(frozen=True)
class CascadeGrid:
    """phi and psi sampled on ``t = i * 2^-depth`` for ``t in [0, L]``."""

    family: WaveletFamily
    depth: int
    phi: np.ndarray
    psi: np.ndarray

    @property
    def spacing(self) -> float:
        return 2.0 ** (-self.depth)

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.phi.size) * self.spacing


@lru_cache(maxsize=32)
def cascade_eval(fam: WaveletFamily, depth: int) -> CascadeGrid:
    """Sample phi and psi at spacing ``2^-depth`` over ``[0, L]``, cached per
    ``(fam, depth)``."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    L = fam.support
    h = np.asarray(fam.h)
    g = np.asarray(fam.g)
    phi = _integer_phi(fam)
    for d in range(depth):
        step = 1 << d  # current grid has spacing 2^-d, length L*2^d + 1
        nxt = np.zeros(L * (step << 1) + 1)
        for k in range(fam.taps):
            lo = k * step
            nxt[lo : lo + phi.size] += _SQRT2 * h[k] * phi
        phi = nxt
    # psi on the same grid via the two-scale relation with the highpass
    step = 1 << depth
    n = phi.size
    psi = np.zeros(n)
    pos = 2 * np.arange(n)
    for k in range(fam.taps):
        idx = pos - k * step
        ok = (idx >= 0) & (idx < n)
        psi[ok] += _SQRT2 * g[k] * phi[idx[ok]]
    return CascadeGrid(fam, depth, phi, psi)


# ---------------------------------------------------------------------------
# synthesis on [0, 1]
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def unit_tables(name: str, depth: int):
    """x-grid, ``phi_u`` and ``psi_u`` values of the unit-support pair
    ``sqrt(L) f(L x)`` for the named family, cached per ``(name, depth)``."""
    fam = family(name)
    grid = cascade_eval(fam, depth)
    L = fam.support
    xs = grid.grid / L
    scale = math.sqrt(L)
    return xs, scale * grid.phi, scale * grid.psi


def synthesize(t: CoefficientTree, fam: WaveletFamily, grid_exponent: int) -> np.ndarray:
    """Render the tree at the points ``x_n = n 2^-G``, ``n = 0..2^G - 1``.

    A term ``2^(j/2) psi_u(2^j x - k)`` (``phi_u`` on the scaling row) lives
    on block ``k``, the ``2^(G-j)`` points in ``[k 2^-j, (k+1) 2^-j)``, inside
    ``[0, 1]``, so nothing wraps; each row interpolates its shape once.
    """
    G = grid_exponent
    check_dense_size(G, "grid_exponent")
    if G < t.top_level + 2:
        raise ConfigError(
            "grid_exponent",
            f"grid exponent {G} too small to resolve level {t.top_level}; need >= {t.top_level + 2}",
        )
    xs, phi_u, psi_u = unit_tables(fam.name, min(max(G, 10), 16))
    out = np.zeros(1 << G)
    rows = [(t.j0, np.arange(1 << t.j0), t.scaling, phi_u)]
    rows += [(level.j, level.k, level.w, psi_u) for level in t.levels]
    for j, k, w, table in rows:
        span = 1 << (G - j)
        shape = np.interp(np.arange(span) / span, xs, table, left=0.0, right=0.0)
        # k is strictly increasing, so no block is named twice
        out.reshape(-1, span)[k] += (w * 2.0 ** (j / 2.0))[:, None] * shape
    return out
