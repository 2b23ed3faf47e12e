"""Continuous-wavelet random functions built from marked Poisson atoms.

An atom ``(a, b, omega)`` contributes ``omega * sqrt(a) * psi_u(a (x - b))``
where ``psi_u(t) = sqrt(L) psi(L t)`` is the unit-support rescaling of the
mother wavelet (``L = taps - 1``).  The dyadic translates
``2^(j/2) psi_u(2^j x - k)`` are orthonormal across scales, so projecting a
superposition of atoms onto them yields coefficient trees that the sequence
norms and classifiers consume directly.

Projection works in the rescaled coordinate ``y = L x``, where the dyadic
family becomes the classical integer-shift family ``psi_{j, kL}``.  A dense
approximation row at a fine depth is filled by point quantisation (atoms
whose scale is an exact power of two with an integer rescaled shift are
instead injected through exact filter synthesis chains), and an analysis
pyramid peels off the detail rows.  The atoms are one `AtomSet` of columns
from the draw to the projection, quantised in blocks: in each chunk of the
set, the atoms sampled at one depth share one table lookup and one analysis
step per level, and their rows are added into the dense row in set order,
so the coefficients equal those of an atom-by-atom loop bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .distributions import SlabDistribution, has_moment, sample
from .fields import ConfigError
from .lab import ExperimentReport, _column_stats, _level_list, _run_reps, _slope_fit
from .sampler import CoefficientTree, Level, check_dense_size, rng_for
from .theory import _HALF
from .wavelets import WaveletFamily, cascade_eval, family, unit_tables

__all__ = [
    "AtomSet",
    "CoarseTerm",
    "CwtSpec",
    "sample_atoms",
    "project_to_orthogonal",
    "KernelBoundReport",
    "verify_kernel_bounds",
    "moment_bound_experiment",
]


# ---------------------------------------------------------------------------
# model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AtomSet:
    """Atoms of the continuous model as float columns of one length: scales
    ``a``, shifts ``b`` and marks ``omega``; a bad atom is refused at its index."""

    a: np.ndarray = ()
    b: np.ndarray = ()
    omega: np.ndarray = ()

    def __post_init__(self) -> None:
        a, b, omega = cols = np.array([self.a, self.b, self.omega], dtype=np.float64)
        ok = np.stack([(a > 0) & np.isfinite(a), (b >= 0.0) & (b <= 1.0), np.isfinite(omega)], 1)
        if not ok.all():  # the first bad atom, at its first failed check
            i, check = divmod(int(ok.argmin()), 3)
            what = ("scale must be finite and > 0", "shift must lie in [0, 1]",
                    "mark must be finite")[check]
            raise ConfigError(i, f"atom {what}, got {cols[check, i].item()}")
        for name, col in zip(("a", "b", "omega"), cols):
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return self.a.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, AtomSet):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def __add__(self, other: AtomSet) -> AtomSet:  # the atoms of self, then those of other
        return AtomSet(*map(np.concatenate, zip(vars(self).values(), vars(other).values())))


@dataclass(frozen=True)
class CoarseTerm:
    """Deterministic part: a constant plus finitely many fixed atoms."""

    c_w: float = 0.0
    atoms: AtomSet = field(default_factory=AtomSet)

    def __post_init__(self) -> None:
        if not math.isfinite(self.c_w):
            raise ConfigError("c_w", f"c_w must be finite, got {self.c_w}")


@dataclass(frozen=True)
class CwtSpec:
    """Scale window, intensity and mark law of the Poisson atom process.

    The intensity over scales is ``mu(a) = c_mu * a^(-beta)`` on
    ``[a0, a_max]`` and the mark amplitude is ``tau(a) = sqrt(c_tau) *
    a^(-alpha/2)``; shifts are uniform on ``[0, 1]``.
    """

    c_mu: float
    beta: float
    c_tau: float
    alpha: float
    slab: SlabDistribution
    a0: float
    a_max: float
    coarse: CoarseTerm = field(default_factory=CoarseTerm)

    def __post_init__(self) -> None:
        # c_mu, c_tau >= 0 are constants; alpha, beta >= 0 keep mu and tau nonincreasing
        for name in ("c_mu", "beta", "c_tau", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(name, f"{name} must be finite and >= 0, got {value}")
        if not 0 < self.a0 < math.inf:
            raise ConfigError("a0", f"a0 must be finite and > 0, got {self.a0}")
        if not self.a0 < self.a_max < math.inf:
            raise ConfigError("a_max", f"a_max must be finite and > a0={self.a0}, got {self.a_max}")
        try:  # tau is largest at a0
            top = math.sqrt(self.c_tau) * self.a0 ** (-self.alpha / 2.0)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ConfigError("alpha", "the mark scale sqrt(c_tau) a0^(-alpha/2) overflows a float")
        try:
            lam = self.intensity_total()
        except OverflowError:
            lam = math.inf
        if not math.isfinite(lam):
            raise ConfigError("beta", "the mean atom count (mu over [a0, a_max]) overflows a float")

    def intensity_total(self) -> float:
        """``integral of mu over [a0, a_max]`` (the Poisson mean count)."""
        if self.beta == 1.0:
            return self.c_mu * math.log(self.a_max / self.a0)
        e = 1.0 - self.beta
        return self.c_mu * (self.a_max**e - self.a0**e) / e


def sample_atoms(spec: CwtSpec, seed: int, replicate: int = 0) -> AtomSet:
    """Draw one realisation of the marked Poisson process; a mean count
    above the dense-array cap is rejected before anything is drawn, and a
    mark that overflows a float is a `ConfigError` at ``spec``."""
    lam = spec.intensity_total()
    if lam > 0:
        check_dense_size(math.log2(lam), "spec")
    rng = rng_for(seed, replicate)
    count = int(rng.poisson(lam))
    u = rng.random(count)
    if spec.beta == 1.0:
        a = spec.a0 * (spec.a_max / spec.a0) ** u
    else:
        e = 1.0 - spec.beta
        a = (spec.a0**e + u * (spec.a_max**e - spec.a0**e)) ** (1.0 / e)
    b = rng.random(count)
    xi = sample(spec.slab, rng, count)
    try:
        with np.errstate(over="raise"):
            omega = math.sqrt(spec.c_tau) * a ** (-spec.alpha / 2.0) * xi
    except FloatingPointError:
        raise ConfigError("spec", "a mark scale times a slab draw overflows a float") from None
    return AtomSet(a, b, omega)


# ---------------------------------------------------------------------------
# reproducing kernel
# ---------------------------------------------------------------------------

_TABLE_DEPTH = 12  # cascade depth of the psi tables used by quadrature and projection
# values one block of kernel shifts, or the atoms of one projection chunk, hold
# at most (bar a single shift or atom)
_CHUNK_SAMPLES = 1 << 18


def _synthesis_up(offset: int, vec: np.ndarray, filt: np.ndarray) -> tuple[int, np.ndarray]:
    """One inverse step: row at level j -> approximation row at level j+1."""
    up = np.zeros(2 * vec.size - 1)
    up[::2] = vec
    return 2 * offset, np.convolve(up, filt)


def _chain(fam: WaveletFamily, level: int, shift: int, depth: int) -> tuple[int, np.ndarray]:
    """Approximation coefficients at ``depth`` of ``psi_{level, shift}``
    (rescaled coordinates, integer shifts)."""
    if depth < level + 1:
        raise ValueError("chain target depth too shallow")
    offset, vec = _synthesis_up(shift, np.array([1.0]), np.asarray(fam.g))
    h = np.asarray(fam.h)
    for _ in range(depth - level - 1):
        offset, vec = _synthesis_up(offset, vec, h)
    return offset, vec


def _dyadic_form(a: float, b: float, L: int):
    """``(n, kt)`` when the atom is exactly ``psi_{n, kt}`` in rescaled
    coordinates, i.e. ``a = 2^n`` with ``|n| <= 40`` and ``a * b * L`` is an
    integer (``a > 0``; an infinite ``a`` is not dyadic)."""
    n = math.log2(a)
    if not abs(n) <= 40:
        return None
    n_int = round(n)
    if 2.0**n_int != a:
        return None
    kt = a * b * L
    if kt != round(kt) or abs(kt) > 2**52:
        return None
    return n_int, int(round(kt))


def _kernel_row(fam: WaveletFamily, u: float, vs: np.ndarray, depth: int) -> np.ndarray:
    """Quadrature kernel values for one ``u`` and many shifts.

    The shifts go in blocks of at most `_CHUNK_SAMPLES` interpolated values
    (one shift if a row holds more).  Each shift's value is the numpy row sum
    of its own products, so it does not depend on the block size or the BLAS.
    """
    if u >= 1.0:
        U = u
        Vs = np.asarray(vs, dtype=np.float64)
    else:
        U = 1.0 / u
        Vs = -u * np.asarray(vs, dtype=np.float64)
    xs, _, vals = unit_tables(fam.name, depth)
    xu = xs / U
    per = max(1, _CHUNK_SAMPLES // xs.size)
    sums = np.empty(Vs.size)
    for start in range(0, Vs.size, per):
        # one shift per row: each row's queries rise, which np.interp's search favours
        other = np.interp(Vs[start : start + per, None] + xu, xs, vals, left=0.0, right=0.0)
        other *= vals
        sums[start : start + per] = other.sum(axis=1)
    out = sums * (xs[1] - xs[0]) / math.sqrt(U)
    inside = (vs > -1.0 / u) & (vs < 1.0)
    return np.where(inside, out, 0.0)


@dataclass(frozen=True)
class KernelBoundReport:
    family: str
    exponent: float
    u: np.ndarray
    sup: np.ndarray
    slope_high: float
    slope_low: float
    c_high: float
    c_low: float
    dropped: int  # u points left out of both slope fits: their sup is 0

    def to_dict(self) -> dict:
        return {**vars(self), "u": list(map(float, self.u)), "sup": list(map(float, self.sup))}


def verify_kernel_bounds(
    fam: WaveletFamily, u_grid=None, *, v_count: int = 257, depth: int = 12
) -> KernelBoundReport:
    """Measure ``sup_v |K0(u, v)|`` across scale ratios and fit its decay.

    Reports the log2-log2 slopes on the ``u >= 1`` and ``u <= 1`` branches
    and the smallest constants making ``|K0| <= C u^(-+(r+rho+1/2))`` hold
    on the grid with the configured regularity hint.  A ``u`` whose sup is
    0 has no logarithm: it is left out of the fits and counted in
    ``dropped``, and a branch with fewer than two points left has no slope.
    """
    if u_grid is None:
        u_grid = 2.0 ** np.arange(-6, 7)
    u_grid = np.asarray(u_grid, dtype=np.float64)
    if not u_grid.size:
        raise ConfigError("u_grid", "expected a nonempty list of scale ratios")
    # the bound `_dyadic_form` uses: past it u^(+-exponent) overflows the constants
    if not np.all((u_grid >= 2.0**-40) & (u_grid <= 2.0**40)):
        raise ConfigError("u_grid", "every scale ratio must lie in [2^-40, 2^40]")
    if u_grid.min() > 2.0**-6 or u_grid.max() < 2.0**6:
        raise ConfigError("u_grid", "must span [2^-6, 2^6]")
    if v_count < 1:
        raise ConfigError("v_count", f"need at least one shift, got {v_count}")
    if depth < 1:
        raise ConfigError("depth", f"depth must be >= 1, got {depth}")
    # each kernel row interpolates (shift count) x (L 2^depth + 1) values in
    # bounded blocks, so this cap bounds the work, not the size of one array
    check_dense_size(math.log2(v_count) + math.log2(fam.support) + depth, "v_count x 2^depth")
    sups = np.empty(u_grid.size)
    for i, u in enumerate(u_grid):
        lo, hi = -1.0 / u, 1.0
        # generic offsets, deliberately off the dyadic lattice
        vs = lo + (np.arange(v_count) + 0.381966) / v_count * (hi - lo)
        sups[i] = float(np.max(np.abs(_kernel_row(fam, float(u), vs, depth))))
    expo = fam.r_plus_rho + 0.5
    high = u_grid >= 1.0
    low = u_grid <= 1.0
    fit = sups > 0
    slope_high = _slope_fit(list(zip(np.log2(u_grid[high & fit]), np.log2(sups[high & fit]))))
    slope_low = _slope_fit(list(zip(np.log2(u_grid[low & fit]), np.log2(sups[low & fit]))))
    c_high = float(np.max(sups[high] * u_grid[high] ** expo))
    c_low = float(np.max(sups[low] * u_grid[low] ** (-expo)))
    return KernelBoundReport(
        family=fam.name,
        exponent=expo,
        u=u_grid,
        sup=sups,
        slope_high=slope_high,
        slope_low=slope_low,
        c_high=c_high,
        c_low=c_low,
        dropped=int(np.count_nonzero(~fit)),
    )


# ---------------------------------------------------------------------------
# projection onto the orthogonal basis
# ---------------------------------------------------------------------------

_OVERSAMPLE = 6  # levels by which an atom's quantisation grid is finer than its scale


def _analysis_rows(off: np.ndarray, rows: np.ndarray, filt: np.ndarray):
    """One analysis step ``out_k = sum_t filt_t in_(2k + t)`` on every row.

    Row ``i`` holds the inputs from position ``off[i]`` on, zeros past its
    end.  A row whose inputs start at the other parity gets one leading
    zero, so one strided slice per tap serves every row.  The taps are added
    left to right from zero, as `np.correlate` adds them, so each output
    rounds as the correlation of its row alone would.
    """
    L = filt.size - 1
    count, n = rows.shape
    odd = (off - L) & 1
    pad = np.zeros((count, n + 2 * L + 1))
    even = odd == 0
    pad[even, L : L + n] = rows[even]
    pad[~even, L + 1 : L + 1 + n] = rows[~even]
    width = (n + L) // 2 + 1
    out = np.zeros((count, width))
    term = np.empty_like(out)
    for t, f in enumerate(filt.tolist()):
        out += np.multiply(pad[:, t : t + 2 * width - 1 : 2], f, out=term)
    return (off - L - odd) // 2, out


def _take_positions(offset: int, vec: np.ndarray, positions: np.ndarray) -> np.ndarray:
    idx = positions - offset
    ok = (idx >= 0) & (idx < vec.size)
    out = np.zeros(positions.size)
    out[ok] = vec[idx[ok]]
    return out


@lru_cache(maxsize=8)
def _psi_table(name: str):
    """``psi`` on the depth-`_TABLE_DEPTH` cascade grid and the slopes
    `np.interp` uses between its points.  ``psi`` is 0 at ``L`` and the
    slopes gain a last entry 0, so a query off ``[0, L)`` that reads the
    last entry gets 0."""
    grid = cascade_eval(family(name), _TABLE_DEPTH)
    xs, psi = grid.grid, grid.psi
    slopes = np.append((psi[1:] - psi[:-1]) / (xs[1:] - xs[:-1]), 0.0)
    return xs, psi, slopes


def _interp_psi(t: np.ndarray, name: str) -> np.ndarray:
    """``np.interp(t, xs, psi, left=0.0, right=0.0)`` on the cascade grid,
    bit for bit, without its search.

    The grid is ``xs_i = i 2^-D``, so ``floor(t 2^D)`` is exactly the cell
    that `np.interp` finds, and the value is its ``slope (t - xs_j) + psi_j``.
    ``psi`` holds no ``-0.0``, so a query on a grid point, which `np.interp`
    answers with ``psi_j``, gets the same value; ``psi`` is 0 at ``L``.
    """
    xs, psi, slopes = _psi_table(name)
    last = xs.size - 1
    u = t * float(1 << _TABLE_DEPTH)
    np.minimum(u, last, out=u)
    u[u < 0] = last
    j = u.astype(np.intp)
    out = slopes.take(j)
    d = np.subtract(t, xs.take(j), out=u)
    out *= d
    out += psi.take(j)
    return out


class _Atoms:
    """The atoms to project, as columns, and how each one meets the row.

    An atom is a dyadic chain (``chains``: index -> ``(n, kt)``) or is
    sampled at ``depth`` on the integers ``[lo, hi]`` (none when ``hi < lo``).
    The depths come from `math.log2` and every bound from the float
    operations an atom-by-atom loop would use, so both sample the same points.
    """

    def __init__(self, atoms: AtomSet, fam: WaveletFamily, common: int) -> None:
        L = fam.support
        self.fam, self.common, self.size = fam, common, L << common
        self.mu1 = math.fsum(k * hk for k, hk in enumerate(fam.h)) / math.sqrt(2.0)
        self.a, self.b, self.omega = atoms.a, atoms.b, atoms.omega
        self.chains = {}
        for i in np.flatnonzero(np.frexp(self.a)[0] == 0.5).tolist():  # powers of two
            dy = _dyadic_form(self.a[i].item(), self.b[i].item(), L)
            if dy is not None and dy[0] >= 0:
                self.chains[i] = dy
        lg = np.fromiter(map(math.log2, np.maximum(self.a, 1.0).tolist()), float, self.a.size)
        self.depth = np.maximum(np.ceil(lg) + _OVERSAMPLE, common).astype(np.int64)
        # only samples in [0, reach] reach the row through the analysis steps
        deepest = int(self.depth.max())
        if not float((L << deepest) + (L << (deepest - common))) < 2.0**63:
            raise ValueError(f"atom scale {self.a.max():g} is too large to project")
        reach = np.ldexp(float(L), self.depth) + np.ldexp(float(L), self.depth - common)
        scale = np.ldexp(1.0, self.depth)
        y0 = self.b * L
        lo = np.maximum(np.ceil(scale * y0 - self.mu1), 0.0)
        with np.errstate(over="ignore"):  # L / a is inf for the tiniest scales
            hi = np.floor(np.minimum(scale * (y0 + L / self.a) - self.mu1, reach))
        # an atom at the common depth is not analysed: samples past the row are lost
        at_row = self.depth == common
        hi[at_row] = np.minimum(hi[at_row], self.size - 1)
        hi[list(self.chains)] = -1.0
        self.lo, self.hi = lo.astype(np.int64), hi.astype(np.int64)
        self.samples = np.maximum(self.hi - self.lo + 1, 0)
        for i, (n, _) in self.chains.items():
            self.samples[i] = L << max(common - n, 0)

    def chunks(self):
        """``[start, stop)`` runs of atoms holding at most `_CHUNK_SAMPLES`
        samples, or one atom that holds more."""
        ends = np.cumsum(self.samples)
        start = 0
        while start < ends.size:
            cap = ends[start] - self.samples[start] + _CHUNK_SAMPLES
            stop = max(int(np.searchsorted(ends, cap, "right")), start + 1)
            yield start, stop
            start = stop

    def pieces(self, start: int, stop: int):
        """Yield ``(offset, values)`` for each atom of ``[start, stop)`` that
        adds to the row, in set order.  The sampled atoms are computed one
        block per depth."""
        out = [None] * (stop - start)
        for i, (n, kt) in self.chains.items():
            if start <= i < stop and n < self.common:  # else orthogonal to every kept level
                off, vec = _chain(self.fam, n, kt, self.common)
                out[i - start] = off, self.omega[i] * vec
        idx = start + np.flatnonzero(self.hi[start:stop] >= self.lo[start:stop])
        h = np.asarray(self.fam.h)
        for depth in np.unique(self.depth[idx]).tolist():
            block = idx[self.depth[idx] == depth]
            off = self.lo[block]
            if depth == self.common:  # no analysis step: one flat run
                vals = self._samples(block, depth, flat=True)
                rows = np.split(vals, np.cumsum(self.samples[block[:-1]]))
            else:
                rows = self._samples(block, depth, flat=False)
                for _ in range(depth - self.common):
                    off, rows = _analysis_rows(off, rows, h)
            for i, o, r in zip((block - start).tolist(), off.tolist(), rows):
                out[i] = o, r
        return (piece for piece in out if piece is not None)

    def _samples(self, idx: np.ndarray, depth: int, flat: bool) -> np.ndarray:
        """Samples of the atoms ``idx``, all at ``depth``: one flat run, atom
        after atom, or one row per atom padded with zeros."""
        L = self.fam.support
        a, y0, lo, hi = self.a[idx], self.b[idx] * L, self.lo[idx], self.hi[idx]
        coef = self.omega[idx] * np.sqrt(a)
        if flat:
            n = hi - lo + 1
            ms = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)
            a, y0, coef = np.repeat(a, n), np.repeat(y0, n), np.repeat(coef, n)
        else:
            ms = lo[:, None] + np.arange(int((hi - lo).max()) + 1)
            a, y0, coef = a[:, None], y0[:, None], coef[:, None]
        # t = a ((ms + mu1) / 2^depth - y0), one operation at a time
        t = ms + self.mu1
        t /= 2.0**depth
        t -= y0
        t *= a
        if not flat:
            t[ms > hi[:, None]] = -1.0  # off the table: the padding reads zero
        vals = _interp_psi(t, self.fam.name)
        vals *= coef
        vals /= math.sqrt(2.0**depth)
        return vals


def project_to_orthogonal(
    atoms: AtomSet,
    fam: WaveletFamily,
    j0: int,
    top: int,
    coarse: CoarseTerm = CoarseTerm(),
) -> CoefficientTree:
    """Coefficients of the atom superposition in the orthonormal basis.

    ``w_{jk} = sum K0(a 2^-j, 2^j b - k) omega`` for ``j0 <= j <= top`` and
    ``k in [0, 2^j)``; the scaling row collects the same products against
    ``phi`` plus the coarse constant ``c_w`` added verbatim, matching the
    projection contract.  No periodic wrapping: shifts outside ``[0, 2^j)``
    are dropped.  Every atom is reduced to one dense row of ``L 2^(top+2)``
    values, so ``top`` is bounded before anything is built.

    The atoms of ``coarse`` follow ``atoms``, in chunks of at most
    `_CHUNK_SAMPLES` samples, in set order.  Inside a chunk the atoms of one
    depth are sampled in one block and share each analysis step; their rows
    are then added into the projection row atom by atom, in set order, so
    every coefficient equals that of an atom-by-atom projection bit for bit.
    """
    if j0 < 0 or top < j0:
        raise ValueError(f"need 0 <= j0 <= top, got j0={j0}, top={top}")
    L = fam.support
    check_dense_size(math.log2(L) + top + 2, "top")
    atoms = atoms + coarse.atoms
    c_w = coarse.c_w

    width0 = 1 << j0
    if not atoms:
        scaling = np.full(width0, c_w)
        levels = tuple(
            Level(j, np.empty(0, np.int64), np.empty(0)) for j in range(j0, top + 1)
        )
        return CoefficientTree(j0, scaling, levels)

    h = np.asarray(fam.h)
    g = np.asarray(fam.g)
    common = top + 2  # every atom is reduced to this approximation row, so
    # the projection stays exactly linear in the atom set

    # analysis output k reads inputs 2k..2k+L, so the kept coefficients
    # read only row positions [0, L 2^common - L]
    row = np.zeros(L << common)
    cols = _Atoms(atoms, fam, common)
    for start, stop in cols.chunks():
        # in atom order, so each row value adds its terms in the same order
        for off, vec in cols.pieces(start, stop):
            lo, hi = max(off, 0), min(off + vec.size, row.size)
            if lo < hi:
                row[lo:hi] += vec[lo - off : hi - off]

    off, vec = np.zeros(1, np.int64), row[None, :]
    details: dict[int, np.ndarray] = {}
    for j in range(common - 1, j0 - 1, -1):
        if j <= top:
            d_off, d_vec = _analysis_rows(off, vec, g)
            positions = L * np.arange(1 << j, dtype=np.int64)
            details[j] = _take_positions(int(d_off[0]), d_vec[0], positions)
        off, vec = _analysis_rows(off, vec, h)

    scaling = _take_positions(int(off[0]), vec[0], L * np.arange(width0, dtype=np.int64)) + c_w
    levels = []
    for j in range(j0, top + 1):
        dense = details[j]
        k = np.nonzero(dense)[0].astype(np.int64)
        levels.append(Level(j, k, dense[k]))
    return CoefficientTree(j0, scaling, tuple(levels))


# ---------------------------------------------------------------------------
# moment decay experiment
# ---------------------------------------------------------------------------

def moment_bound_experiment(
    spec: CwtSpec,
    fam: WaveletFamily,
    m: float,
    levels,
    reps: int = 50,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Empirical per-level moments ``E|w_{jk}|^m`` of the projected model.

    The fitted log2 decay slope is compared against the dominant predicted
    exponent ``-min(m (r+rho+1/2) - 1, m alpha/2 + beta)``; constants are
    not checked, only decay.  Levels whose mean moment is 0 are left out of
    the fit; ``dropped_fraction`` is their share.  Replicates run on up to
    ``threads`` workers; the report is the same for every thread count.
    """
    lv = _level_list(levels, reps)
    check_dense_size(math.log2(fam.support) + lv[-1] + 2, "levels")  # the projection's row
    if not m > 0:
        raise ConfigError("m", f"moment order must be positive, got {m}")
    if math.isinf(m):  # `Fraction` below cannot hold it
        raise ConfigError("m", f"moment order must be finite, got {m}")
    if not has_moment(spec.slab, m):
        raise ConfigError("m", f"slab lacks a finite moment of order {m:g}")
    if not Fraction(m) * (fam.vanishing_moments + Fraction(fam.holder) + _HALF) > 1:
        raise ConfigError("m", "need m (r + rho + 1/2) > 1 for the kernel term to decay")
    expo_kernel = m * (fam.r_plus_rho + 0.5) - 1.0

    def work(rep: int) -> list[float]:
        atoms = sample_atoms(spec, seed, replicate=rep)
        tree = project_to_orthogonal(atoms, fam, lv[0], lv[-1], coarse=spec.coarse)
        # the tree holds every level from lv[0] to lv[-1]
        return [float(np.sum(np.abs(tree.levels[j - lv[0]].w) ** m)) / (1 << j) for j in lv]

    stats = _column_stats(lv, {j: float(1 << j) for j in lv}, _run_reps(reps, threads, work))
    # fit on the replicate-averaged moments; the delta method propagates
    # their standard errors through log2 into the least-squares slope
    fitted = [st for st in stats if st.mean and st.mean > 0]
    slope = _slope_fit([(st.j, math.log2(st.mean)) for st in fitted])
    slope_err = None
    if slope is not None:
        xbar = math.fsum(st.j for st in fitted) / len(fitted)
        sxx = math.fsum((st.j - xbar) ** 2 for st in fitted)
        var = 0.0
        for st in fitted:
            var += ((st.j - xbar) / sxx * st.stderr / (st.mean * math.log(2.0))) ** 2
        slope_err = math.sqrt(var)
    expected = -min(expo_kernel, m * spec.alpha / 2.0 + spec.beta)
    return ExperimentReport(
        kind="cwt-moment",
        reps=reps,
        levels=stats,
        slope=slope,
        slope_stderr=slope_err,
        expected_slope=expected,
        dropped_fraction=(len(stats) - len(fitted)) / len(stats),
    )
