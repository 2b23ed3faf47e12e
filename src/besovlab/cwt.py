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
pyramid peels off the detail rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .besov import BesovParams
from .distributions import (
    FrechetTail,
    SlabDistribution,
    absolute_moment,
    sample,
    slab_from_dict,
    slab_to_dict,
    tail_class,
)
from .fields import ConfigError, array, block, number, under
from .lab import ExperimentReport, _check_reps, _column_stats, _level_list, _run_reps, _slope_fit
from .sampler import CoefficientTree, Level, check_dense_size, rng_for
from .schedules import GrowthKind, LevelSchedule, growth_regime
from .theory import Decision, Verdict, _decide, _level_exponent, _lq_finite, _not_covered
from .theory import _threshold, _validate_smoothness, classify_simple
from .wavelets import WaveletFamily, cascade_eval, unit_tables

__all__ = [
    "PoissonAtom",
    "CoarseTerm",
    "CwtSpec",
    "sample_atoms",
    "kernel_k0",
    "project_to_orthogonal",
    "KernelBoundReport",
    "verify_kernel_bounds",
    "moment_bound_experiment",
    "classify_cwt",
    "atoms_to_rows",
]


# ---------------------------------------------------------------------------
# model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonAtom:
    """One atom of the continuous model: scale, shift and mark."""

    a: float
    b: float
    omega: float

    def __post_init__(self) -> None:
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"atom scale must be finite and > 0, got {self.a}")
        if not (0.0 <= self.b <= 1.0):
            raise ValueError(f"atom shift must lie in [0, 1], got {self.b}")


@dataclass(frozen=True)
class CoarseTerm:
    """Deterministic part: a constant plus finitely many fixed atoms."""

    c_w: float = 0.0
    atoms: tuple[PoissonAtom, ...] = ()


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
        if self.c_mu < 0:
            raise ValueError(f"intensity constant must be >= 0, got {self.c_mu}")
        if self.c_tau < 0:
            raise ValueError(f"amplitude constant must be >= 0, got {self.c_tau}")
        if self.beta < 0 or self.alpha < 0:
            raise ValueError("mu and tau must be nonincreasing: need alpha, beta >= 0")
        if not (0 < self.a0 < self.a_max):
            raise ValueError(f"need 0 < a0 < a_max, got a0={self.a0}, a_max={self.a_max}")

    def intensity_total(self) -> float:
        """``integral of mu over [a0, a_max]`` (the Poisson mean count)."""
        if self.beta == 1.0:
            return self.c_mu * math.log(self.a_max / self.a0)
        e = 1.0 - self.beta
        return self.c_mu * (self.a_max**e - self.a0**e) / e

    def to_dict(self) -> dict:
        atoms = [[at.a, at.b, at.omega] for at in self.coarse.atoms]
        coarse = {"c_w": self.coarse.c_w, "atoms": atoms}
        return {**vars(self), "slab": slab_to_dict(self.slab), "coarse": coarse}

    @classmethod
    def from_dict(cls, d: dict) -> "CwtSpec":
        """Inverse of `to_dict`; a missing or null ``coarse`` is empty."""
        return cls(
            c_mu=number(d, "c_mu"),
            beta=number(d, "beta"),
            c_tau=number(d, "c_tau"),
            alpha=number(d, "alpha"),
            slab=block(slab_from_dict, d, "slab"),
            a0=number(d, "a0"),
            a_max=number(d, "a_max"),
            coarse=block(_coarse_from_dict, d, "coarse", None) or CoarseTerm(),
        )


def _atom_from_row(row) -> PoissonAtom:
    if not (isinstance(row, list) and len(row) == 3):
        raise ValueError(f"expected an [a, b, omega] triple, got {row!r}")
    return PoissonAtom(*(number(row, i) for i in range(3)))


def _coarse_from_dict(d: dict) -> CoarseTerm:
    rows = array(d, "atoms", [])
    with under("atoms"):
        atoms = tuple(block(_atom_from_row, rows, i) for i in range(len(rows)))
    return CoarseTerm(c_w=number(d, "c_w", 0.0), atoms=atoms)


def sample_atoms(spec: CwtSpec, seed: int, replicate: int = 0) -> list[PoissonAtom]:
    """Draw one realisation of the marked Poisson process; a mean count
    above the dense-array cap is rejected before anything is drawn."""
    lam = spec.intensity_total()
    if lam > 0:
        check_dense_size(math.log2(lam), "spec")
    rng = rng_for(seed, replicate)
    count = int(rng.poisson(lam)) if lam > 0 else 0
    if count == 0:
        return []
    u = rng.random(count)
    if spec.beta == 1.0:
        a = spec.a0 * (spec.a_max / spec.a0) ** u
    else:
        e = 1.0 - spec.beta
        a = (spec.a0**e + u * (spec.a_max**e - spec.a0**e)) ** (1.0 / e)
    b = rng.random(count)
    xi = sample(spec.slab, rng, count)
    tau = math.sqrt(spec.c_tau) * a ** (-spec.alpha / 2.0)
    return [
        PoissonAtom(float(ai), float(bi), float(ti * xii))
        for ai, bi, ti, xii in zip(a, b, tau, xi)
    ]


def atoms_to_rows(atoms) -> list[tuple[float, float, float]]:
    """(a, b, omega) rows for CSV export."""
    return [(at.a, at.b, at.omega) for at in atoms]


# ---------------------------------------------------------------------------
# reproducing kernel
# ---------------------------------------------------------------------------

_TABLE_DEPTH = 12  # cascade depth of the psi tables used by quadrature and projection


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
    coordinates, i.e. ``a = 2^n`` and ``a * b * L`` is an integer."""
    if a <= 0:
        return None
    n = math.log2(a)
    n_int = round(n)
    if abs(n_int) > 40 or 2.0**n_int != a:
        return None
    kt = a * b * L
    if kt != round(kt) or abs(kt) > 2**52:
        return None
    return n_int, int(round(kt))


def kernel_k0(fam: WaveletFamily, u: float, v: float) -> float:
    """Cross-scale product ``<psi_u, sqrt(u) psi_u(u (. - v))>``.

    Exactly zero outside the overlap window ``v in (-1/u, 1)``.  Dyadic
    arguments (``u`` a power of two with integer rescaled shift) go through
    exact filter synthesis chains; everything else through `_kernel_row`'s
    quadrature on the cascade grid.
    """
    if not (u > 0 and math.isfinite(u)):
        raise ValueError(f"scale ratio must be finite and > 0, got {u}")
    if not (-1.0 / u < v < 1.0):
        return 0.0
    # flip so the second argument is the narrow one
    U, V = (u, v) if u >= 1.0 else (1.0 / u, -u * v)
    dy = _dyadic_form(U, V, fam.support)
    if dy is None:
        return float(_kernel_row(fam, u, np.array([v]), _TABLE_DEPTH)[0])
    n, kt = dy
    off1, c1 = _chain(fam, 0, 0, n + 1)
    off2, c2 = _chain(fam, n, kt, n + 1)
    lo = max(off1, off2)
    hi = min(off1 + c1.size, off2 + c2.size)
    if hi <= lo:
        return 0.0
    return float(np.dot(c1[lo - off1 : hi - off1], c2[lo - off2 : hi - off2]))


def _kernel_row(fam: WaveletFamily, u: float, vs: np.ndarray, depth: int) -> np.ndarray:
    """Quadrature kernel values for one ``u`` and many shifts."""
    if u >= 1.0:
        U = u
        Vs = np.asarray(vs, dtype=np.float64)
    else:
        U = 1.0 / u
        Vs = -u * np.asarray(vs, dtype=np.float64)
    xs, _, vals = unit_tables(fam.name, depth)
    args = Vs[None, :] + xs[:, None] / U
    other = np.interp(args.ravel(), xs, vals, left=0.0, right=0.0).reshape(args.shape)
    step = xs[1] - xs[0]
    out = (vals @ other) * step / math.sqrt(U)
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
    if u_grid.min() > 2.0**-6 or u_grid.max() < 2.0**6:
        raise ConfigError("u_grid", "must span [2^-6, 2^6]")
    # each kernel row interpolates (shift count) x (L 2^depth + 1) values
    shifts = max(1, v_count)
    check_dense_size(math.log2(shifts) + math.log2(fam.support) + depth, "v_count x 2^depth")
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


def _analysis_down(offset: int, vec: np.ndarray, filt: np.ndarray) -> tuple[int, np.ndarray]:
    """One analysis step ``out_k = sum_t filt_t in_(2k + t)`` with offsets."""
    L = filt.size - 1
    pad = np.concatenate([np.zeros(L), vec, np.zeros(L)])
    corr = np.correlate(pad, filt, mode="valid")
    pos0 = offset - L
    if pos0 % 2 == 0:
        return pos0 // 2, corr[0::2]
    return (pos0 + 1) // 2, corr[1::2]


def _take_positions(offset: int, vec: np.ndarray, positions: np.ndarray) -> np.ndarray:
    idx = positions - offset
    ok = (idx >= 0) & (idx < vec.size)
    out = np.zeros(positions.size)
    out[ok] = vec[idx[ok]]
    return out


class _RowAccumulator:
    """Dense coefficient row over a dynamically grown index window."""

    def __init__(self) -> None:
        self.offset = 0
        self.vec = np.zeros(0)

    def add(self, offset: int, values: np.ndarray) -> None:
        if values.size == 0:
            return
        if self.vec.size == 0:
            self.offset = offset
            self.vec = np.array(values, dtype=np.float64)
            return
        lo = min(self.offset, offset)
        hi = max(self.offset + self.vec.size, offset + values.size)
        if lo < self.offset or hi > self.offset + self.vec.size:
            grown = np.zeros(hi - lo)
            grown[self.offset - lo : self.offset - lo + self.vec.size] = self.vec
            self.offset, self.vec = lo, grown
        self.vec[offset - self.offset : offset - self.offset + values.size] += values


def project_to_orthogonal(
    atoms,
    fam: WaveletFamily,
    j0: int,
    top: int,
    coarse: CoarseTerm | None = None,
) -> CoefficientTree:
    """Coefficients of the atom superposition in the orthonormal basis.

    ``w_{jk} = sum K0(a 2^-j, 2^j b - k) omega`` for ``j0 <= j <= top`` and
    ``k in [0, 2^j)``; the scaling row collects the same products against
    ``phi`` plus the coarse constant ``c_w`` added verbatim, matching the
    projection contract.  No periodic wrapping: shifts outside ``[0, 2^j)``
    are dropped.  Every atom is reduced to a dense row of about
    ``L 2^(top+2)`` values, so ``top`` is bounded before anything is built.
    """
    if j0 < 0 or top < j0:
        raise ValueError(f"need 0 <= j0 <= top, got j0={j0}, top={top}")
    L = fam.support
    check_dense_size(math.log2(L) + top + 2, "top")
    all_atoms = list(atoms)
    c_w = 0.0
    if coarse is not None:
        c_w = coarse.c_w
        all_atoms.extend(coarse.atoms)

    width0 = 1 << j0
    if not all_atoms:
        scaling = np.full(width0, c_w)
        levels = tuple(
            Level(j, np.empty(0, np.int64), np.empty(0)) for j in range(j0, top + 1)
        )
        return CoefficientTree(j0, scaling, levels)

    grid = cascade_eval(fam, _TABLE_DEPTH)
    xs, psi = grid.grid, grid.psi  # `grid` builds its arange on every read
    mu1 = math.fsum(k * hk for k, hk in enumerate(fam.h)) / math.sqrt(2.0)
    h = np.asarray(fam.h)
    g = np.asarray(fam.g)
    common = top + 2  # every atom is reduced to this approximation row, so
    # the projection stays exactly linear in the atom list

    row = _RowAccumulator()
    for at in all_atoms:
        dy = _dyadic_form(at.a, at.b, L)
        if dy is not None and dy[0] >= 0:
            n, kt = dy
            if n >= common:
                continue  # orthogonal to every level up to top
            off, vec = _chain(fam, n, kt, common)
            row.add(off, at.omega * vec)
            continue
        depth = max(common, math.ceil(math.log2(max(at.a, 1.0))) + _OVERSAMPLE)
        scale = 1 << depth
        y0 = at.b * L
        lo_m = math.ceil(scale * y0 - mu1)
        hi_m = math.floor(scale * (y0 + L / at.a) - mu1)
        if hi_m < lo_m:
            continue
        ms = np.arange(lo_m, hi_m + 1)
        t = at.a * ((ms + mu1) / scale - y0)
        vals = np.interp(t, xs, psi, left=0.0, right=0.0)
        off, vec = lo_m, at.omega * math.sqrt(at.a) * vals / math.sqrt(scale)
        for _ in range(depth - common):
            off, vec = _analysis_down(off, vec, h)
        row.add(off, vec)

    offsets, vec = row.offset, row.vec
    details: dict[int, np.ndarray] = {}
    for j in range(common - 1, j0 - 1, -1):
        if j <= top:
            d_off, d_vec = _analysis_down(offsets, vec, g)
            positions = L * np.arange(1 << j, dtype=np.int64)
            details[j] = _take_positions(d_off, d_vec, positions)
        offsets, vec = _analysis_down(offsets, vec, h)

    scaling = _take_positions(offsets, vec, L * np.arange(width0, dtype=np.int64)) + c_w
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
    lv = _level_list(levels)
    _check_reps(reps)
    check_dense_size(math.log2(fam.support) + lv[-1] + 2, "levels")  # the projection's row
    if not m > 0:
        raise ConfigError("m", f"moment order must be positive, got {m}")
    if not absolute_moment(spec.slab, m) < math.inf:
        raise ValueError(f"slab lacks a finite moment of order {m:g}")
    expo_kernel = m * (fam.r_plus_rho + 0.5) - 1.0
    if expo_kernel <= 0:
        raise ValueError("need m (r + rho + 1/2) > 1 for the kernel term to decay")

    def work(rep: int) -> list[float]:
        atoms = sample_atoms(spec, seed, replicate=rep)
        tree = project_to_orthogonal(atoms, fam, lv[0], lv[-1], coarse=spec.coarse)
        # the tree holds every level from lv[0] to lv[-1]
        return [float(np.sum(np.abs(tree.levels[j - lv[0]].w) ** m)) / (1 << j) for j in lv]

    stats = _column_stats(lv, {j: float(1 << j) for j in lv}, _run_reps(reps, threads, work))
    # fit on the replicate-averaged moments; the delta method propagates
    # their standard errors through log2 into the least-squares slope
    pts = [(st.j, math.log2(st.mean)) for st in stats if st.mean and st.mean > 0]
    slope = _slope_fit(pts)
    slope_err = None
    if slope is not None:
        xs = [float(j) for j, _ in pts]
        xbar = math.fsum(xs) / len(xs)
        sxx = math.fsum((x - xbar) ** 2 for x in xs)
        by_j = {st.j: st for st in stats}
        var = 0.0
        for j, _ in pts:
            st = by_j[j]
            if st.stderr is None or math.isnan(st.stderr):
                var = math.nan
                break
            var += ((j - xbar) / sxx * st.stderr / (st.mean * math.log(2.0))) ** 2
        slope_err = math.sqrt(var) if not math.isnan(var) else None
    expected = -min(expo_kernel, m * spec.alpha / 2.0 + spec.beta)
    return ExperimentReport(
        kind="cwt-moment",
        config={
            "spec": spec.to_dict(),
            "family": fam.name,
            "m": m,
            "levels": lv,
            "reps": reps,
            "seed": seed,
        },
        levels=stats,
        slope=slope,
        slope_stderr=slope_err,
        expected_slope=expected,
        dropped_fraction=(len(stats) - len(pts)) / len(stats),
    )


# ---------------------------------------------------------------------------
# membership classification for the continuous model
# ---------------------------------------------------------------------------

def classify_cwt(
    slab: SlabDistribution,
    alpha: float,
    beta: float,
    bp: BesovParams,
    r: float,
    rho: float,
    *,
    mu: LevelSchedule | None = None,
    tau: LevelSchedule | None = None,
) -> Verdict:
    """Almost-sure membership of the continuous model in ``b^s_{p,q}``.

    With the default power family the thresholds coincide with the
    orthogonal classifier (same heavier-tail shift convention).  Passing
    ``mu`` and ``tau`` switches to the general nonincreasing family, which
    is only covered for ``p < infinity``.
    """
    if (mu is None) != (tau is None):
        raise ValueError("general classification needs both mu and tau (or neither)")
    if not (r + rho > (1.0 + alpha) / 2.0):
        return _not_covered(
            "cwt/kernel-regularity",
            "kernel bound needs r + rho > (1 + alpha)/2; "
            f"got {r + rho:g} <= {(1.0 + alpha) / 2.0:g}",
        )
    tc = tail_class(slab)
    if isinstance(tc, FrechetTail) and not tc.ell > 2.0 / (r + rho + 0.5):
        return _not_covered(
            "cwt/heavy-tail-gap",
            f"polynomial tail needs ell > 2/(r + rho + 1/2); got ell={tc.ell:g}",
        )
    kernel_note = f"kernel decay exponent r + rho + 1/2 = {r + rho + 0.5:g}"

    if mu is None:
        base = classify_simple(slab, alpha, beta, bp, r)
        return replace(
            base,
            case_id="cwt/" + base.case_id.split("/", 1)[1],
            assumptions=base.assumptions + (kernel_note,),
        )

    # general nonincreasing (mu, tau), read at dyadic scales a = 2^j
    if math.isinf(bp.p):
        return _not_covered(
            "cwt/general-p-inf",
            "general intensity families are only treated for p < infinity",
            assumptions=(kernel_note,),
        )
    _validate_smoothness(bp, r)
    # atom count near level j grows like 2^j mu(2^j) = c j^g_mu 2^(j (1 - e_mu)),
    # whose regime depends on c only at c = 0 (no atoms) and is unchanged by
    # clamping at 1
    regime = growth_regime(mu).kind
    assumptions = (kernel_note, "general nonincreasing mu, tau at dyadic scales")

    if regime is GrowthKind.SUMMABLE:
        return Verdict(
            Decision.MEMBER_AS,
            "cwt/general-summable",
            reason="sum of 2^j mu(2^j) converges: finitely many atoms in total",
            assumptions=assumptions,
        )
    if regime is GrowthKind.NOT_COVERED:
        return _not_covered(
            "cwt/general-regime-gap",
            "2^j mu(2^j) neither grows, settles, nor is summable",
            assumptions=assumptions,
        )
    increases = regime is GrowthKind.INCREASES_TO_INFINITY
    if math.isinf(bp.q) and not increases:
        return _not_covered(
            "cwt/general-q-inf",
            "q = infinity needs 2^j mu(2^j) increasing to infinity",
            assumptions=assumptions,
        )
    gate = bp.p if increases else bp.q
    if not absolute_moment(slab, gate) < math.inf:
        return _not_covered(
            "cwt/general-assumption-h",
            f"slab lacks a finite moment of order {gate:g}",
            assumptions=assumptions,
        )
    E, G = _level_exponent(regime, slab, tau, mu.e, mu.g, bp)
    return _decide(_lq_finite(E, G, bp.q), "cwt/general", _threshold(bp, E), assumptions)
