"""Per-atom reference for `besovlab.cwt.project_to_orthogonal`.

This is the projection as it was written before atoms were projected in
blocks: every atom is interpolated, analysed down to the common row with
`np.correlate` and added into the row on its own, in set order.  The
batched projection must equal it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from besovlab.cwt import _OVERSAMPLE, _TABLE_DEPTH, _chain, _dyadic_form
from besovlab.sampler import CoefficientTree, Level
from besovlab.wavelets import cascade_eval


def _analysis_down(offset, vec, filt):
    """One analysis step ``out_k = sum_t filt_t in_(2k + t)`` with offsets."""
    L = filt.size - 1
    pad = np.concatenate([np.zeros(L), vec, np.zeros(L)])
    corr = np.correlate(pad, filt, mode="valid")
    pos0 = offset - L
    if pos0 % 2 == 0:
        return pos0 // 2, corr[0::2]
    return (pos0 + 1) // 2, corr[1::2]


def _take_positions(offset, vec, positions):
    idx = positions - offset
    ok = (idx >= 0) & (idx < vec.size)
    out = np.zeros(positions.size)
    out[ok] = vec[idx[ok]]
    return out


def _rows(atoms):
    """The ``(a, b, omega)`` rows of an `AtomSet`, as Python floats."""
    return list(zip(atoms.a.tolist(), atoms.b.tolist(), atoms.omega.tolist()))


def project_per_atom(atoms, fam, j0, top, coarse=None):
    L = fam.support
    all_atoms = _rows(atoms)
    c_w = 0.0
    if coarse is not None:
        c_w = coarse.c_w
        all_atoms.extend(_rows(coarse.atoms))
    width0 = 1 << j0
    if not all_atoms:
        levels = tuple(Level(j, np.empty(0, np.int64), np.empty(0)) for j in range(j0, top + 1))
        return CoefficientTree(j0, np.full(width0, c_w), levels)

    grid = cascade_eval(fam, _TABLE_DEPTH)
    xs, psi = grid.grid, grid.psi
    mu1 = math.fsum(k * hk for k, hk in enumerate(fam.h)) / math.sqrt(2.0)
    h = np.asarray(fam.h)
    g = np.asarray(fam.g)
    common = top + 2
    row = np.zeros(L << common)
    for a, b, omega in all_atoms:
        dy = _dyadic_form(a, b, L)
        if dy is not None and dy[0] >= 0:
            n, kt = dy
            if n >= common:
                continue
            off, vec = _chain(fam, n, kt, common)
            vec = omega * vec
        else:
            depth = max(common, math.ceil(math.log2(max(a, 1.0))) + _OVERSAMPLE)
            scale = 1 << depth
            y0 = b * L
            reach = (L << depth) + (L << (depth - common))
            lo_m = max(math.ceil(scale * y0 - mu1), 0)
            hi_m = math.floor(min(scale * (y0 + L / a) - mu1, reach))
            if hi_m < lo_m:
                continue
            ms = np.arange(lo_m, hi_m + 1)
            t = a * ((ms + mu1) / scale - y0)
            vals = np.interp(t, xs, psi, left=0.0, right=0.0)
            off, vec = lo_m, omega * math.sqrt(a) * vals / math.sqrt(scale)
            for _ in range(depth - common):
                off, vec = _analysis_down(off, vec, h)
        lo, hi = max(off, 0), min(off + vec.size, row.size)
        if lo < hi:
            row[lo:hi] += vec[lo - off : hi - off]

    offsets, vec = 0, row
    details = {}
    for j in range(common - 1, j0 - 1, -1):
        if j <= top:
            d_off, d_vec = _analysis_down(offsets, vec, g)
            details[j] = _take_positions(d_off, d_vec, L * np.arange(1 << j, dtype=np.int64))
        offsets, vec = _analysis_down(offsets, vec, h)
    scaling = _take_positions(offsets, vec, L * np.arange(width0, dtype=np.int64)) + c_w
    levels = []
    for j in range(j0, top + 1):
        dense = details[j]
        k = np.nonzero(dense)[0].astype(np.int64)
        levels.append(Level(j, k, dense[k]))
    return CoefficientTree(j0, scaling, tuple(levels))
