"""Pointwise reference for the cross-scale kernel of `besovlab.cwt`.

``kernel_k0`` evaluates one kernel value at a time: dyadic arguments through
the exact filter synthesis chains projection uses, everything else through
the quadrature row `besovlab.cwt._kernel_row` that ``cwt-verify`` uses.
"""

from __future__ import annotations

import math

import numpy as np

from besovlab.cwt import _TABLE_DEPTH, _chain, _dyadic_form, _kernel_row
from besovlab.wavelets import WaveletFamily


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
