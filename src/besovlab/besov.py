"""Besov sequence norm on coefficient trees.

For smoothness ``s > 0`` and integrability indices ``p, q in [1, inf]``
the sequence norm of a tree is

    ||u_{j0}||_p + ( sum_j [2^(j*s') ||w_j||_p]^q )^(1/q),

with ``s' = s + 1/2 - 1/p`` (``1/inf := 0``) and the sum replaced by a
supremum at ``q = inf``.  Level norms treat absent positions as zeros, so
sparse storage is exact.

Infinite indices are passed as ``math.inf``; every ``p``/``q`` branch is
guarded by an explicit ``isinf`` test.  Per-level power sums are
rounded once from their exact value (`_exact_sum`, equal to ``math.fsum``)
since levels may hold ~10^6 terms.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import ConfigError
from .sampler import CoefficientTree
from .theory import BesovParams

__all__ = ["BesovParams", "vector_p_norm", "level_term", "level_terms", "besov_seq_norm"]


# values per bincount pass.  A bucket sums at most this many 27-bit halves, so
# any length up to 2^26 keeps it below 2^53 and exact in float64.  2^15 keeps a
# pass's temporaries near 1 MB: on a 2-core Xeon `verify` ran about 15% faster
# than with one pass per level (2^26), and faster than with 2^13, 2^14 or 2^16.
_SLICE = 1 << 15


def _exact_sum(x: np.ndarray) -> float:
    """Correctly rounded sum of a 1-d array of nonnegative finite floats,
    equal to ``math.fsum(x.tolist())`` bit for bit.

    Each value is ``M 2^(e - 53)`` with an integer mantissa ``M < 2^53``
    (`np.frexp`).  The high 27 and low 26 bits of ``M`` are summed per
    exponent by `np.bincount`, exactly, since every bucket stays an integer
    below 2^53.  The buckets then add up as one Python int ``N`` and the sum
    ``N 2^-1127`` is rounded once, by int / int true division.
    """
    total = 0
    for start in range(0, x.size, _SLICE):
        m, e = np.frexp(x[start : start + _SLICE])
        e += 1074  # np.frexp's exponents lie in [-1073, 1024]
        m *= 2.0**27
        high = np.floor(m)
        m -= high
        m *= 2.0**26
        highs, lows = np.bincount(e, weights=high), np.bincount(e, weights=m)
        for i in np.flatnonzero(highs + lows).tolist():
            total += ((int(highs[i]) << 26) + int(lows[i])) << i
    return total / (1 << 1127)


def vector_p_norm(values: np.ndarray, p: float) -> float:
    """``l_p`` norm of a dense vector with ``p in [1, inf]``; ``nan`` for a
    finite ``p`` when a value is not finite."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    if math.isinf(p):
        return float(np.max(np.abs(values)))
    mags = np.abs(values)
    top = float(np.max(mags))
    if top == 0.0:
        return 0.0
    if not math.isfinite(top):
        return math.nan
    # factor out the peak so |w|^p cannot overflow for large p
    mags /= top
    mags **= p
    return top * _exact_sum(mags) ** (1.0 / p)


def level_term(j: int, w: np.ndarray, bp: BesovParams) -> float:
    """``a_j = 2^(j*s') ||w||_p`` for the stored values ``w`` of level ``j``.

    The implicit zeros of a level never add to a power sum and are never
    the largest magnitude of a nonempty level, so the stored values alone
    give ``||w_j||_p``.  A weight ``2^(j*s')`` beyond the float range is a
    ``besov.s`` error.
    """
    try:
        return 2.0 ** (j * bp.s_prime) * vector_p_norm(w, bp.p)
    except OverflowError:
        raise ConfigError("besov.s", f"the level weight 2^(j s') overflows at level {j}") from None


def level_terms(t: CoefficientTree, bp: BesovParams) -> np.ndarray:
    """Per-level terms `level_term` for j in [j0, J]."""
    return np.array([level_term(lev.j, lev.w, bp) for lev in t.levels], dtype=np.float64)


def besov_seq_norm(t: CoefficientTree, bp: BesovParams) -> float:
    """Sequence norm: coarse ``l_p`` norm plus the ``l_q`` tail of ``a_j``."""
    coarse = vector_p_norm(t.scaling, bp.p)
    terms = level_terms(t, bp)
    if terms.size == 0:
        return coarse
    if math.isinf(bp.q):
        return coarse + float(np.max(terms))
    return coarse + vector_p_norm(terms, bp.q)
