"""Slab distributions for spike-and-slab wavelet coefficients.

Every slab is a symmetric, continuous distribution on the real line with
unit scale convention; a nonzero coefficient is ``tau_j * xi`` with
``xi`` drawn from one of these families.  What the rest of the package
needs from a slab is small and explicit:

* the folded cdf ``H_+(x) = P(|xi| <= x)`` and its inverse,
* absolute moments ``E|xi|^m`` (possibly +inf),
* the extreme-value tail class: exponential-type tails (Gumbel domain,
  level maxima concentrate after ``b_j`` normalisation) versus polynomial
  tails (Frechet domain with index ``ell``).  The classifiers check the
  Gumbel concentration condition symbolically, from the schedule exponents.

Quantiles are computed by bracketed bisection on ``H_+`` rather than by
per-family inverse formulas, so a single code path is exercised for every
family; closed forms are kept in the test suite as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fields import ConfigError, number, string

__all__ = [
    "Gaussian",
    "Laplace",
    "StudentT",
    "Cauchy",
    "PowerExponential",
    "SlabDistribution",
    "GumbelTail",
    "FrechetTail",
    "TailClass",
    "tail_class",
    "cdf_hplus",
    "quantile_hplus",
    "absolute_moment",
    "sample",
    "slab_to_dict",
    "slab_from_dict",
]


def _check_finite(**params: float) -> None:
    """Slab parameters are finite: an infinite one names a limit law, not a slab."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Gaussian:
    """Centred normal slab with standard deviation ``sigma``."""

    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        _check_finite(sigma=self.sigma)


@dataclass(frozen=True)
class Laplace:
    """Double-exponential slab with density ``lam/2 * exp(-lam*|x|)``."""

    lam: float = 1.0

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        _check_finite(lam=self.lam)


@dataclass(frozen=True)
class StudentT:
    """Student t slab with ``nu >= 1`` degrees of freedom."""

    nu: float

    def __post_init__(self) -> None:
        if not self.nu >= 1:
            raise ValueError(f"nu must be >= 1, got {self.nu}")
        _check_finite(nu=self.nu)


@dataclass(frozen=True)
class Cauchy:
    """Standard Cauchy slab (Student t with one degree of freedom)."""


@dataclass(frozen=True)
class PowerExponential:
    """Slab defined by its folded tail ``1 - H_+(x) = exp(-(lam*x)^m)``.

    ``m = 1`` reproduces the Laplace tail, ``m = 2`` a Gaussian-type tail.
    The density of ``|xi|`` is ``m * lam^m * x^(m-1) * exp(-(lam*x)^m)``.
    """

    m: float
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not self.m > 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        _check_finite(m=self.m, lam=self.lam)


SlabDistribution = Union[Gaussian, Laplace, StudentT, Cauchy, PowerExponential]


@dataclass(frozen=True)
class GumbelTail:
    """Exponential-type tail: ``1 - H_+(x) ~ exp(-(lam*x)^m)`` up to slowly
    varying factors.  ``log_power`` is the exponent ``m``; the EVT scaling
    sequence grows like ``b_j ~ (log n_j)^(1/m)``."""

    log_power: float


@dataclass(frozen=True)
class FrechetTail:
    """Polynomial tail ``1 - H_+(x) ~ c * x^(-ell)``; maxima of ``n`` draws
    scaled by ``b_j ~ n^(1/ell)`` converge to a Frechet(ell) law."""

    ell: float


TailClass = Union[GumbelTail, FrechetTail]


def tail_class(d: SlabDistribution) -> TailClass:
    """Extreme-value tail class of the slab."""
    if isinstance(d, Gaussian):
        return GumbelTail(log_power=2.0)
    if isinstance(d, Laplace):
        return GumbelTail(log_power=1.0)
    if isinstance(d, PowerExponential):
        return GumbelTail(log_power=d.m)
    if isinstance(d, StudentT):
        return FrechetTail(ell=d.nu)
    if isinstance(d, Cauchy):
        return FrechetTail(ell=1.0)
    raise TypeError(f"not a slab distribution: {d!r}")


# ---------------------------------------------------------------------------
# Regularized incomplete beta, needed for the Student t folded cdf.  Hand
# rolled (Lentz's continued fraction) so the package has no runtime scipy
# dependency; the test suite checks it against scipy.special.betainc.
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)`` for a, b > 0, x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


# ---------------------------------------------------------------------------
# Folded cdf and quantiles
# ---------------------------------------------------------------------------

def cdf_hplus(d: SlabDistribution, x: float) -> float:
    """Folded cdf ``H_+(x) = P(|xi| <= x)`` for ``x >= 0``.

    Raises ``ValueError`` for negative ``x``.
    """
    if x < 0:
        raise ValueError(f"folded cdf needs x >= 0, got {x}")
    if x == 0:
        return 0.0
    if isinstance(d, Gaussian):
        return math.erf(x / (d.sigma * math.sqrt(2.0)))
    if isinstance(d, Laplace):
        return -math.expm1(-d.lam * x)
    if isinstance(d, PowerExponential):
        return -math.expm1(-((d.lam * x) ** d.m))
    if isinstance(d, Cauchy):
        return (2.0 / math.pi) * math.atan(x)
    if isinstance(d, StudentT):
        # P(|T| > x) = I_{nu/(nu+x^2)}(nu/2, 1/2)
        return 1.0 - _betainc_reg(d.nu / 2.0, 0.5, d.nu / (d.nu + x * x))
    raise TypeError(f"not a slab distribution: {d!r}")


def quantile_hplus(d: SlabDistribution, u: float) -> float:
    """Inverse of the folded cdf on ``u in [0, 1)`` by bracketed bisection.

    The bracket starts at [0, 1] and doubles its right end until it
    contains the root; bisection then runs to relative width 1e-12.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"quantile needs u in [0, 1), got {u}")
    if u == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while cdf_hplus(d, hi) <= u:
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError(f"bracket blew up for u={u} on {d!r}")
    while hi - lo > 1e-12 * hi and hi - lo > 5e-324:
        mid = 0.5 * (lo + hi)
        if cdf_hplus(d, mid) <= u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def absolute_moment(d: SlabDistribution, m: float) -> float:
    """``E|xi|^m`` for ``m > 0``; returns ``math.inf`` when the moment diverges.

    Closed forms via the gamma function:

    * Gaussian(sigma):      sigma^m 2^(m/2) Gamma((m+1)/2) / sqrt(pi)
    * Laplace(lam):         Gamma(m+1) / lam^m
    * StudentT(nu), m<nu:   nu^(m/2) Gamma((m+1)/2) Gamma((nu-m)/2)
                            / (sqrt(pi) Gamma(nu/2))
    * Cauchy, m<1:          1 / cos(pi m / 2)
    * PowerExponential:     Gamma(1 + m/m_tail) / lam^m
    """
    if not m > 0:
        raise ValueError(f"moment order must be positive, got {m}")
    if isinstance(d, Gaussian):
        return d.sigma**m * 2.0 ** (m / 2.0) * math.gamma((m + 1.0) / 2.0) / math.sqrt(math.pi)
    if isinstance(d, Laplace):
        return math.gamma(m + 1.0) / d.lam**m
    if isinstance(d, StudentT):
        if m >= d.nu:
            return math.inf
        return (
            d.nu ** (m / 2.0)
            * math.gamma((m + 1.0) / 2.0)
            * math.gamma((d.nu - m) / 2.0)
            / (math.sqrt(math.pi) * math.gamma(d.nu / 2.0))
        )
    if isinstance(d, Cauchy):
        if m >= 1.0:
            return math.inf
        return 1.0 / math.cos(math.pi * m / 2.0)
    if isinstance(d, PowerExponential):
        return math.gamma(1.0 + m / d.m) / d.lam**m
    raise TypeError(f"not a slab distribution: {d!r}")


def sample(d: SlabDistribution, rng: np.random.Generator, size: int | tuple = ()) -> np.ndarray:
    """Draw from the slab using the numpy generator ``rng``."""
    if isinstance(d, Gaussian):
        return rng.normal(0.0, d.sigma, size=size)
    if isinstance(d, Laplace):
        return rng.laplace(0.0, 1.0 / d.lam, size=size)
    if isinstance(d, StudentT):
        return rng.standard_t(d.nu, size=size)
    if isinstance(d, Cauchy):
        return rng.standard_cauchy(size=size)
    if isinstance(d, PowerExponential):
        # |xi| = (-log U)^(1/m) / lam by inverting the folded tail; random sign.
        u = rng.random(size=size)
        mag = (-np.log1p(-u)) ** (1.0 / d.m) / d.lam
        sign = rng.integers(0, 2, size=size) * 2 - 1
        return mag * sign
    raise TypeError(f"not a slab distribution: {d!r}")


def slab_to_dict(d: SlabDistribution) -> dict:
    """Serialise a slab to a plain dict (for JSON reports and configs)."""
    if isinstance(d, Gaussian):
        return {"family": "gaussian", "sigma": d.sigma}
    if isinstance(d, Laplace):
        return {"family": "laplace", "lam": d.lam}
    if isinstance(d, StudentT):
        return {"family": "student_t", "nu": d.nu}
    if isinstance(d, Cauchy):
        return {"family": "cauchy"}
    if isinstance(d, PowerExponential):
        return {"family": "power_exponential", "m": d.m, "lam": d.lam}
    raise TypeError(f"not a slab distribution: {d!r}")


def slab_from_dict(spec: dict) -> SlabDistribution:
    """Inverse of `slab_to_dict`."""
    family = string(spec, "family")
    if family == "gaussian":
        return Gaussian(sigma=number(spec, "sigma", 1.0))
    if family == "laplace":
        return Laplace(lam=number(spec, "lam", 1.0))
    if family == "student_t":
        return StudentT(nu=number(spec, "nu"))
    if family == "cauchy":
        return Cauchy()
    if family == "power_exponential":
        return PowerExponential(m=number(spec, "m"), lam=number(spec, "lam", 1.0))
    raise ConfigError("family", f"unknown slab family: {family!r}")
