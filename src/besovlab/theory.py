"""Almost-sure Besov membership classifiers for spike-and-slab priors.

Everything here is exact symbolic work on schedule exponents.  With
``tau_j = c_t j^{g_t} 2^{-e_t j}`` and ``pi_j`` clamped to [0, 1], every
criterion in the underlying theory reduces to convergence of a series
``sum_j j^G 2^{jE}`` or boundedness of the matching supremum, which is
decidable from ``(E, G)`` alone by `schedules.series_verdict` and
`schedules.sup_verdict` at ``(-E, G)``, which every classifier calls
directly or, for the dyadic and continuous families, through
`classify_general`.  Exponents are ``fractions.Fraction`` values of the
float inputs, so a verdict is the exact answer for those floats, also at
a threshold; only the reported threshold is rounded.

The classifier family:

* ``classify_general``     arbitrary schedules, five cases split by the
  growth of the expected nonzero count ``n_j = 2^j pi_j``;
  ``classify_cwt`` relabels it on ``(tau, mu)`` for the continuous
  model, whose atom count ``2^j mu(2^j)`` near level ``j`` plays ``n_j``.
* ``classify_simple``      dyadic two-exponent parametrisation
  (``tau_j = 2^{-alpha j/2}``, ``pi_j = min(1, 2^{-beta j})``):
  ``classify_general`` on those schedules, its cases relabelled by the
  dyadic cells.
* ``classify_three_param`` the three-hyperparameter family at
  ``p = inf`` with a polynomial tweak ``j^gamma`` on the variance
  (Gaussian and Laplace slabs only).
* ``classify_regression``  finite-sample regression scaling: coefficients
  carry ``n^{-1/2}`` and levels stop at ``floor(log2 n) - 1``; criteria
  become limits of normalised partial sums as ``n -> inf``.
* ``no_spike_condition``   the ``pi = 1`` specialisation.

Decisions: ``MemberAS`` / ``NotMemberAS`` are the two sides of the
necessary-and-sufficient criteria; ``SufficientOnlyMember`` marks the one
cell (constant ``n_j``, ``q = inf``) where only a sufficient condition
exists below the threshold; ``NotCovered`` carries a reason whenever the
hypotheses of every case fail.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .distributions import (
    FrechetTail,
    Gaussian,
    GumbelTail,
    Laplace,
    SlabDistribution,
    has_moment,
    tail_class,
)
from .fields import ConfigError
from .schedules import (
    GrowthKind,
    LevelSchedule,
    clamped_exponents,
    growth_regime,
    series_verdict,
    sup_verdict,
)

__all__ = [
    "BesovParams",
    "Decision",
    "Verdict",
    "classify_simple",
    "classify_general",
    "classify_three_param",
    "classify_regression",
    "no_spike_condition",
    "classify_cwt",
]


@dataclass(frozen=True)
class BesovParams:
    s: float
    p: float
    q: float

    def __post_init__(self) -> None:
        if not 0 < self.s < math.inf:
            raise ConfigError("s", f"s must be finite and positive, got {self.s}")
        for name, v in (("p", self.p), ("q", self.q)):
            if not v >= 1:
                raise ConfigError(name, f"{name} must be in [1, inf], got {v}")

    @property
    def s_prime(self) -> float:
        return self.s + 0.5 - self.inv_p

    @property
    def inv_p(self) -> float:
        return 0.0 if math.isinf(self.p) else 1.0 / self.p


class Decision(enum.Enum):
    MEMBER_AS = "MemberAS"
    NOT_MEMBER_AS = "NotMemberAS"
    SUFFICIENT_ONLY_MEMBER = "SufficientOnlyMember"
    NOT_COVERED = "NotCovered"


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    case_id: str
    threshold: float | None = None
    reason: str = ""
    assumptions: tuple[str, ...] = ()

    @property
    def is_member(self) -> bool:
        return self.decision in (Decision.MEMBER_AS, Decision.SUFFICIENT_ONLY_MEMBER)

    @property
    def covered(self) -> bool:
        return self.decision is not Decision.NOT_COVERED

    def to_dict(self) -> dict:
        return {
            "decision": self.decision.value,
            "case_id": self.case_id,
            "threshold": self.threshold,
            "reason": self.reason,
            "assumptions": list(self.assumptions),
        }


# ---------------------------------------------------------------------------
# exponent-algebra primitives: terms behave like j^G * 2^(j*E)
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)
# the exact value of a float, cached: a sweep passes each ``s`` and ``q`` many times
_exact = functools.lru_cache(maxsize=4096)(Fraction)


def _lq_finite(E: Fraction, G: Fraction, q: float) -> bool:
    """sum_j (j^G 2^(jE))^q < inf; for ``q = inf`` the sup criterion."""
    if math.isinf(q):
        return sup_verdict(-E, G)
    w = _exact(q)
    return series_verdict(-w * E, w * G)


def _inv(x: float) -> Fraction:
    """Exact ``1/x`` of a float; ``1/inf`` reads as 0."""
    return Fraction(0) if math.isinf(x) else 1 / Fraction(x)


def _threshold(bp: BesovParams, E: Fraction) -> float:
    """The smoothness at which the tested exponent ``E`` vanishes.

    Every tested exponent is ``s`` plus terms free of ``s``, so the
    threshold is ``s - E``, rounded once.
    """
    return float(_exact(bp.s) - E)


def _level_exponent(
    kind: GrowthKind,
    slab: SlabDistribution,
    tau: LevelSchedule,
    e_pi: float,
    g_pi: float,
    bp: BesovParams,
) -> tuple[Fraction, Fraction] | None:
    """Exact ``(E, G)`` with level term ``a_j ~ j^G 2^(jE)`` in the
    infinite model.

    ``a_j = 2^(j s') ||level j||_p`` for the scale ``tau`` and expected
    counts ``n_j ~ j^g_pi 2^(j (1 - e_pi))`` growing in regime ``kind``.
    When the counts grow, a finite ``p`` sums ``n_j`` terms of size
    ``tau_j``; at ``p = inf`` the level maximum grows like
    ``(log n_j)^(1/m)`` for a Gumbel tail and like ``n_j^(1/ell)`` for a
    Frechet tail.  When they settle, a level holds finitely many terms.
    The other regimes have no level exponent (None).  ``E`` is ``s`` plus
    `_level_offset`, which is free of ``s``.
    """
    pair = _level_offset(kind, slab, tau, e_pi, g_pi, bp.p)
    return None if pair is None else (_exact(bp.s) + pair[0], pair[1])


@functools.lru_cache(maxsize=4096)
def _level_offset(kind: GrowthKind, slab: SlabDistribution, tau: LevelSchedule, e_pi: float,
                  g_pi: float, p: float) -> tuple[Fraction, Fraction] | None:
    """``(E - s, G)`` of `_level_exponent`; a sweep meets each prior and ``p`` for many ``s``."""
    head = _HALF - Fraction(tau.e)
    inv_p = _inv(p)
    if kind is GrowthKind.TENDS_TO_CONSTANT:
        return head - inv_p, Fraction(tau.g)
    if kind is not GrowthKind.INCREASES_TO_INFINITY:
        return None
    if not math.isinf(p):
        weight, shift = inv_p, -Fraction(e_pi) * inv_p
    else:
        tc = tail_class(slab)
        if isinstance(tc, GumbelTail):
            return head, Fraction(tau.g) + _inv(tc.log_power)
        weight = _inv(tc.ell)
        shift = (1 - Fraction(e_pi)) * weight
    return head + shift, Fraction(tau.g) + Fraction(g_pi) * weight


def _validate_smoothness(bp: BesovParams, r: float) -> None:
    if not bp.s < r:
        raise ConfigError("r", f"the wavelet regularity r={r} must exceed the smoothness s={bp.s}")


def _decide(member: bool, case_id: str, threshold: float | None, assumptions=()) -> Verdict:
    return Verdict(
        Decision.MEMBER_AS if member else Decision.NOT_MEMBER_AS,
        case_id,
        threshold,
        assumptions=tuple(assumptions),
    )


def _not_covered(
    case_id: str, reason: str, threshold: float | None = None, assumptions=()
) -> Verdict:
    return Verdict(Decision.NOT_COVERED, case_id, threshold, reason, tuple(assumptions))


# ---------------------------------------------------------------------------
# general schedules: five cases split on the growth of n_j = 2^j pi_j
# ---------------------------------------------------------------------------

def _case4_constant_q_inf(
    slab: SlabDistribution, tau: LevelSchedule, bp: BesovParams, E: Fraction, case_id: str
) -> Verdict:
    """Shared case: n_j -> const, q = inf.

    Membership is controlled by ``M(j) = 1/(tau_j 2^(j s'))``, which grows
    like ``j^(-G) 2^(-jE)`` for the constant-regime pair ``(E, G)``: when
    M grows exponentially (``E < 0``: ``tau_j`` decays faster than
    ``2^(-j s')``), a logarithmic moment suffices; when M grows
    polynomially (``E = 0``, ``G = g_t < 0``) the criterion is the moment
    ``E|xi|^(-1/g_t) < inf``; otherwise M is not eventually increasing and
    no case applies.
    """
    threshold = _threshold(bp, E)
    if E < 0:
        return _decide(True, case_id, threshold, ("E log+ |xi| < inf",))
    if E == 0:
        if tau.g < 0:
            return _decide(
                has_moment(slab, -1 / Fraction(tau.g)),
                case_id,
                threshold,
                (f"moment gate E|xi|^{-1.0 / tau.g:g}",),
            )
        return _not_covered(
            case_id,
            "normalising sequence M(j) is not eventually increasing "
            f"(tau exponents e={tau.e}, g={tau.g} against s'={bp.s_prime})",
            threshold,
        )
    return _not_covered(
        case_id,
        "normalising sequence M(j) decreases; the q=inf constant-count case "
        "needs tau_j to decay at least like 2^(-j s')",
        threshold,
    )


def _schedule_case(
    model: str,
    slab: SlabDistribution,
    tau: LevelSchedule,
    pi: LevelSchedule,
    bp: BesovParams,
    r: float,
) -> Verdict | tuple[str, str, Fraction, Fraction, FrechetTail | None]:
    """The five cases split on the growth of ``n_j = 2^j pi_j``, shared by
    the infinite and regression models; ``model`` prefixes the case ids.

    Returns the Verdict of the gate that decides (regime gap, case 5,
    case 4, the moment gates of cases 3 and 1, case 2's Gumbel auxiliary
    condition).  Otherwise returns the open case as ``(case_id, note, E,
    G, frechet)``: the infinite model's exact pair (`_level_exponent`) and
    the slab's `FrechetTail` in the ``p = inf`` polynomial-tail cell, None
    elsewhere.
    """
    _validate_smoothness(bp, r)
    kind = growth_regime(pi)
    _, e_pi, g_pi = clamped_exponents(pi)
    if kind is GrowthKind.NOT_COVERED:
        return _not_covered(
            f"{model}/regime-gap",
            "expected counts n_j tend to 0 while sum n_j diverges "
            f"(e={e_pi}, g={g_pi}); no theory case applies",
        )
    if kind is GrowthKind.SUMMABLE:
        return Verdict(
            Decision.MEMBER_AS,
            f"{model}/case5",
            assumptions=("sum_j 2^j pi_j < inf: finitely many nonzero coefficients",),
        )

    E, G = _level_exponent(kind, slab, tau, e_pi, g_pi, bp)
    if kind is GrowthKind.TENDS_TO_CONSTANT:
        if math.isinf(bp.q):
            return _case4_constant_q_inf(slab, tau, bp, E, f"{model}/case4")
        case_id, name, order = f"{model}/case3", "q", bp.q
    elif not math.isinf(bp.p):
        # case 1: l_p sums concentrate by the random-length LLN
        case_id, name, order = f"{model}/case1", "p", bp.p
    else:
        # case 2: p = inf, level maxima under EVT normalisation
        tc = tail_class(slab)
        if isinstance(tc, FrechetTail):
            note = f"Frechet tail with index ell={tc.ell:g}"
            return f"{model}/case2-frechet", note, E, G, tc
        if e_pi == 1.0 and g_pi > 0:
            return _not_covered(
                f"{model}/case2-gumbel",
                "auxiliary Gumbel condition fails: n_j grows only polynomially, "
                "so g(b_j) log j / b_j does not vanish",
            )
        note = f"Gumbel tail, b_j ~ (log n_j)^(1/{tc.log_power:g})"
        return f"{model}/case2-gumbel", note, E, G, None
    if not has_moment(slab, order):
        return _not_covered(
            case_id, f"E|xi|^{name} infinite for {name}={order} under {type(slab).__name__}"
        )
    return case_id, f"E|xi|^{order:g} < inf", E, G, None


def classify_general(
    slab: SlabDistribution,
    tau: LevelSchedule,
    pi: LevelSchedule,
    besov: BesovParams,
    r: float,
) -> Verdict:
    """Membership under arbitrary schedule hyperparameters (infinite model).

    The level term behaves like ``j^G 2^(jE)`` (`_level_exponent`); the
    function is a member when ``sum_j (j^G 2^(jE))^q`` converges, or for
    ``q = inf`` when ``sup_j j^G 2^(jE)`` is finite.
    """
    case = _schedule_case("general", slab, tau, pi, besov, r)
    if isinstance(case, Verdict):
        return case
    case_id, note, E, G, frechet = case
    weight = besov.q
    if frechet is not None:
        if math.isinf(besov.q):
            # the a.s. supremum of c_j * Frechet(ell) variables is finite
            # exactly when sum c_j^ell converges (Borel-Cantelli both ways)
            weight = frechet.ell
        elif besov.q >= frechet.ell:
            return _not_covered(
                case_id, f"polynomial tail needs q < ell; got q={besov.q}, ell={frechet.ell}"
            )
    return _decide(_lq_finite(E, G, weight), case_id, _threshold(besov, E), (note,))


# ---------------------------------------------------------------------------
# the dyadic two-exponent family: the general route under its own labels
# ---------------------------------------------------------------------------

def classify_simple(
    slab: SlabDistribution, alpha: float, beta: float, besov: BesovParams, r: float
) -> Verdict:
    """Membership for ``tau_j = sqrt(C1) 2^(-alpha j/2)``,
    ``pi_j = min(1, C2 2^(-beta j))``: `classify_general` on those
    schedules, its cases relabelled by the dyadic cells.

    The decision is a threshold on ``s``, ``T = (alpha - 1)/2 + beta/p -
    delta_H`` with ``delta_H = (1 - beta)/ell`` for polynomial-tail slabs
    at ``p = inf`` and 0 otherwise.  At ``beta = 1, q = inf`` (case 4) the
    threshold condition is only sufficient.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(name, f"{name} must be finite and >= 0, got {value}")
    if alpha == 0 and beta == 0:
        raise ConfigError("alpha", "alpha + beta must be positive (degenerate prior otherwise)")
    if alpha / 2 * 2 != alpha:  # a subnormal alpha whose last bit is set
        raise ConfigError("alpha", f"alpha/2 is not exact in floats for alpha={alpha}")
    v = classify_general(slab, LevelSchedule(1.0, alpha / 2), LevelSchedule(1.0, beta), besov, r)
    case = v.case_id.split("/", 1)[1]
    if case == "case4" and v.decision is Decision.MEMBER_AS:
        reason = "threshold condition is sufficient only in this cell"
        v = replace(v, decision=Decision.SUFFICIENT_ONLY_MEMBER, reason=reason)
    cell = {"case5": "summable", "case4": "n-const-q-inf"}.get(case)
    if cell is None:
        if not v.covered and v.threshold is None:
            cell = "assumption-h"
        elif not math.isinf(besov.p):
            cell = "p-finite"
        else:
            cell = "p-inf-frechet" if isinstance(tail_class(slab), FrechetTail) else "p-inf-gumbel"
    return replace(v, case_id="simple/" + cell)


# ---------------------------------------------------------------------------
# three-hyperparameter family (p = inf, polynomial variance tweak)
# ---------------------------------------------------------------------------

def classify_three_param(
    slab: SlabDistribution,
    alpha: float,
    beta: float,
    gamma: float,
    s: float,
    q: float,
    r: float,
) -> Verdict:
    """Membership in ``B^s_{inf,q}`` for ``tau_j^2 = C1 j^gamma 2^(-alpha j)``,
    ``pi_j = min(1, C2 2^(-beta j))`` with ``beta in [0, 1)``:
    `classify_general` on those schedules, relabelled.

    Only Gaussian and Laplace slabs are covered, so the general route's
    Gumbel cell decides: the level term behaves like
    ``j^(gamma/2 + 1/m) 2^(j (s + 1/2 - alpha/2))`` with the tail weight
    ``m`` (2 Gaussian, 1 Laplace).
    """
    for name, value in (("alpha", alpha), ("gamma", gamma)):
        if not math.isfinite(value):
            raise ConfigError(name, f"{name} must be finite, got {value}")
    if not 0.0 <= beta < 1.0:
        raise ConfigError("beta", f"beta must lie in [0, 1), got {beta}")
    bp = BesovParams(s=s, p=math.inf, q=q)
    _validate_smoothness(bp, r)
    if not isinstance(slab, (Gaussian, Laplace)):
        return _not_covered(
            "three-param/slab",
            f"three-param route covers Gaussian and Laplace slabs, not {type(slab).__name__}",
        )
    # halving a subnormal alpha or gamma may round, yet no verdict moves:
    # s > 0 keeps s + 1/2 - alpha/2 away from 0, and gamma/2 + 1/m stays
    # near 1/m, far above the bound it is tested against
    tau = LevelSchedule(1.0, alpha / 2, gamma / 2)
    v = classify_general(slab, tau, LevelSchedule(1.0, beta), bp, r)
    m = tail_class(slab).log_power
    return replace(v, case_id="three-param/gumbel", assumptions=(f"tail weight m={m:g}",))


# ---------------------------------------------------------------------------
# regression scaling: tau_j / sqrt(n), levels up to floor(log2 n) - 1
# ---------------------------------------------------------------------------

def classify_regression(
    slab: SlabDistribution,
    tau: LevelSchedule,
    pi: LevelSchedule,
    besov: BesovParams,
    r: float,
) -> Verdict:
    """Almost-sure membership in the large-n limit of the regression prior.

    The ``n^{-1/2}`` scale turns series criteria into limits of normalised
    partial sums: a level term ``j^G 2^(jE)`` summed to ``J ~ log2 n`` and
    multiplied by ``n^{-q/2}`` stays bounded iff ``E < q/2``, or
    ``E = q/2`` with ``G <= 0``.  For ``q = inf`` the criterion splits by
    tail class: Gumbel-type slabs keep the un-normalised supremum
    criterion, polynomial tails get the normalised one.  The pair is the
    infinite model's (`_level_exponent`), except for polynomial tails at
    ``p = inf``.
    """
    case = _schedule_case("regression", slab, tau, pi, besov, r)
    if isinstance(case, Verdict):
        return case
    case_id, note, E, G, frechet = case
    normalised = not math.isinf(besov.q)
    if frechet is not None:
        if normalised and Fraction(besov.q) >= Fraction(frechet.ell) + 1:
            return _not_covered(
                case_id,
                "regression-mode polynomial tail needs q < ell + 1; "
                f"got q={besov.q}, ell={frechet.ell}",
            )
        # level maxima scale with n_j itself, normalised at every q
        _, e_pi, g_pi = clamped_exponents(pi)
        E = Fraction(besov.s) + _HALF - Fraction(tau.e) - (1 - Fraction(e_pi))
        G = Fraction(tau.g) - Fraction(g_pi)
        normalised = True
    if normalised:
        E -= _HALF
    return _decide(sup_verdict(-E, G), case_id, _threshold(besov, E), (note,))


def no_spike_condition(
    slab: SlabDistribution, tau: LevelSchedule, besov: BesovParams, r: float
) -> Verdict:
    """Membership when every coefficient is nonzero (``pi_j = 1``).

    Delegates to ``classify_general`` with the constant-one probability
    schedule; with ``n_j = 2^j`` this lands in case 1 (finite p) or
    case 2 (p = inf).
    """
    inner = classify_general(slab, tau, LevelSchedule(1.0), besov, r)
    return replace(inner, case_id="no-spike/" + inner.case_id.split("/", 1)[1])


# ---------------------------------------------------------------------------
# membership classification for the continuous model
# ---------------------------------------------------------------------------

def classify_cwt(
    slab: SlabDistribution,
    alpha: float,
    beta: float,
    besov: BesovParams,
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
    is only covered for ``p < infinity``: `classify_general` on ``(tau, mu)``,
    its cases relabelled ``cwt/general-*``.  An increasing ``mu`` is a
    `ConfigError` at ``mu``.
    """
    if (mu is None) != (tau is None):
        missing = "tau" if tau is None else "mu"
        raise ConfigError(missing, "general classification needs both mu and tau (or neither)")
    for name, value in (("alpha", alpha), ("beta", beta), ("r", r), ("rho", rho)):
        if not math.isfinite(value):
            raise ConfigError(name, f"{name} must be finite, got {value}")
    r_rho = Fraction(r) + Fraction(rho)
    if not r_rho > (1 + Fraction(alpha)) / 2:
        return _not_covered(
            "cwt/kernel-regularity",
            "kernel bound needs r + rho > (1 + alpha)/2; "
            f"got {r + rho:g} <= {(1.0 + alpha) / 2.0:g}",
        )
    tc = tail_class(slab)
    if isinstance(tc, FrechetTail) and not tc.ell > 2 / (r_rho + _HALF):
        return _not_covered(
            "cwt/heavy-tail-gap",
            f"polynomial tail needs ell > 2/(r + rho + 1/2); got ell={tc.ell:g}",
        )
    kernel_note = f"kernel decay exponent r + rho + 1/2 = {r + rho + 0.5:g}"

    if mu is None:
        base = classify_simple(slab, alpha, beta, besov, r)
        return replace(
            base,
            case_id="cwt/" + base.case_id.split("/", 1)[1],
            assumptions=base.assumptions + (kernel_note,),
        )

    # general nonincreasing (mu, tau), read at dyadic scales a = 2^j
    if math.isinf(besov.p):
        return _not_covered(
            "cwt/general-p-inf",
            "general intensity families are only treated for p < infinity",
            assumptions=(kernel_note,),
        )
    if mu.c > 0 and (mu.e < 0 or (mu.e == 0 and mu.g > 0)):
        raise ConfigError("mu", f"mu must be nonincreasing, got e={mu.e}, g={mu.g}")
    # clamping pi at 1 leaves a nonincreasing mu's exponents, so its regime, unchanged
    v = classify_general(slab, tau, mu, besov, r)
    case = v.case_id.split("/", 1)[1]
    assumptions = (kernel_note, "general nonincreasing mu, tau at dyadic scales")
    if case == "case5":
        reason = "sum of 2^j mu(2^j) converges: finitely many atoms in total"
        return Verdict(Decision.MEMBER_AS, "cwt/general-summable", None, reason, assumptions)
    if case == "regime-gap":
        reason = "2^j mu(2^j) neither grows, settles, nor is summable"
        return _not_covered("cwt/general-regime-gap", reason, assumptions=assumptions)
    if case == "case4":
        reason = "q = infinity needs 2^j mu(2^j) increasing to infinity"
        return _not_covered("cwt/general-q-inf", reason, assumptions=assumptions)
    if not v.covered:  # the moment gate of case 1 (order p) or case 3 (order q)
        order = besov.p if case == "case1" else besov.q
        reason = f"slab lacks a finite moment of order {order:g}"
        return _not_covered("cwt/general-assumption-h", reason, assumptions=assumptions)
    return replace(v, case_id="cwt/general", assumptions=assumptions)
