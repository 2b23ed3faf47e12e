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

``E`` is ``s - T`` for a threshold ``T`` free of ``s``, so a verdict reads
``s`` only through its side of ``T``: the general and regression classifiers
cache one rule per prior, ``p`` and ``q`` (`_rule`), either a gate's Verdict
or the Verdicts below, at and above ``T``, and a point only compares its
exact ``s`` with ``T``.  A rule quotes key values as floats (`_num`), so
equal keys (``3`` and ``3.0``, ``0.0`` and ``-0.0``) share one rule.

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


def _num(x: float) -> float:
    """A key value as a rule quotes it: a float, ``-0.0`` read as 0.0 (a
    ``:g`` field already formats an int as its float)."""
    return float(x) + 0.0


def _inv(x: float) -> Fraction:
    """Exact ``1/x`` of a float; ``1/inf`` reads as 0."""
    return Fraction(0) if math.isinf(x) else 1 / Fraction(x)


def _level_offset(kind: GrowthKind, slab: SlabDistribution, tau: LevelSchedule, e_pi: float,
                  g_pi: float, p: float) -> tuple[Fraction, Fraction] | None:
    """Exact ``(E - s, G)`` with level term ``a_j ~ j^G 2^(jE)`` in the
    infinite model; ``E - s`` is free of ``s``.

    ``a_j = 2^(j s') ||level j||_p`` for the scale ``tau`` and expected
    counts ``n_j ~ j^g_pi 2^(j (1 - e_pi))`` growing in regime ``kind``.
    When the counts grow, a finite ``p`` sums ``n_j`` terms of size
    ``tau_j``; at ``p = inf`` the level maximum grows like
    ``(log n_j)^(1/m)`` for a Gumbel tail and like ``n_j^(1/ell)`` for a
    Frechet tail.  When they settle, a level holds finitely many terms.
    The other regimes have no level exponent (None).
    """
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

_Sides = tuple[Fraction, Verdict, Verdict, Verdict]


def _sides(case_id: str, note: str, T: Fraction, G: Fraction, weight: Fraction | None) -> _Sides:
    """The open case of a rule, ``(T, below, at, above)``: the level terms
    behave like ``j^G 2^(j(s - T))``, so ``s`` below ``T`` is a member and
    above it is not; at ``T`` a member when their ``weight``-th powers are
    summable, or for ``weight`` None when their supremum is finite."""
    threshold, assumptions = float(T), (note,)
    at = sup_verdict(0, G) if weight is None else series_verdict(0, weight * G)
    return T, *(_decide(member, case_id, threshold, assumptions) for member in (True, at, False))


def _case4_constant_q_inf(slab: SlabDistribution, tau: LevelSchedule, p: float, case_id: str,
                          T: Fraction) -> _Sides:
    """Shared case: n_j -> const, q = inf, as ``(T, below, at, above)``.

    Membership is controlled by ``M(j) = 1/(tau_j 2^(j s'))``, which grows
    like ``j^(-G) 2^(j(T - s))`` for the constant-regime pair: when M grows
    exponentially (``s < T``: ``tau_j`` decays faster than ``2^(-j s')``),
    a logarithmic moment suffices; when M grows polynomially (``s = T``,
    ``G = g_t < 0``) the criterion is the moment ``E|xi|^(-1/g_t) < inf``;
    otherwise M is not eventually increasing (``s = T``) or decreases
    (``s > T``) and no case applies.
    """
    threshold = float(T)
    if tau.g < 0:
        gate = (f"moment gate E|xi|^{-1.0 / tau.g:g}",)
        at = _decide(has_moment(slab, -1 / Fraction(tau.g)), case_id, threshold, gate)
    else:
        # s = T makes the float s float(T), so this is BesovParams.s_prime
        s_prime = threshold + 0.5 - (0.0 if math.isinf(p) else 1.0 / p)
        reason = ("normalising sequence M(j) is not eventually increasing "
                  f"(tau exponents e={_num(tau.e)}, g={_num(tau.g)} against s'={s_prime})")
        at = _not_covered(case_id, reason, threshold)
    decreases = ("normalising sequence M(j) decreases; the q=inf constant-count case "
                 "needs tau_j to decay at least like 2^(-j s')")
    below = _decide(True, case_id, threshold, ("E log+ |xi| < inf",))
    return T, below, at, _not_covered(case_id, decreases, threshold)


@functools.lru_cache(maxsize=4096)
def _rule(model: str, slab: SlabDistribution, tau: LevelSchedule, pi: LevelSchedule, p: float,
          q: float) -> Verdict | _Sides:
    """The ``s``-free rule of a prior in the infinite (``model`` "general")
    or regression model: the five cases split on the growth of
    ``n_j = 2^j pi_j``, with the case ids prefixed by ``model``.

    Returns the Verdict of the gate that decides (regime gap, case 5, the
    moment gates of cases 3 and 1, the polynomial-tail gates of case 2,
    case 2's Gumbel auxiliary condition), or else the open case as its
    threshold and its three Verdicts, ``(T, below, at, above)`` (`_sides`).
    In the regression model every open case is a supremum
    (`classify_regression`).  Its text quotes key values through `_num`,
    so equal keys share one rule.
    """
    kind = growth_regime(pi)
    _, e_pi, g_pi = clamped_exponents(pi)
    if kind is GrowthKind.NOT_COVERED:
        reason = (f"expected counts n_j tend to 0 while sum n_j diverges (e={_num(e_pi)}, "
                  f"g={_num(g_pi)}); no theory case applies")
        return _not_covered(f"{model}/regime-gap", reason)
    if kind is GrowthKind.SUMMABLE:
        return Verdict(
            Decision.MEMBER_AS,
            f"{model}/case5",
            assumptions=("sum_j 2^j pi_j < inf: finitely many nonzero coefficients",),
        )

    offset, G = _level_offset(kind, slab, tau, e_pi, g_pi, p)
    constant = kind is GrowthKind.TENDS_TO_CONSTANT
    if constant and math.isinf(q):
        return _case4_constant_q_inf(slab, tau, p, f"{model}/case4", -offset)
    if constant or not math.isinf(p):
        # case 3, or case 1: l_p sums concentrate by the random-length LLN
        case_id, name, order = (f"{model}/case3", "q", q) if constant else (f"{model}/case1", "p", p)
        if not has_moment(slab, order):
            reason = f"E|xi|^{name} infinite for {name}={_num(order)} under {type(slab).__name__}"
            return _not_covered(case_id, reason)
        note = f"E|xi|^{order:g} < inf"
    else:
        # case 2: p = inf, level maxima under EVT normalisation
        tc = tail_class(slab)
        if isinstance(tc, FrechetTail):
            case_id, note = f"{model}/case2-frechet", f"Frechet tail with index ell={tc.ell:g}"
            got = f"got q={_num(q)}, ell={_num(tc.ell)}"
            if model == "regression":
                if not math.isinf(q) and Fraction(q) >= Fraction(tc.ell) + 1:
                    reason = f"regression-mode polynomial tail needs q < ell + 1; {got}"
                    return _not_covered(case_id, reason)
                # level maxima scale with n_j itself, normalised at every q
                return _sides(case_id, note, Fraction(tau.e) + 1 - Fraction(e_pi),
                              Fraction(tau.g) - Fraction(g_pi), None)
            if math.isinf(q):
                # the a.s. supremum of c_j * Frechet(ell) variables is finite
                # exactly when sum c_j^ell converges (Borel-Cantelli both ways)
                return _sides(case_id, note, -offset, G, Fraction(tc.ell))
            if q >= tc.ell:
                return _not_covered(case_id, f"polynomial tail needs q < ell; {got}")
        elif e_pi == 1.0 and g_pi > 0:
            return _not_covered(
                f"{model}/case2-gumbel",
                "auxiliary Gumbel condition fails: n_j grows only polynomially, "
                "so g(b_j) log j / b_j does not vanish",
            )
        else:
            case_id, note = f"{model}/case2-gumbel", f"Gumbel tail, b_j ~ (log n_j)^(1/{tc.log_power:g})"
    if math.isinf(q):
        # a supremum; in the regression model Gumbel-type slabs keep the un-normalised one
        return _sides(case_id, note, -offset, G, None)
    if model == "regression":
        # partial sums normalised by n^(-q/2): the threshold moves up by 1/2, and a supremum decides
        return _sides(case_id, note, _HALF - offset, G, None)
    return _sides(case_id, note, -offset, G, Fraction(q))


def _classify(model: str, slab: SlabDistribution, tau: LevelSchedule, pi: LevelSchedule, bp: BesovParams,
              r: float) -> Verdict:
    """The Verdict of ``bp.s`` under the prior's `_rule`: its gate, or the
    cached Verdict for the side of the threshold ``s`` is on."""
    _validate_smoothness(bp, r)
    rule = _rule(model, slab, tau, pi, bp.p, bp.q)
    if isinstance(rule, Verdict):
        return rule
    T, below, at, above = rule
    s = Fraction(bp.s)
    return at if s == T else below if s < T else above


def classify_general(
    slab: SlabDistribution,
    tau: LevelSchedule,
    pi: LevelSchedule,
    besov: BesovParams,
    r: float,
) -> Verdict:
    """Membership under arbitrary schedule hyperparameters (infinite model).

    The level term behaves like ``j^G 2^(jE)`` (`_level_offset`); the
    function is a member when ``sum_j (j^G 2^(jE))^q`` converges, or for
    ``q = inf`` when ``sup_j j^G 2^(jE)`` is finite.
    """
    return _classify("general", slab, tau, pi, besov, r)


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
    infinite model's (`_level_offset`), except for polynomial tails at
    ``p = inf``.
    """
    return _classify("regression", slab, tau, pi, besov, r)


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
    _validate_smoothness(besov, r)
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
