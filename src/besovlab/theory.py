"""Almost-sure Besov membership classifiers for spike-and-slab priors.

Everything here is exact symbolic work on schedule exponents.  With
``tau_j = c_t j^{g_t} 2^{-e_t j}`` and ``pi_j`` clamped to [0, 1], every
criterion in the underlying theory reduces to convergence of a series
``sum_j j^G 2^{jE}`` or boundedness of the matching supremum, which is
decidable from ``(E, G)`` alone (see `schedules`).  Exponents are
``fractions.Fraction`` values of the float inputs, so a verdict is the
exact answer for those floats, also at a threshold; only the reported
threshold is rounded.

The classifier family:

* ``classify_simple``      dyadic two-exponent parametrisation
  (``tau_j^2 = C1 4^{-alpha j/2}``-style, ``pi_j = min(1, C2 2^{-beta j})``),
  implemented as its own explicit decision table so it can serve as an
  independent cross-check of ``classify_general``.
* ``classify_general``     arbitrary schedules, five cases split by the
  growth of the expected nonzero count ``n_j = 2^j pi_j``.
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
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .besov import BesovParams
from .distributions import (
    FrechetTail,
    Gaussian,
    GumbelTail,
    Laplace,
    SlabDistribution,
    absolute_moment,
    tail_class,
)
from .fields import ConfigError
from .schedules import (
    GrowthKind,
    LevelSchedule,
    SeriesVerdict,
    SupVerdict,
    clamped_exponents,
    growth_regime,
    series_verdict,
    sup_verdict,
)

__all__ = [
    "Decision",
    "Verdict",
    "classify_simple",
    "classify_general",
    "classify_three_param",
    "classify_regression",
    "no_spike_condition",
]


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


def _sup_finite(E: Fraction, G: Fraction) -> bool:
    """sup_j j^G 2^(jE) < inf"""
    return sup_verdict(-E, G) is SupVerdict.BOUNDED


def _lq_finite(E: Fraction, G: Fraction, q: float) -> bool:
    """sum_j (j^G 2^(jE))^q < inf; for ``q = inf`` the sup criterion."""
    if math.isinf(q):
        return _sup_finite(E, G)
    w = Fraction(q)
    return series_verdict(-w * E, w * G) is SeriesVerdict.CONVERGES


def _inv(x: float) -> Fraction:
    """Exact ``1/x`` of a float; ``1/inf`` reads as 0."""
    return Fraction(0) if math.isinf(x) else 1 / Fraction(x)


def _threshold(bp: BesovParams, E: Fraction) -> float:
    """The smoothness at which the tested exponent ``E`` vanishes.

    Every tested exponent is ``s`` plus terms free of ``s``, so the
    threshold is ``s - E``, rounded once.
    """
    return float(Fraction(bp.s) - E)


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
    The other regimes have no level exponent (None).
    """
    e_t = Fraction(tau.e)
    head = Fraction(bp.s) + _HALF - e_t
    inv_p = _inv(bp.p)
    if kind is GrowthKind.TENDS_TO_CONSTANT:
        return head - inv_p, Fraction(tau.g)
    if kind is not GrowthKind.INCREASES_TO_INFINITY:
        return None
    if not math.isinf(bp.p):
        weight, shift = inv_p, -Fraction(e_pi) * inv_p
    else:
        tc = tail_class(slab)
        if isinstance(tc, GumbelTail):
            return head, Fraction(tau.g) + _inv(tc.log_power)
        weight = _inv(tc.ell)
        shift = (1 - Fraction(e_pi)) * weight
    return head + shift, Fraction(tau.g) + Fraction(g_pi) * weight


def _has_moment(slab: SlabDistribution, order: float) -> bool:
    return absolute_moment(slab, order) < math.inf


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
# simple two-exponent parametrisation, straight from the decision table
# ---------------------------------------------------------------------------

def classify_simple(
    slab: SlabDistribution, alpha: float, beta: float, bp: BesovParams, r: float
) -> Verdict:
    """Membership for ``tau_j = sqrt(C1) 2^(-alpha j/2)``,
    ``pi_j = min(1, C2 2^(-beta j))``.

    The decision is a threshold on ``s``:

        T = (alpha - 1)/2 + beta/p - delta_H,

    where ``delta_H = (1 - beta)/ell`` for polynomial-tail slabs at
    ``p = inf`` and 0 otherwise.  Equality ``s = T`` is admitted only in
    the cell ``beta < 1, p < inf, q = inf``; at ``beta = 1, q = inf`` the
    threshold condition is only sufficient.
    """
    if alpha < 0 or beta < 0:
        raise ValueError(f"alpha and beta must be >= 0, got {alpha}, {beta}")
    if alpha == 0 and beta == 0:
        raise ValueError("alpha + beta must be positive (degenerate prior otherwise)")
    _validate_smoothness(bp, r)

    if beta > 1:
        return Verdict(
            Decision.MEMBER_AS,
            "simple/summable",
            assumptions=("sum_j 2^j pi_j < inf: finitely many nonzero coefficients",),
        )

    tc = tail_class(slab)
    frechet = isinstance(tc, FrechetTail)
    p_inf = math.isinf(bp.p)
    q_inf = math.isinf(bp.q)
    assumptions: list[str] = []

    if beta < 1:
        if not p_inf:
            if not _has_moment(slab, bp.p):
                return _not_covered(
                    "simple/assumption-h",
                    f"E|xi|^p is infinite for p={bp.p} under {type(slab).__name__}",
                )
            assumptions.append(f"E|xi|^{bp.p:g} < inf")
        elif frechet and not q_inf and bp.q >= tc.ell:
            return _not_covered(
                "simple/assumption-h",
                f"polynomial tail needs q < ell; got q={bp.q}, ell={tc.ell}",
            )
    else:  # beta == 1
        if not q_inf:
            if not _has_moment(slab, bp.q):
                return _not_covered(
                    "simple/assumption-h",
                    f"E|xi|^q is infinite for q={bp.q} under {type(slab).__name__}",
                )
            assumptions.append(f"E|xi|^{bp.q:g} < inf")
        else:
            assumptions.append("E log+ |xi| < inf")

    # s - T in exact arithmetic
    excess = Fraction(bp.s) + _HALF - Fraction(alpha) / 2 - Fraction(beta) * _inv(bp.p)
    if frechet and p_inf:
        excess += (1 - Fraction(beta)) * _inv(tc.ell)
    threshold = _threshold(bp, excess)

    if beta == 1.0 and q_inf:
        if excess < 0:
            return Verdict(
                Decision.SUFFICIENT_ONLY_MEMBER,
                "simple/n-const-q-inf",
                threshold,
                reason="threshold condition is sufficient only in this cell",
                assumptions=tuple(assumptions),
            )
        return _not_covered(
            "simple/n-const-q-inf",
            "above the sufficient threshold the theory is silent here",
            threshold,
        )

    if beta < 1.0 and not p_inf and q_inf:
        member = excess <= 0
    else:
        member = excess < 0
    cell = "simple/p-inf-frechet" if (frechet and p_inf) else (
        "simple/p-inf-gumbel" if p_inf else "simple/p-finite"
    )
    return _decide(member, cell, threshold, assumptions)


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
            order = -1.0 / tau.g
            return _decide(
                _has_moment(slab, order),
                case_id,
                threshold,
                (f"moment gate E|xi|^{order:g}",),
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
    regime = growth_regime(pi)
    if regime.kind is GrowthKind.NOT_COVERED:
        return _not_covered(f"{model}/regime-gap", regime.reason)
    if regime.kind is GrowthKind.SUMMABLE:
        return Verdict(
            Decision.MEMBER_AS,
            f"{model}/case5",
            assumptions=("sum_j 2^j pi_j < inf: finitely many nonzero coefficients",),
        )

    _, e_pi, g_pi = clamped_exponents(pi)
    E, G = _level_exponent(regime.kind, slab, tau, e_pi, g_pi, bp)
    if regime.kind is GrowthKind.TENDS_TO_CONSTANT:
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
    if not _has_moment(slab, order):
        return _not_covered(
            case_id, f"E|xi|^{name} infinite for {name}={order} under {type(slab).__name__}"
        )
    return case_id, f"E|xi|^{order:g} < inf", E, G, None


def classify_general(
    slab: SlabDistribution,
    tau: LevelSchedule,
    pi: LevelSchedule,
    bp: BesovParams,
    r: float,
) -> Verdict:
    """Membership under arbitrary schedule hyperparameters (infinite model).

    The level term behaves like ``j^G 2^(jE)`` (`_level_exponent`); the
    function is a member when ``sum_j (j^G 2^(jE))^q`` converges, or for
    ``q = inf`` when ``sup_j j^G 2^(jE)`` is finite.
    """
    case = _schedule_case("general", slab, tau, pi, bp, r)
    if isinstance(case, Verdict):
        return case
    case_id, note, E, G, frechet = case
    weight = bp.q
    if frechet is not None:
        if math.isinf(bp.q):
            # the a.s. supremum of c_j * Frechet(ell) variables is finite
            # exactly when sum c_j^ell converges (Borel-Cantelli both ways)
            weight = frechet.ell
        elif bp.q >= frechet.ell:
            return _not_covered(
                case_id, f"polynomial tail needs q < ell; got q={bp.q}, ell={frechet.ell}"
            )
    return _decide(_lq_finite(E, G, weight), case_id, _threshold(bp, E), (note,))


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
    ``pi_j = min(1, C2 2^(-beta j))`` with ``beta in [0, 1)``.

    Only Gaussian and Laplace slabs are covered.  With
    ``delta = s + 1/2 - alpha/2`` the function is a member iff
    ``delta < 0``, or ``delta = 0`` together with a ``gamma`` cutoff that
    separates the two tail weights (``m = 2`` Gaussian, ``m = 1`` Laplace):
    ``gamma < -2/q - 2/m`` for finite q, ``gamma <= -2/m`` at ``q = inf``.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    bp = BesovParams(s=s, p=math.inf, q=q)
    _validate_smoothness(bp, r)
    if not isinstance(slab, (Gaussian, Laplace)):
        return _not_covered(
            "three-param/slab",
            f"three-param route covers Gaussian and Laplace slabs, not {type(slab).__name__}",
        )
    m = 2.0 if isinstance(slab, Gaussian) else 1.0
    delta = Fraction(s) + _HALF - Fraction(alpha) / 2
    threshold = _threshold(bp, delta)
    if delta < 0:
        member = True
    elif delta == 0:
        cutoff = -2 / Fraction(m) - 2 * _inv(q)
        member = Fraction(gamma) <= cutoff if math.isinf(q) else Fraction(gamma) < cutoff
    else:
        member = False
    return _decide(member, "three-param/gumbel", threshold, (f"tail weight m={m:g}",))


# ---------------------------------------------------------------------------
# regression scaling: tau_j / sqrt(n), levels up to floor(log2 n) - 1
# ---------------------------------------------------------------------------

def classify_regression(
    slab: SlabDistribution,
    tau: LevelSchedule,
    pi: LevelSchedule,
    bp: BesovParams,
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
    case = _schedule_case("regression", slab, tau, pi, bp, r)
    if isinstance(case, Verdict):
        return case
    case_id, note, E, G, frechet = case
    normalised = not math.isinf(bp.q)
    if frechet is not None:
        if normalised and bp.q >= frechet.ell + 1.0:
            return _not_covered(
                case_id,
                "regression-mode polynomial tail needs q < ell + 1; "
                f"got q={bp.q}, ell={frechet.ell}",
            )
        # level maxima scale with n_j itself, normalised at every q
        _, e_pi, g_pi = clamped_exponents(pi)
        E = Fraction(bp.s) + _HALF - Fraction(tau.e) - (1 - Fraction(e_pi))
        G = Fraction(tau.g) - Fraction(g_pi)
        normalised = True
    if normalised:
        E -= _HALF
    return _decide(_sup_finite(E, G), case_id, _threshold(bp, E), (note,))


def no_spike_condition(
    slab: SlabDistribution, tau: LevelSchedule, bp: BesovParams, r: float
) -> Verdict:
    """Membership when every coefficient is nonzero (``pi_j = 1``).

    Delegates to ``classify_general`` with the constant-one probability
    schedule; with ``n_j = 2^j`` this lands in case 1 (finite p) or
    case 2 (p = inf).
    """
    inner = classify_general(slab, tau, LevelSchedule(1.0), bp, r)
    return replace(inner, case_id="no-spike/" + inner.case_id.split("/", 1)[1])
