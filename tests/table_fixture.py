"""Hand-pinned decision-table fixture for the dyadic two-exponent prior.

Each row freezes the expected classifier verdict for one parameter point.  The rows
cover all four tail regimes (Gaussian / Laplace / power-exponential
Gumbel-type tails, Student-t / Cauchy polynomial tails), both boundary
conventions (cells that admit ``s = threshold`` and cells that do not),
the sufficient-only cell at ``beta = 1, q = inf``, the moment-assumption
gates, and the summable regime ``beta > 1``.

``s_spec`` is either a float (absolute smoothness) or a pair
``("at" | "below" | "above", offset)`` resolved against the oracle's
threshold so boundary rows are float-exact.

`simple_table` is a hand-written decision table for the same family.  The
shipped ``classify_simple`` relabels ``classify_general``; the table does
not go through that case split, so cross-checks against it compare two
independent routes.  `three_param_formula` plays the same part for
``classify_three_param``: the closed form that classifier once stated
itself, in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from besovlab.besov import BesovParams
from besovlab.distributions import (
    Cauchy,
    FrechetTail,
    Gaussian,
    Laplace,
    PowerExponential,
    SlabDistribution,
    StudentT,
    has_moment,
    tail_class,
)
from besovlab.fields import ConfigError
from besovlab.theory import (
    _HALF,
    Decision,
    Verdict,
    _decide,
    _inv,
    _not_covered,
    _threshold,
    _validate_smoothness,
    classify_simple,
)

INF = math.inf


@dataclass(frozen=True)
class TableRow:
    label: str
    slab: object
    alpha: float
    beta: float
    p: float
    q: float
    s_spec: object
    decision: str
    threshold: float | None  # None = no threshold expected (gate / summable)


ROWS = [
    # --- Gaussian slab (Gumbel tail, m = 2) -------------------------------
    TableRow("gauss interior member", Gaussian(1.0), 3, 0.5, 2, 2, 1.0, "MemberAS", 1.25),
    TableRow("gauss q<inf strict boundary", Gaussian(1.0), 3, 0.5, 2, 2, ("at", 0.0), "NotMemberAS", 1.25),
    TableRow("gauss q=inf admits equality", Gaussian(1.0), 3, 0.5, 2, INF, ("at", 0.0), "MemberAS", 1.25),
    TableRow("gauss q=inf just above", Gaussian(1.0), 3, 0.5, 2, INF, ("above", 1e-7), "NotMemberAS", 1.25),
    TableRow("gauss p=inf member", Gaussian(1.0), 3, 0.5, INF, 2, 0.9, "MemberAS", 1.0),
    TableRow("gauss p=inf strict", Gaussian(1.0), 3, 0.5, INF, 2, ("at", 0.0), "NotMemberAS", 1.0),
    TableRow("gauss p=inf q=inf member", Gaussian(1.0), 3, 0.5, INF, INF, 0.999, "MemberAS", 1.0),
    TableRow("gauss p=inf q=inf strict", Gaussian(1.0), 3, 0.5, INF, INF, ("at", 0.0), "NotMemberAS", 1.0),
    TableRow("gauss beta=1 member", Gaussian(1.0), 3, 1.0, 2, 2, 1.49, "MemberAS", 1.5),
    TableRow("gauss beta=1 strict", Gaussian(1.0), 3, 1.0, 2, 2, ("at", 0.0), "NotMemberAS", 1.5),
    TableRow("gauss beta=1 q=inf sufficient", Gaussian(1.0), 3, 1.0, 2, INF, 1.49, "SufficientOnlyMember", 1.5),
    TableRow("gauss beta=1 q=inf silent above", Gaussian(1.0), 3, 1.0, 2, INF, ("at", 0.0), "NotCovered", 1.5),
    TableRow("gauss summable", Gaussian(1.0), 3, 1.2, 2, 2, 2.9, "MemberAS", None),
    TableRow("gauss negative threshold", Gaussian(1.0), 0.5, 0.75, 4, 1, 0.5, "NotMemberAS", -0.0625),

    # --- Laplace slab (Gumbel tail, m = 1): same thresholds as Gaussian ---
    TableRow("laplace interior member", Laplace(1.0), 3, 0.5, 2, 2, 1.0, "MemberAS", 1.25),
    TableRow("laplace q<inf strict boundary", Laplace(1.0), 3, 0.5, 2, 2, ("at", 0.0), "NotMemberAS", 1.25),
    TableRow("laplace q=inf admits equality", Laplace(1.0), 3, 0.5, 2, INF, ("at", 0.0), "MemberAS", 1.25),
    TableRow("laplace p=inf q=inf member", Laplace(1.0), 2, 0.0, INF, INF, 0.49, "MemberAS", 0.5),
    TableRow("laplace p=inf q=inf strict", Laplace(1.0), 2, 0.0, INF, INF, ("at", 0.0), "NotMemberAS", 0.5),
    TableRow("laplace beta=1 p=inf q<inf", Laplace(1.0), 2, 1.0, INF, 3, 0.49, "MemberAS", 0.5),
    TableRow("laplace beta=1 q=inf sufficient", Laplace(1.0), 2, 1.0, 2, INF, 0.99, "SufficientOnlyMember", 1.0),
    TableRow("laplace summable", Laplace(1.0), 1, 1.5, 3, 1, 0.7, "MemberAS", None),

    # --- Power-exponential slabs (Gumbel tail, general m) -----------------
    TableRow("powexp m=3 q=inf equality", PowerExponential(3.0), 3, 0.5, 2, INF, ("at", 0.0), "MemberAS", 1.25),
    TableRow("powexp m=3 p=inf member", PowerExponential(3.0), 3, 0.5, INF, 5, 0.99, "MemberAS", 1.0),
    TableRow("powexp m=3 p=inf strict", PowerExponential(3.0), 3, 0.5, INF, 5, ("at", 0.0), "NotMemberAS", 1.0),
    TableRow("powexp m=0.5 member", PowerExponential(0.5, 2.0), 1.5, 0.8, 4, 2, 0.44, "MemberAS", 0.45),
    TableRow("powexp m=0.5 strict", PowerExponential(0.5, 2.0), 1.5, 0.8, 4, 2, ("at", 0.0), "NotMemberAS", 0.45),

    # --- Student-t slab (Frechet tail, ell = nu) --------------------------
    TableRow("t3 p=inf notmember", StudentT(3.0), 3, 0.5, INF, 1, 1.0, "NotMemberAS", 1.0 - 0.5 / 3),
    TableRow("t3 p=inf member", StudentT(3.0), 3, 0.5, INF, 1, 0.8, "MemberAS", 1.0 - 0.5 / 3),
    TableRow("t3 p=inf q=ell gate", StudentT(3.0), 3, 0.5, INF, 3, 0.8, "NotCovered", None),
    TableRow("t3 p=inf q=inf member", StudentT(3.0), 3, 0.5, INF, INF, 0.8, "MemberAS", 1.0 - 0.5 / 3),
    TableRow("t3 p=inf q=inf strict", StudentT(3.0), 3, 0.5, INF, INF, ("at", 0.0), "NotMemberAS", 1.0 - 0.5 / 3),
    TableRow("t3 p<nu member", StudentT(3.0), 3, 0.5, 2, 2, 1.0, "MemberAS", 1.25),
    TableRow("t3 p>=nu moment gate", StudentT(3.0), 3, 0.5, 4, 2, 0.8, "NotCovered", None),
    TableRow("t3 p<nu q=inf equality", StudentT(3.0), 3, 0.5, 2, INF, ("at", 0.0), "MemberAS", 1.25),
    TableRow("t3 beta=1 q<nu member", StudentT(3.0), 3, 1.0, 2, 2, 1.4, "MemberAS", 1.5),
    TableRow("t3 beta=1 q>=nu gate", StudentT(3.0), 3, 1.0, 2, 4, 1.4, "NotCovered", None),
    TableRow("t3 beta=1 p=inf member", StudentT(3.0), 3, 1.0, INF, 2, 0.99, "MemberAS", 1.0),
    TableRow("t3 beta=1 q=inf sufficient", StudentT(3.0), 3, 1.0, 4, INF, 1.12, "SufficientOnlyMember", 1.25),
    TableRow("t3 beta=1 p=inf q=inf sufficient", StudentT(3.0), 3, 1.0, INF, INF, 0.9, "SufficientOnlyMember", 1.0),

    # --- Cauchy slab (Frechet tail, ell = 1) ------------------------------
    TableRow("cauchy p=inf q=inf member", Cauchy(), 3, 0.5, INF, INF, 0.49, "MemberAS", 0.5),
    TableRow("cauchy p=inf q=inf strict", Cauchy(), 3, 0.5, INF, INF, ("at", 0.0), "NotMemberAS", 0.5),
    TableRow("cauchy q<ell impossible", Cauchy(), 3, 0.5, INF, 1, 0.4, "NotCovered", None),
    TableRow("cauchy p<inf moment gate", Cauchy(), 3, 0.5, 2, 2, 0.4, "NotCovered", None),
    TableRow("cauchy beta=1 q=inf sufficient", Cauchy(), 4, 1.0, INF, INF, 1.4, "SufficientOnlyMember", 1.5),
    TableRow("cauchy beta=1 q<inf gate", Cauchy(), 4, 1.0, INF, 2, 1.4, "NotCovered", None),
    TableRow("cauchy summable", Cauchy(), 2, 1.5, 2, 2, 0.4, "MemberAS", None),
    TableRow("cauchy heavier-tail shift", Cauchy(), 2, 0.9, INF, INF, 0.39, "MemberAS", 0.5 - (1.0 - 0.9)),
    TableRow("cauchy heavier-tail boundary", Cauchy(), 2, 0.9, INF, INF, ("at", 0.0), "NotMemberAS", 0.5 - (1.0 - 0.9)),
]

R_DEFAULT = 3.0


def simple_table(
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
    if alpha < 0:
        raise ConfigError("alpha", f"alpha must be >= 0, got {alpha}")
    if beta < 0:
        raise ConfigError("beta", f"beta must be >= 0, got {beta}")
    if alpha == 0 and beta == 0:
        raise ConfigError("alpha", "alpha + beta must be positive (degenerate prior otherwise)")
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
            if not has_moment(slab, bp.p):
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
            if not has_moment(slab, bp.q):
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


def three_param_formula(
    slab: SlabDistribution, alpha: float, gamma: float, s: float, q: float
) -> Verdict:
    """``classify_three_param`` for a Gaussian or Laplace slab with valid
    inputs, by its closed form.

    With ``delta = s + 1/2 - alpha/2`` and the tail weight ``m`` (2 Gaussian,
    1 Laplace) the function is a member iff ``delta < 0``, or ``delta = 0``
    together with ``gamma < -2/q - 2/m`` for finite q, ``gamma <= -2/m`` at
    ``q = inf``.  The threshold is ``(alpha - 1)/2``, rounded once.
    """
    m = tail_class(slab).log_power
    delta = Fraction(s) + _HALF - Fraction(alpha) / 2
    if delta:
        member = delta < 0
    elif math.isinf(q):
        member = Fraction(gamma) <= -2 / Fraction(m)
    else:
        member = Fraction(gamma) < -2 / Fraction(m) - 2 / Fraction(q)
    threshold = float(Fraction(alpha) / 2 - _HALF)
    return _decide(member, "three-param/gumbel", threshold, (f"tail weight m={m:g}",))


def resolve_s(row: TableRow, r: float = R_DEFAULT) -> float:
    """Turn an ``s_spec`` into a concrete smoothness value.

    Boundary specs are resolved against the oracle's threshold, which the
    shipped classifier must share, so that ``("at", 0.0)`` lands exactly on
    the float both compare against.
    """
    if isinstance(row.s_spec, tuple):
        kind, offset = row.s_spec
        probe = simple_table(
            row.slab, row.alpha, row.beta, BesovParams(0.01, row.p, row.q), r
        )
        assert probe.threshold is not None, f"{row.label}: no threshold to anchor on"
        base = probe.threshold
        if kind == "at":
            return base
        if kind == "below":
            return base - offset
        if kind == "above":
            return base + offset
        raise AssertionError(f"bad s_spec kind {kind!r}")
    return float(row.s_spec)


def run_row(row: TableRow, r: float = R_DEFAULT) -> Verdict:
    s = resolve_s(row, r)
    return classify_simple(row.slab, row.alpha, row.beta, BesovParams(s, row.p, row.q), r)
