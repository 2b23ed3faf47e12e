"""Spike-and-slab priors on wavelet coefficients: samplers, Besov sequence
norms, membership classifiers, and Monte Carlo checks of the predicted
rates, plus a continuous (scale-space Poisson) variant projected onto an
orthogonal wavelet basis."""

from .besov import BesovParams, besov_seq_norm
from .distributions import (
    Cauchy,
    FrechetTail,
    Gaussian,
    GumbelTail,
    Laplace,
    PowerExponential,
    StudentT,
)
from .sampler import (
    CoefficientTree,
    Infinite,
    Level,
    PriorSpec,
    Regression,
    sample_tree,
    tree_from_dict,
    tree_to_dict,
)
from .schedules import LevelSchedule
from .theory import Decision, Verdict, classify_general, classify_simple

__all__ = [
    "BesovParams",
    "Cauchy",
    "CoefficientTree",
    "Decision",
    "FrechetTail",
    "Gaussian",
    "GumbelTail",
    "Infinite",
    "Laplace",
    "Level",
    "LevelSchedule",
    "PowerExponential",
    "PriorSpec",
    "Regression",
    "StudentT",
    "Verdict",
    "besov_seq_norm",
    "classify_general",
    "classify_simple",
    "sample_tree",
    "tree_from_dict",
    "tree_to_dict",
]

__version__ = "0.1.0"
