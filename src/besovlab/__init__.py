"""Spike-and-slab priors on wavelet coefficients: samplers, Besov sequence
norms, membership classifiers, and Monte Carlo checks of the predicted
rates, plus a continuous (scale-space Poisson) variant projected onto an
orthogonal wavelet basis.

Each export is imported from its module when first asked for (PEP 562), so
importing the package loads no numpy."""

import importlib

# exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(["BesovParams", "Decision", "Verdict", "classify_general", "classify_simple"], "theory"),
    **dict.fromkeys(["Infinite", "LevelSchedule", "Regression"], "schedules"),
    **dict.fromkeys(["Cauchy", "FrechetTail", "Gaussian", "GumbelTail", "Laplace", "PowerExponential",
                     "StudentT"], "distributions"),
    **dict.fromkeys(["CoefficientTree", "Level", "PriorSpec", "sample_tree", "tree_from_dict",
                     "tree_to_dict"], "sampler"),
    "besov_seq_norm": "besov",
}
__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
