"""The public surface: every exported name resolves."""

import importlib

import pytest

MODULES = [
    "besovlab",
    "besovlab.besov",
    "besovlab.cwt",
    "besovlab.distributions",
    "besovlab.fields",
    "besovlab.lab",
    "besovlab.sampler",
    "besovlab.schedules",
    "besovlab.theory",
    "besovlab.wavelets",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
