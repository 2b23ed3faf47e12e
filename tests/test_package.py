"""The public surface: every exported name resolves."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import besovlab
from besovlab.cli import main

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



GAUSS = {"family": "gaussian", "sigma": 1.0}
B122 = {"s": 1.0, "p": 2.0, "q": 2.0}
SCHEDULES = {"tau": {"c": 1.0, "e": 1.0}, "pi": {"c": 1.0, "e": 0.5}}
# (command, config) of one classify point of each kind, and of a sweep; none needs numpy
SYMBOLIC_RUNS = {
    "simple": ("classify", {"kind": "simple", "slab": GAUSS, "alpha": 3.0, "beta": 0.5, "besov": B122,
                            "r": 3.0}),
    "general": ("classify", {"kind": "general", "slab": GAUSS, **SCHEDULES, "besov": B122, "r": 3.0}),
    "regression": ("classify", {"kind": "regression", "slab": {"family": "cauchy"}, **SCHEDULES,
                                "besov": B122, "r": 3.0}),
    "three_param": ("classify", {"kind": "three_param", "slab": GAUSS, "alpha": 2.0, "beta": 0.5,
                                 "gamma": 0.0, "s": 0.5, "q": 2.0, "r": 3.0}),
    "no_spike": ("classify", {"kind": "no_spike", "slab": GAUSS, "tau": SCHEDULES["tau"], "besov": B122,
                              "r": 3.0}),
    "cwt": ("classify", {"kind": "cwt", "slab": GAUSS, "alpha": 2.0, "beta": 0.5, "rho": 0.5, "besov": B122,
                         "r": 3.0}),
    "sweep": ("sweep", {
        "base": {"kind": "general", "slab": GAUSS, **SCHEDULES, "besov": B122, "r": 3.0},
        "vary": {"slab": [GAUSS, {"family": "student_t", "nu": 3.0}], "besov.p": [1.0, "inf"],
                 "pi.e": [0.5, 1.0]},
    }),
}
# runs each argument list in argv[1] (JSON) through the CLI with numpy unimportable
WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # an import of numpy now raises ImportError
from besovlab.cli import main
sys.exit(max(main(args) for args in json.loads(sys.argv[1])))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that imports this checkout's besovlab."""
    src = str(Path(besovlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_importing_the_cli_loads_no_numpy():
    done = _python("-c", "import sys, besovlab.cli; print(sorted(m for m in sys.modules if 'numpy' in m))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_classify_and_sweep_run_without_numpy(tmp_path):
    def argv(name, side):
        command, cfg = SYMBOLIC_RUNS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = [str(tmp_path / f"{side}-{name}.{ext}") for ext in ("json", "csv")]
        return [command, "--config", str(path), "--out", out[0], "--csv", out[1]]

    done = _python("-c", WITHOUT_NUMPY, json.dumps([argv(name, "without") for name in SYMBOLIC_RUNS]))
    assert (done.returncode, done.stderr) == (0, "")
    for name in SYMBOLIC_RUNS:
        assert main(argv(name, "with")) == 0
        for ext in ("json", "csv"):
            without, with_numpy = (tmp_path / f"{side}-{name}.{ext}" for side in ("without", "with"))
            assert without.read_bytes() == with_numpy.read_bytes()
