"""End-to-end tests of the command line front end."""

import contextlib
import csv
import functools
import hashlib
import inspect
import io
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besovlab import besov, cwt, distributions, lab, sampler, schedules, theory, wavelets
from besovlab.cli import _CLASSIFY, _TAG_OF, _build_parser, _classify_point, _echo, _encode, _fmt_cell
from besovlab.cli import _read, _set_dotted, _tagged, _write_csv, main
from besovlab.fields import ConfigError, Doc, block, known, under

GAUSS = {"family": "gaussian", "sigma": 1.0}
B122 = {"s": 1.0, "p": 2.0, "q": 2.0}
# a prior sparse enough for the draw-size guard at any level up to 70
SPARSE_DEEP = {"slab": GAUSS, "tau": {"c": 1.0}, "pi": {"c": 1e-25}}
CWT_SPEC = {
    "c_mu": 3.0,
    "beta": 0.5,
    "c_tau": 1.0,
    "alpha": 1.0,
    "slab": GAUSS,
    "a0": 1.0,
    "a_max": 16.0,
}
TINY_TREE = {"j0": 0, "scaling": [1.0], "levels": [{"j": 0, "k": [0], "w": [0.5]}]}
KERNEL = {"family": "daub4", "v_count": 17, "depth": 8}
POINT = {"slab": GAUSS, "alpha": 2.0, "beta": 0.5, "besov": B122, "r": 3.0}
SAMPLE = {
    "slab": GAUSS,
    "tau": {"c": 1.0, "e": 1.5},
    "pi": {"c": 1.0, "e": 0.5},
    "j0": 2,
    "mode": {"kind": "regression", "n": 256},
    "seed": 4,
}
# one small config per subcommand that has a config to replay, keyed by the
# subcommand, or by ``<subcommand>/<variant>`` for a further one
ECHO_CASES = {
    "classify": POINT,
    "classify/student_t": {**POINT, "slab": {"family": "student_t", "nu": 3.0}},
    "classify/cauchy": {**POINT, "slab": {"family": "cauchy"}},
    "classify/power_exponential": {
        **POINT,
        "slab": {"family": "power_exponential", "m": 1.5, "lam": 2.0},
    },
    "sample": SAMPLE,
    "sample/scaling": {**SAMPLE, "scaling": [1.0, -0.5, 0.25, 0.0]},
    "verify": {
        "slab": GAUSS,
        "tau": {"c": 1.0, "e": 1.5},
        "pi": {"c": 1.0, "e": 0.5},
        "besov": B122,
        "levels": {"start": 4, "stop": 6},
        "reps": 4,
        "check": "membership",
    },
    "verify/slope": {
        "slab": GAUSS,
        "tau": {"c": 1.0, "e": 1.5},
        "pi": {"c": 1.0, "e": 0.5},
        "besov": B122,
        "levels": [4, 6],
        "mode": {"kind": "regression", "n": 256},
        "reps": 4,
        "check": "slope",
    },
    "lln": {"slab": GAUSS, "pi": {"c": 1.0, "e": 0.5}, "m": 2.0, "levels": [4, 5], "reps": 3},
    "evt": {"slab": {"family": "laplace", "lam": 1.0}, "pi": {"c": 1.0}, "levels": [5, 6], "reps": 3},
    "cwt-sample": {
        "spec": CWT_SPEC,
        "seed": 2,
        "project": {"family": "daub4", "j0": 1, "top": 3},
    },
    "cwt-verify": {
        **KERNEL,
        "moment": {"spec": CWT_SPEC, "m": 2.0, "levels": [2, 3], "reps": 3},
    },
    "cwt-verify/u_grid": {**KERNEL, "u_grid": [0.015625, 0.5, 2.0, 64.0]},
}
# one config for every subcommand
REPORT_CASES = {
    **ECHO_CASES,
    "sweep": {
        "base": {"slab": GAUSS, "alpha": 2.0, "besov": B122, "r": 3.0},
        "vary": {"beta": [0.25, 0.5]},
    },
    "norm": {"besov": B122, "tree": TINY_TREE},
    "synth": {"family": "haar", "grid_exponent": 4, "tree": TINY_TREE},
}
# the flags each subcommand offers besides --config, --set and --out: those it reads
COMMAND_FLAGS = {
    "classify": {"--strict", "--csv"},
    "sweep": {"--strict", "--csv"},
    "sample": {"--seed", "--csv"},
    "norm": {"--tree"},
    "verify": {"--seed", "--reps", "--threads", "--strict", "--csv"},
    "lln": {"--seed", "--reps", "--threads", "--csv"},
    "evt": {"--seed", "--reps", "--threads", "--csv"},
    "synth": {"--csv", "--tree"},
    "cwt-sample": {"--seed", "--csv"},
    "cwt-verify": {"--threads", "--csv"},
}
# each of those flags and the values it is given (file names are relative to the run's directory)
FLAG_VALUES = {
    "--seed": ["3"],
    "--reps": ["3"],
    "--threads": ["2"],
    "--strict": [],
    "--csv": ["flag.csv"],
    "--tree": ["tree.json"],
}
THREE_PARAM = {
    "kind": "three_param",
    "slab": GAUSS,
    "alpha": 2.0,
    "beta": 0.5,
    "gamma": 0.0,
    "s": 0.5,
    "q": 2.0,
    "r": 3.0,
}
GENERAL = {**POINT, "kind": "general", "tau": {"c": 1.0}, "pi": {"c": 1.0}}
CWT_POINT = {**POINT, "kind": "cwt", "rho": 0.5}
GENERAL_POINT = {"kind": "general", "slab": GAUSS, "tau": {"c": 1.0, "e": 1.0}, "pi": {"c": 1.0, "e": 0.5},
                 "besov": B122, "r": 3.0}
# one point of each classify kind that gives every parameter of its classifier
KIND_POINTS = {
    "simple": {**POINT, "kind": "simple"},
    "general": GENERAL_POINT,
    "three_param": THREE_PARAM,
    "regression": {**GENERAL_POINT, "kind": "regression"},
    "no_spike": {"kind": "no_spike", "slab": GAUSS, "tau": {"c": 1.0, "e": 1.0}, "besov": B122, "r": 3.0},
    "cwt": {**CWT_POINT, "mu": {"c": 2.0, "e": 0.5}, "tau": {"c": 1.0}},
}
# a tree with a level above 0, where 2^(j s') can overflow
TWO_LEVEL_TREE = {
    "j0": 0,
    "scaling": [1.0],
    "levels": [{"j": 0, "k": [0], "w": [0.5]}, {"j": 1, "k": [1], "w": [0.25]}],
}
VERIFY = ECHO_CASES["verify"]
PROJECT = ECHO_CASES["cwt-sample"]["project"]
# a slab and a tree level that hold a key no reader reads
STRAY_SLAB = {**GAUSS, "sgima": 2.0}
STRAY_LEVEL_TREE = {**TINY_TREE, "levels": [{"j": 0, "k": [0], "w": [0.5], "n": 1}]}
SWEEP_BASE = {"slab": GAUSS, "alpha": 2.0, "besov": B122, "r": 3.0}
# a largest mark scale sqrt(c_tau) a0^(-alpha/2) of 10^600
HUGE_MARK_SPEC = {**CWT_SPEC, "alpha": 4.0, "a0": 1e-300, "a_max": 1e-299}
# a largest mark scale of 10^307, and about 140 atoms with Cauchy marks
OVERFLOWING_MARK_SPEC = {
    **CWT_SPEC,
    "c_mu": 1e155,
    "alpha": 2.0,
    "slab": {"family": "cauchy"},
    "a0": 1e-307,
    "a_max": 1e-306,
}
# a mean atom count c_mu (a_max^-2 - a0^-2) / -2 past the float range
HUGE_COUNT_SPEC = {**CWT_SPEC, "c_mu": 1.0, "beta": 3.0, "a0": 1e-300, "a_max": 1.0}
# a slab whose draws numpy returns as inf about one time in fourteen, without a
# floating-point error
HUGE_GAUSS = {"family": "gaussian", "sigma": 1e308}


SYNTH = REPORT_CASES["synth"]


def tree_with(w=0.75, scaling=1.0):
    """A two-level tree whose second level holds ``w`` at its second position."""
    levels = [{"j": 0, "k": [0], "w": [0.5]}, {"j": 1, "k": [0, 1], "w": [0.25, w]}]
    return {"j0": 0, "scaling": [scaling], "levels": levels}


def with_moment(**fields):
    """The cwt-verify case with ``fields`` replaced in its moment block."""
    case = ECHO_CASES["cwt-verify"]
    return {**case, "moment": {**case["moment"], **fields}}


def command_of(case):
    """The subcommand of an `ECHO_CASES` or `REPORT_CASES` key."""
    return case.partition("/")[0]


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which JSON does not have."""

    def refuse(name):
        raise ValueError(f"non-finite number {name} in the report")

    return json.loads(text, parse_constant=refuse)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1]) as fh:
            return json.load(fh)
    return json.loads(out)


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestClassify:
    def test_single_point_via_set(self, capsys):
        report = run_json(
            capsys,
            "classify",
            "--set",
            f"slab={json.dumps(GAUSS)}",
            "--set",
            "alpha=2.0",
            "--set",
            "beta=0.5",
            "--set",
            'besov={"s":0.3,"p":2.0,"q":2.0}',
            "--set",
            "r=3.0",
        )
        verdict = report["result"]["verdicts"][0]["verdict"]
        assert verdict["decision"] == "MemberAS"
        assert verdict["threshold"] == pytest.approx(0.75)
        assert report["config"]["kind"] == "simple"

    @pytest.mark.parametrize(
        "point",
        [
            # every Gaussian moment is finite, also where E|xi|^p leaves the float range
            {**POINT, "slab": {**GAUSS, "sigma": 10.0}, "alpha": 3.0, "besov": {**B122, "p": 200.0}},
            {**POINT, "alpha": 3.0, "besov": {**B122, "p": 400.0}},
            # case 4's moment order -1/g_t = 1/0.3 lies exactly below nu, which it rounds to
            {
                "kind": "general",
                "slab": {"family": "student_t", "nu": 3.3333333333333335},
                "tau": {"c": 1.0, "e": 0.5, "g": -0.3},
                "pi": {"c": 1.0, "e": 1.0},
                "besov": {"s": 0.5, "p": 2.0, "q": "inf"},
                "r": 3.0,
            },
        ],
        ids=["gaussian-moment-overflows", "gaussian-gamma-overflows", "case4-order-below-nu"],
    )
    def test_moment_gate_reads_the_tail_index(self, capsys, tmp_path, point):
        report = run_json(capsys, "classify", "--config", write_cfg(tmp_path, point))
        assert report["result"]["verdicts"][0]["verdict"]["decision"] == "MemberAS"

    def test_regression_tail_gate_decided_exactly(self, capsys, tmp_path):
        # q < ell + 1 exactly, though ell + 1 rounds down to q
        point = {
            "kind": "regression",
            "slab": {"family": "student_t", "nu": 1.7049084564785606},
            "tau": {"c": 1.0, "e": 1.5},
            "pi": {"c": 1.0, "e": 0.5},
            "besov": {"s": 0.5, "p": "inf", "q": 2.7049084564785604},
            "r": 3.0,
        }
        report = run_json(capsys, "classify", "--config", write_cfg(tmp_path, point))
        assert report["result"]["verdicts"][0]["verdict"]["decision"] == "MemberAS"

    def test_points_list_and_csv(self, capsys, tmp_path):
        cfg = {
            "points": [
                {"slab": GAUSS, "alpha": 2.0, "beta": 0.5, "besov": B122, "r": 3.0},
                {
                    "kind": "general",
                    "slab": GAUSS,
                    "tau": {"c": 1.0, "e": 1.5},
                    "pi": {"c": 1.0, "e": 1.0, "g": -0.5},
                    "besov": B122,
                    "r": 3.0,
                },
            ]
        }
        out_csv = tmp_path / "points.csv"
        report = run_json(
            capsys, "classify", "--config", write_cfg(tmp_path, cfg), "--csv", str(out_csv)
        )
        verdicts = [v["verdict"]["decision"] for v in report["result"]["verdicts"]]
        assert verdicts[1] == "NotCovered"
        header, rows = read_csv(out_csv)
        assert header == ["index", "kind", "decision", "case_id", "threshold"]
        assert len(rows) == 2
        assert rows[1][2] == "NotCovered"

    def test_strict_flag_turns_not_covered_into_exit_3(self, capsys, tmp_path):
        cfg = {
            "kind": "general",
            "slab": GAUSS,
            "tau": {"c": 1.0, "e": 1.5},
            "pi": {"c": 1.0, "e": 1.0, "g": -0.5},
            "besov": B122,
            "r": 3.0,
        }
        path = write_cfg(tmp_path, cfg)
        code, out, _ = run(capsys, "classify", "--config", path)
        assert code == 0 and json.loads(out)
        code, out, _ = run(capsys, "classify", "--config", path, "--strict")
        assert code == 3
        assert json.loads(out)["result"]["verdicts"][0]["verdict"]["decision"] == "NotCovered"

    @pytest.mark.parametrize("case", list(ECHO_CASES))
    def test_echo_is_a_valid_config(self, capsys, tmp_path, case):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        cfg = write_cfg(tmp_path, ECHO_CASES[case])
        command = command_of(case)
        report = run_json(capsys, command, "--config", cfg, "--out", str(first))
        echo = write_cfg(tmp_path, report["config"], name="echo.json")
        run_json(capsys, command, "--config", echo, "--out", str(second))
        assert second.read_bytes() == first.read_bytes()
        # the config is echoed once, at the top level
        assert "config" not in report["result"]
        assert "config" not in report["result"].get("moment", {})

    @pytest.mark.parametrize(
        "module, name, point",
        [
            (theory, "classify_simple", POINT),
            (theory, "classify_three_param", THREE_PARAM),
            (theory, "classify_cwt", CWT_POINT),
        ],
    )
    def test_classifier_is_looked_up_when_called(
        self, capsys, tmp_path, monkeypatch, module, name, point
    ):
        # a wrapper set on the module after import, as a tracer sets one, is called
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda **fields: calls.append(fields) or original(**fields))
        run_json(capsys, "classify", "--config", write_cfg(tmp_path, point))
        assert len(calls) == 1
        assert set(calls[0]) == {key for key in point if key != "kind"}

    @pytest.mark.parametrize("kind", list(_CLASSIFY))
    def test_a_point_reads_exactly_its_classifiers_parameters(self, capsys, tmp_path, kind):
        point = KIND_POINTS[kind]
        params = inspect.signature(_CLASSIFY[kind]).parameters
        report = run_json(capsys, "classify", "--config", write_cfg(tmp_path, point))
        assert set(report["config"]) == {"kind", *params}
        code, _, err = run(capsys, "classify", "--config", write_cfg(tmp_path, {**point, "stray": 1.0}))
        assert (code, err) == (2, "besovlab classify: config error: stray: unknown field\n")
        required = [name for name, param in params.items() if param.default is param.empty]
        assert {"slab", "r"} <= set(required)  # every classifier takes both
        for name in required:
            short = {key: value for key, value in point.items() if key != name}
            code, _, err = run(capsys, "classify", "--config", write_cfg(tmp_path, short))
            assert (code, err) == (2, f"besovlab classify: config error: {name}: required field is missing\n")

    def test_matches_library_call(self, capsys, tmp_path):
        cfg = {
            "kind": "cwt",
            "slab": {"family": "student_t", "nu": 3.0},
            "alpha": 2.0,
            "beta": 0.5,
            "rho": 1.6,
            "besov": {"s": 0.4, "p": 2.0, "q": 2.0},
            "r": 4.0,
        }
        report = run_json(capsys, "classify", "--config", write_cfg(tmp_path, cfg))
        direct = theory.classify_cwt(
            distributions.StudentT(3.0),
            2.0,
            0.5,
            theory.BesovParams(0.4, 2.0, 2.0),
            4.0,
            1.6,
        )
        assert report["result"]["verdicts"][0]["verdict"] == direct.to_dict()


class TestSweep:
    def test_cartesian_grid(self, capsys, tmp_path):
        cfg = {
            "base": {"slab": GAUSS, "beta": 0.5, "besov": B122, "r": 3.0},
            "vary": {"alpha": [1.0, 2.0, 3.0], "besov.s": [0.2, 1.4]},
        }
        out_csv = tmp_path / "sweep.csv"
        report = run_json(
            capsys, "sweep", "--config", write_cfg(tmp_path, cfg), "--csv", str(out_csv)
        )
        header, rows = read_csv(out_csv)
        assert header == ["alpha", "besov.s", "decision", "case_id", "threshold"]
        assert len(rows) == 6
        for row in rows:
            alpha, s = float(row[0]), float(row[1])
            direct = theory.classify_simple(
                distributions.Gaussian(1.0),
                alpha,
                0.5,
                theory.BesovParams(s, 2.0, 2.0),
                3.0,
            )
            assert row[2] == direct.decision.value
            assert float(row[4]) == pytest.approx(direct.threshold)
        assert len(report["result"]["rows"]) == 6

    def test_two_axes_in_one_block(self, capsys, tmp_path):
        base = {"kind": "general", "slab": GAUSS, "tau": {"c": 1.0, "e": 1.0, "g": 0.5},
                "pi": {"c": 1.0, "e": 0.5}, "besov": B122, "r": 3.0}
        cfg = {"base": base, "vary": {"tau.e": [0.5, 1.5, 2.5], "tau.g": [-2.0, 0.0, 1.0]}}
        report = run_json(capsys, "sweep", "--config", write_cfg(tmp_path, cfg))
        rows = report["result"]["rows"]
        assert len(rows) == 9
        for row in rows:
            e, g = row["overrides"]["tau.e"], row["overrides"]["tau.g"]
            point = {**base, "tau": {"c": 1.0, "e": e, "g": g}}
            direct = run_json(capsys, "classify", "--config", write_cfg(tmp_path, point))
            verdict = direct["result"]["verdicts"][0]["verdict"]
            assert {key: row[key] for key in ("decision", "case_id", "threshold")} == {
                key: verdict[key] for key in ("decision", "case_id", "threshold")
            }
        assert len({row["threshold"] for row in rows}) > 1  # the varied values are read

    @pytest.mark.parametrize("where", ["base", "vary"])
    def test_an_infinite_number_echoes_as_inf(self, capsys, tmp_path, where):
        # write_cfg writes math.inf as JSON's Infinity, which reads as inf and
        # echoes as "inf", as classify echoes it
        besov = {"s": 1.0, "p": math.inf if where == "base" else 2.0, "q": 2.0}
        q_values = [2.0] if where == "base" else [2.0, math.inf]
        cfg = {"base": {"slab": GAUSS, "beta": 0.5, "besov": besov, "r": 3.0},
               "vary": {"alpha": [1.0, 3.0], "besov.q": q_values}}
        out, out_csv = tmp_path / "out.json", tmp_path / "out.csv"
        argv = ["--config", write_cfg(tmp_path, cfg), "--out", str(out), "--csv", str(out_csv)]
        report = run_json(capsys, "sweep", *argv)
        strict_json(out.read_text())
        echo = report["config"]
        rows = report["result"]["rows"]
        if where == "base":
            assert echo["base"]["besov"]["p"] == "inf"
            assert {row["case_id"] for row in rows} == {"simple/p-inf-gumbel"}
        else:
            assert echo["vary"]["besov.q"] == [2.0, "inf"]
            assert [row["overrides"]["besov.q"] for row in rows] == [2.0, "inf"] * 2
            assert [row[1] for row in read_csv(out_csv)[1]] == ["2", "inf"] * 2
        # the echo replays to the same report
        replay = write_cfg(tmp_path, echo, name="echo.json")
        second = tmp_path / "second.json"
        run_json(capsys, "sweep", "--config", replay, "--out", str(second))
        assert second.read_bytes() == out.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(cfg=st.deferred(lambda: SWEEPS))
    # two names fail to set at once, and the first of them in sorted order,
    # besov-x., lies between two names under besov
    @example(cfg={"base": GENERAL_POINT, "vary": {"besov": [B122], "besov.s.x": [1.0], "besov-x.": [1.0]}})
    def test_sweep_equals_its_points_classified_alone(self, tmp_path_factory, cfg):
        work = tmp_path_factory.mktemp("sweep")
        text = json.dumps(cfg)  # an infinite value is written as JSON's Infinity
        (work / "cfg.json").write_text(text)
        out, out_csv = work / "out.json", work / "out.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["sweep", "--config", str(work / "cfg.json"),
                         "--out", str(out), "--csv", str(out_csv)])
        try:
            report, table = sweep_point_by_point(json.loads(text, object_hook=Doc))
        except ConfigError as exc:
            assert (code, err.getvalue()) == (2, f"besovlab sweep: config error: {exc}\n")
            assert not out.exists() and not out_csv.exists()
            return
        assert (code, err.getvalue()) == (0, "")
        assert out.read_text() == _encode(report) + "\n"
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([[_fmt_cell(cell) for cell in row] for row in table])
        assert out_csv.read_bytes() == expected.getvalue().encode()


def sweep_point_by_point(cfg):
    """The sweep report and CSV rows of ``cfg``, each point built from ``base``
    and its ``vary`` values, then classified and checked on its own; the first
    bad point raises its `ConfigError`, a varied value named by its key."""
    base, vary = cfg["base"], cfg["vary"]
    names = sorted(vary)
    rows = []
    for combo in itertools.product(*(vary[name] for name in names)):
        point = Doc(base)
        for name, value in zip(names, combo):
            _set_dotted(point, name, value, f"vary.{name}")
        try:
            with under("base"):
                _, _, verdict = _classify_point(point, {})
                known(point)
        except ConfigError as exc:
            inner = exc.path.removeprefix("base.") + "."
            varied = [name for name in names if inner.startswith(name + ".")]
            if varied:
                exc.path = "vary." + varied[-1]
            raise
        overrides = {name: _echo(value) for name, value in zip(names, combo)}
        rows.append({"overrides": overrides, "decision": verdict.decision.value,
                     "case_id": verdict.case_id, "threshold": verdict.threshold})
    kind = "simple" if base.get("kind") is None else base["kind"]
    echo = {"base": {**_echo(base), "kind": kind}, "vary": {n: list(map(_echo, vary[n])) for n in names}}
    report = {"command": "sweep", "config": echo, "result": {"rows": rows}}
    keys = ["decision", "case_id", "threshold"]
    table = [names + keys] + [[*row["overrides"].values(), *(row[key] for key in keys)] for row in rows]
    return report, table


# the values a random sweep takes for each name it may vary; a value past
# the ";" is refused (or, for a kind, may leave a base field unread)
SWEEP_AXES = {
    "kind": ["general", "regression", "no_spike", "simple", "three_param", "nope"],
    "slab": [GAUSS, {"family": "cauchy"}, {"family": "student_t", "nu": 3.0}, {"family": "laplace"},
             {"family": "normal"}, 3.0],
    "tau": [{"c": 1.0, "e": 1.0}, {"c": 1.0, "g": -2.0}, "fast"],
    "tau.e": [0.0, 0.5, 1.5, math.inf],
    "tau.g": [-2.0, 0.0, 1.0, None],
    "pi.e": [0.0, 0.5, 1.0, 1.5],
    "pi.g": [0.0, 1.0, -0.5],
    "besov": [B122, {"s": 0.5, "p": "inf", "q": 1.0}, {"s": 1.0, "p": 2.0}],
    "besov.s": [0.1, 1.0, 2.5, -1.0, 5.0],
    "besov.p": [1.0, 2.0, "inf", math.inf, 0.5],
    "besov.q": [1.0, "inf", math.inf, 0.0],
    "r": [3.0, None, 0.5],
    "alpha": [1.0, 3.0, -1.0],
    "beta": [0.5, 1.0, None],
    # a key path through a number, empty keys (the first sorts between two
    # names under besov) and a field no classifier reads
    "besov.s.x": [1.0],
    "besov.": [1.0],
    "besov-x.": [1.0],
    "extra": [None, 1.0],
}
# the values of each axis that no reader refuses
SWEEP_GOOD = {"kind": 2, "slab": 4, "tau": 2, "tau.e": 3, "tau.g": 4, "pi.e": 4, "pi.g": 3, "besov": 2,
              "besov.s": 3, "besov.p": 4, "besov.q": 3, "r": 2, "alpha": 2, "beta": 3, "extra": 1}
# each base and the names its kind reads
SWEEP_BASES = [
    (GENERAL_POINT, ["kind", "slab", "tau", "tau.e", "tau.g", "pi.e", "pi.g", "besov", "besov.s", "besov.p",
                     "besov.q", "r"]),
    ({**GENERAL_POINT, "kind": "regression"}, ["slab", "tau.e", "pi.e", "pi.g", "besov.p", "besov.q"]),
    (SWEEP_BASE, ["slab", "alpha", "besov", "besov.s", "besov.p", "besov.q", "r"]),
    ({**POINT, "beta": None}, ["beta", "alpha", "besov.s", "besov.q"]),
    (KIND_POINTS["no_spike"], ["slab", "tau", "tau.e", "tau.g", "besov.s", "besov.p"]),
]


@st.composite
def _sweeps(draw):
    """A small sweep: mostly names its base's kind reads and values no reader
    refuses, now and then another name or a refused value."""
    base, names = draw(st.sampled_from(SWEEP_BASES))
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    if draw(st.integers(0, 5)) == 0:
        chosen.append(draw(st.sampled_from(sorted(set(SWEEP_AXES) - set(chosen)))))
    vary = {}
    for name in chosen:
        values = SWEEP_AXES[name]
        good = st.sampled_from(values[: SWEEP_GOOD.get(name, 0)] or values)
        value = st.one_of(*[good] * 7, st.sampled_from(values))  # a value past the good ones now and then
        vary[name] = draw(st.lists(value, min_size=1, max_size=3))
    return {"base": base, "vary": vary}


SWEEPS = _sweeps()


# one value of each config block type `cli._read` builds
CONFIG_BLOCKS = {
    "gaussian": distributions.Gaussian(2.0),
    "laplace": distributions.Laplace(0.5),
    "student_t": distributions.StudentT(3.0),
    "cauchy": distributions.Cauchy(),
    "power_exponential": distributions.PowerExponential(1.5, 2.0),
    "infinite": schedules.Infinite(9),
    "regression": schedules.Regression(600),
    "schedule": schedules.LevelSchedule(2.5, 1.25, -0.75),
    "besov-inf": theory.BesovParams(1.0, math.inf, math.inf),
    "prior-infinite": sampler.PriorSpec(
        schedules.LevelSchedule(0.5, 0.75, -1.0),
        schedules.LevelSchedule(2.0, 1.5),
        distributions.Laplace(0.5),
        schedules.Infinite(9),
    ),
    "prior-regression": sampler.PriorSpec(
        schedules.LevelSchedule(0.5, 0.75, -1.0),
        schedules.LevelSchedule(2.0, 1.5),
        distributions.PowerExponential(0.5),
        schedules.Regression(600),
    ),
    "cwt-coarse": cwt.CwtSpec(
        2.0, 0.5, 3.0, 1.5, distributions.Laplace(2.0), a0=2.0, a_max=64.0,
        coarse=cwt.CoarseTerm(1.5, cwt.AtomSet([4.0, 2.0], [0.25, 1.0], [-1.0, 0.5])),
    ),
}


@pytest.mark.parametrize("value", list(CONFIG_BLOCKS.values()), ids=list(CONFIG_BLOCKS))
def test_config_block_round_trips(value):
    text = json.dumps(_echo(value), allow_nan=False)
    tag = _TAG_OF.get(type(value))
    parse = _tagged(tag[0]) if tag else (lambda doc: _read(type(value), doc))
    # `block` also refuses any echoed key the reader does not read
    assert block(parse, {"block": json.loads(text, object_hook=Doc)}, "block") == value


class TestSampleNorm:
    SAMPLE_ARGS = (
        "--set",
        'slab={"family":"laplace","lam":1.0}',
        "--set",
        'tau={"c":1.0,"e":1.5}',
        "--set",
        'pi={"c":1.0,"e":0.5}',
        "--set",
        "j0=3",
        "--set",
        'mode={"kind":"infinite","j_max":8}',
    )

    def test_round_trip_bit_exact(self, capsys, tmp_path):
        tree_file = tmp_path / "tree.json"
        run_json(capsys, "sample", *self.SAMPLE_ARGS, "--seed", "7", "--out", str(tree_file))
        norm_report = run_json(
            capsys,
            "norm",
            "--set",
            f"besov={json.dumps(B122)}",
            "--tree",
            str(tree_file),
        )
        spec = sampler.PriorSpec(
            schedules.LevelSchedule(1.0, 1.5),
            schedules.LevelSchedule(1.0, 0.5),
            distributions.Laplace(1.0),
            schedules.Infinite(8),
        )
        tree = sampler.sample_tree(spec, 3, seed=7)
        expected = besov.besov_seq_norm(tree, theory.BesovParams(1.0, 2.0, 2.0))
        assert norm_report["result"]["norm"] == expected

    def test_norm_accepts_bare_tree_file(self, capsys, tmp_path):
        spec = sampler.PriorSpec(
            schedules.LevelSchedule(1.0, 1.5),
            schedules.LevelSchedule(1.0, 0.5),
            distributions.Laplace(1.0),
            schedules.Infinite(6),
        )
        tree = sampler.sample_tree(spec, 2, seed=11)
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(sampler.tree_to_dict(tree)))
        report = run_json(
            capsys, "norm", "--set", f"besov={json.dumps(B122)}", "--tree", str(bare)
        )
        assert report["result"]["norm"] == besov.besov_seq_norm(
            tree, theory.BesovParams(1.0, 2.0, 2.0)
        )

    def test_v1_entries_tree_is_refused_at_its_first_level(self, capsys, tmp_path):
        # the per-entry form ``{"j", "entries": [[k, w], ...]}`` is not read
        v1 = {"j0": 0, "scaling": [1.0], "levels": [{"j": 0, "entries": [[0, 0.5]]}]}
        v1_file = write_cfg(tmp_path, v1, "v1.json")
        for command in ("norm", "synth"):
            cfg = {key: value for key, value in REPORT_CASES[command].items() if key != "tree"}
            inline = ["--config", write_cfg(tmp_path, {**cfg, "tree": v1}, "inline.json")]
            from_file = ["--config", write_cfg(tmp_path, cfg), "--tree", v1_file]
            for args in (inline, from_file):
                code, out, err = run(capsys, command, *args)
                assert (code, out) == (2, "")
                assert err.startswith(
                    f"besovlab {command}: config error: "
                    "tree.levels[0].k: required field is missing"
                )

    @pytest.mark.parametrize("command", ["norm", "synth"])
    def test_inline_tree_and_tree_file_are_refused(self, capsys, tmp_path, command):
        tree_file = write_cfg(tmp_path, TINY_TREE, "tree.json")
        # an inline reference counts as an inline tree
        for tree in (TWO_LEVEL_TREE, {"path": tree_file}):
            cfg = write_cfg(tmp_path, {**REPORT_CASES[command], "tree": tree})
            code, out, err = run(capsys, command, "--config", cfg, "--tree", tree_file)
            assert (code, out) == (2, "")
            assert err.startswith(f"besovlab {command}: config error: tree: give an inline tree")

    def test_regression_top_level_where_log2_rounds_up(self, capsys, tmp_path):
        # math.log2(2^49 - 1) rounds to 49.0, one above floor(log2 n)
        cfg = {**SAMPLE, "pi": {"c": 1.0, "e": 1.5}, "j0": 0, "mode": {"kind": "regression", "n": 2**49 - 1}}
        report = run_json(capsys, "sample", "--config", write_cfg(tmp_path, cfg))
        assert [level["j"] for level in report["result"]["tree"]["levels"]] == list(range(48))

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        cfg = {
            "slab": GAUSS,
            "tau": {"c": 1.0, "e": 1.5},
            "pi": {"c": 1.0, "e": 0.5},
            "j0": 2,
            "mode": {"kind": "infinite", "j_max": 6},
            "seed": 1,
        }
        path = write_cfg(tmp_path, cfg)
        default = run_json(capsys, "sample", "--config", path)
        overridden = run_json(capsys, "sample", "--config", path, "--seed", "9")
        assert default["config"]["seed"] == 1
        assert overridden["config"]["seed"] == 9
        assert default["result"]["tree"] != overridden["result"]["tree"]

    def test_csv_floats_have_17_significant_digits(self, capsys, tmp_path):
        tree_file = tmp_path / "tree.json"
        tree_csv = tmp_path / "tree.csv"
        report = run_json(
            capsys,
            "sample",
            *self.SAMPLE_ARGS,
            "--seed",
            "7",
            "--out",
            str(tree_file),
            "--csv",
            str(tree_csv),
        )
        doc = json.loads(tree_file.read_text())
        level0 = doc["result"]["tree"]["levels"][0]
        header, rows = read_csv(tree_csv)
        assert header == ["j", "k", "w"]
        assert rows[0][1] == str(level0["k"][0])
        assert rows[0][2] == format(level0["w"][0], ".17g")
        assert float(rows[0][2]) == level0["w"][0]
        assert report["result"]["nonzero_counts"][0] == sum(
            1 for row in rows if row[0] == "3"
        )

    @pytest.mark.parametrize("command", ["norm", "synth"])
    def test_tree_file_is_echoed_as_a_reference_that_replays(
        self, capsys, tmp_path, monkeypatch, command
    ):
        monkeypatch.chdir(tmp_path)
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TWO_LEVEL_TREE))
        cfg = {key: value for key, value in REPORT_CASES[command].items() if key != "tree"}
        cfg = write_cfg(tmp_path, cfg)
        args = ["--config", cfg, "--tree", "tree.json", "--out", "first.json"]
        first = run_json(capsys, command, *args)
        digest = hashlib.sha256(tree.read_bytes()).hexdigest()
        assert first["config"]["tree"] == {"path": "tree.json", "sha256": digest}
        echo = write_cfg(tmp_path, first["config"], "echo.json")
        run_json(capsys, command, "--config", echo, "--out", "second.json")
        assert (tmp_path / "second.json").read_bytes() == (tmp_path / "first.json").read_bytes()
        # one byte of the tree changed: the reference no longer holds
        tree.write_bytes(tree.read_bytes().replace(b"0.25", b"0.35"))
        code, out, err = run(capsys, command, "--config", echo)
        assert (code, out) == (2, "")
        assert err.startswith(
            f"besovlab {command}: config error: tree.sha256: tree.json has digest"
        )
        tree.unlink()
        code, out, err = run(capsys, command, "--config", echo)
        assert (code, out) == (4, "")
        assert err.startswith(f"besovlab {command}: i/o error:")

    @pytest.mark.parametrize("source", ["--tree", "reference"])
    def test_out_naming_the_tree_file_is_refused(self, capsys, tmp_path, source):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TWO_LEVEL_TREE))
        ref = {"path": str(tree), "sha256": hashlib.sha256(tree.read_bytes()).hexdigest()}
        args = ["--tree", str(tree)] if source == "--tree" else ["--set", f"tree={json.dumps(ref)}"]
        out_file = os.path.join(str(tmp_path), ".", "tree.json")
        before = tree.read_bytes()
        code, out, err = run(
            capsys, "norm", "--set", f"besov={json.dumps(B122)}", *args, "--out", out_file
        )
        assert (code, out) == (2, "")
        assert err.startswith(
            f"besovlab norm: config error: --out: {out_file} is also the tree.path file"
        )
        assert tree.read_bytes() == before

    def test_csv_naming_the_out_file_is_refused(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys, "sample", *self.SAMPLE_ARGS, "--out", str(report), "--csv", str(report)
        )
        assert (code, out) == (2, "")
        assert err.startswith(
            f"besovlab sample: config error: --csv: {report} is also the --out file"
        )
        assert not report.exists()

    def test_csv_flag_rejected_without_table(self, capsys, tmp_path):
        # norm has no table, so --csv is a usage error, raised before the tree is read
        table = tmp_path / "no.csv"
        code, out, err = run(
            capsys,
            "norm",
            "--set",
            f"besov={json.dumps(B122)}",
            "--tree",
            str(tmp_path / "missing.json"),
            "--csv",
            str(table),
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --csv" in err
        assert not table.exists()

    @pytest.mark.parametrize("command", ["norm", "synth"])
    def test_tree_flag_is_the_tree_reference(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TWO_LEVEL_TREE))
        cfg = {key: value for key, value in REPORT_CASES[command].items() if key != "tree"}
        cfg = write_cfg(tmp_path, cfg)
        run_json(capsys, command, "--config", cfg, "--tree", "tree.json", "--out", "flag.json")
        ref = ["--set", 'tree={"path": "tree.json"}', "--out", "ref.json"]
        report = run_json(capsys, command, "--config", cfg, *ref)
        assert (tmp_path / "flag.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
        digest = hashlib.sha256(tree.read_bytes()).hexdigest()
        assert report["config"]["tree"] == {"path": "tree.json", "sha256": digest}

    def test_unreadable_tree_file_is_named_at_tree_path(self, capsys, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text("{not json")
        code, out, err = run(
            capsys, "norm", "--set", f"besov={json.dumps(B122)}", "--tree", str(tree)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"besovlab norm: config error: tree.path {tree}: invalid JSON")


VERIFY_CFG = {
    "slab": GAUSS,
    "tau": {"c": 1.0, "e": 1.5},
    "pi": {"c": 1.0, "e": 0.5},
    "besov": B122,
    "levels": {"start": 5, "stop": 9},
    "reps": 10,
}


class TestVerify:
    @pytest.mark.parametrize("command", ["verify", "lln", "evt", "cwt-verify"])
    def test_outputs_identical_across_thread_counts(self, capsys, tmp_path, command):
        path = write_cfg(tmp_path, ECHO_CASES[command])
        blobs = []
        tables = []
        for n in ("1", "3"):
            out = tmp_path / f"v{n}.json"
            table = tmp_path / f"v{n}.csv"
            code, _, err = run(
                capsys,
                command,
                "--config",
                path,
                "--threads",
                n,
                "--out",
                str(out),
                "--csv",
                str(table),
            )
            assert code == 0, err
            blobs.append(out.read_bytes())
            tables.append(table.read_bytes())
        assert blobs[0] == blobs[1]
        assert tables[0] == tables[1]

    def test_gaussian_moment_gate_at_a_large_p(self, capsys, tmp_path):
        # E|xi|^400 is finite for a Gaussian slab, though its closed form overflows
        cfg = {**ECHO_CASES["verify"], "besov": {**B122, "p": 400.0}}
        report = run_json(capsys, "verify", "--config", write_cfg(tmp_path, cfg))
        assert report["result"]["empirical_verdict"] in ("Converges", "Diverges", "Inconclusive")

    def test_report_shape_and_level_table(self, capsys, tmp_path):
        out_csv = tmp_path / "levels.csv"
        report = run_json(
            capsys,
            "verify",
            "--config",
            write_cfg(tmp_path, VERIFY_CFG),
            "--csv",
            str(out_csv),
        )
        result = report["result"]
        assert result["kind"] == "exponent_regression"
        assert result["expected_slope"] == pytest.approx(-0.5)
        assert report["config"]["levels"] == [5, 6, 7, 8, 9]
        assert report["config"]["mode"] == {"kind": "infinite", "j_max": 9}
        header, rows = read_csv(out_csv)
        assert header == ["j", "count", "n_value", "mean", "stderr", "median", "q25", "q75"]
        assert [int(r[0]) for r in rows] == [5, 6, 7, 8, 9]

    @pytest.mark.parametrize("check", ["slope", "membership"])
    @pytest.mark.parametrize("c, q", [(1.0, 1e308), (1e10, 1e307)])
    def test_a_q_whose_sums_can_overflow_is_refused_at_besov_q(self, capsys, tmp_path, check, c, q):
        # q log2 a_j summed over replicates overflowed a float (an OverflowError
        # from fsum), or left an unnamed non-finite number in the report
        cfg = {"slab": GAUSS, "tau": {"c": c, "e": 1.0}, "pi": {"c": 1.0, "e": 0.5},
               "besov": {"s": 1, "p": 2, "q": q}, "levels": [3, 4], "reps": 3, "check": check}
        code, out, err = run(capsys, "verify", "--config", write_cfg(tmp_path, cfg))
        assert (code, out) == (2, "")
        assert "besov.q: " in err
        # at the largest q accepted every number of the report is finite
        cfg["besov"]["q"] = lab._MAX_POWER
        run_json(capsys, "verify", "--config", write_cfg(tmp_path, cfg))

    def test_membership_check_and_strict_not_covered(self, capsys, tmp_path):
        cfg = {
            **VERIFY_CFG,
            "check": "membership",
            "pi": {"c": 1.0, "e": 1.0, "g": -0.5},
            "levels": [4, 5, 6],
            "reps": 5,
        }
        path = write_cfg(tmp_path, cfg)
        report = run_json(capsys, "verify", "--config", path)
        assert report["result"]["theory_verdict"]["decision"] == "NotCovered"
        code, _, _ = run(capsys, "verify", "--config", path, "--strict")
        assert code == 3


class TestExperiments:
    def test_lln_small(self, capsys, tmp_path):
        cfg = {
            "slab": GAUSS,
            "pi": {"c": 1.0, "e": 0.5},
            "m": 2.0,
            "levels": [4, 5, 6, 7],
            "reps": 5,
        }
        report = run_json(capsys, "lln", "--config", write_cfg(tmp_path, cfg))
        assert report["result"]["kind"] == "lln"
        assert len(report["result"]["levels"]) == 4

    def test_evt_small(self, capsys, tmp_path):
        cfg = {
            "slab": {"family": "laplace", "lam": 1.0},
            "pi": {"c": 1.0},
            "levels": [6, 7, 8],
            "reps": 5,
        }
        report = run_json(capsys, "evt", "--config", write_cfg(tmp_path, cfg))
        assert report["result"]["kind"] == "evt"
        assert report["result"]["expected_ratio"] == pytest.approx(1.0)

    def test_reps_flag_overrides_config(self, capsys, tmp_path):
        cfg = {
            "slab": GAUSS,
            "pi": {"c": 1.0, "e": 0.5},
            "m": 2.0,
            "levels": [4, 5],
            "reps": 5,
        }
        report = run_json(
            capsys, "lln", "--config", write_cfg(tmp_path, cfg), "--reps", "7"
        )
        assert report["config"]["reps"] == 7
        assert report["result"]["levels"][0]["count"] > 0

    def test_evt_replicate_count_defaults_as_in_the_library(self, capsys, tmp_path):
        cfg = {"slab": {"family": "laplace", "lam": 1.0}, "pi": {"c": 1.0}, "levels": [5, 6]}
        report = run_json(capsys, "evt", "--config", write_cfg(tmp_path, cfg))
        library = lab.evt_experiment(distributions.Laplace(1.0), schedules.LevelSchedule(1.0), [5, 6])
        assert report["config"]["reps"] == library.reps == 100
        assert report["result"] == json.loads(_encode(library.to_dict()))

    def test_evt_quantile_past_1e300(self, capsys, tmp_path):
        # b_4 is about 1.9e307: the ratios are those of the unit slab up to the quantiles' rounding
        cfg = {"slab": GAUSS, "pi": {"c": 1.0}, "levels": [4, 5], "reps": 3}
        unit = run_json(capsys, "evt", "--config", write_cfg(tmp_path, cfg))["result"]["levels"]
        cfg["slab"] = {**GAUSS, "sigma": 1e307}
        huge = run_json(capsys, "evt", "--config", write_cfg(tmp_path, cfg))["result"]["levels"]
        assert [ls["median"] for ls in huge] == pytest.approx([ls["median"] for ls in unit], rel=1e-10)

    def test_levels_are_echoed_sorted_and_distinct(self, capsys, tmp_path):
        cfg = {**ECHO_CASES["lln"], "levels": [12, 8, 10, 8]}
        report = run_json(capsys, "lln", "--config", write_cfg(tmp_path, cfg))
        assert report["config"]["levels"] == [8, 10, 12]
        assert [ls["j"] for ls in report["result"]["levels"]] == [8, 10, 12]

    @pytest.mark.parametrize("command", ["lln", "verify", "cwt-verify"])
    def test_unsorted_levels_echo_sorted_and_replay(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        levels = [9, 6, 6, 8]
        if command == "cwt-verify":
            cfg = with_moment(levels=levels)
        else:
            cfg = {**ECHO_CASES[command], "levels": levels}
        first = run_json(capsys, command, "--config", write_cfg(tmp_path, cfg), "--out", "a.json")
        echo = first["config"]["moment"] if command == "cwt-verify" else first["config"]
        assert echo["levels"] == [6, 8, 9]
        replay = write_cfg(tmp_path, first["config"], "echo.json")
        run_json(capsys, command, "--config", replay, "--out", "b.json")
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()

    def test_lln_moment_far_below_the_float_range(self, capsys, tmp_path):
        # Gamma(200.5) overflows, but E|xi|^400 of N(0, 1e-20) is about 1e-3567
        cfg = {**ECHO_CASES["lln"], "slab": {**GAUSS, "sigma": 1e-10}, "m": 400.0}
        report = run_json(capsys, "lln", "--config", write_cfg(tmp_path, cfg))
        assert report["result"]["expected_ratio"] == 0.0


class TestSynth:
    def test_render_matches_csv(self, capsys, tmp_path):
        tree_file = tmp_path / "tree.json"
        run_json(
            capsys,
            "sample",
            "--set",
            f"slab={json.dumps(GAUSS)}",
            "--set",
            'tau={"c":1.0,"e":1.0}',
            "--set",
            'pi={"c":1.0}',
            "--set",
            "j0=2",
            "--set",
            'mode={"kind":"infinite","j_max":4}',
            "--seed",
            "3",
            "--out",
            str(tree_file),
        )
        out_csv = tmp_path / "curve.csv"
        report = run_json(
            capsys,
            "synth",
            "--set",
            "family=haar",
            "--set",
            "grid_exponent=7",
            "--tree",
            str(tree_file),
            "--csv",
            str(out_csv),
        )
        assert report["result"]["count"] == 128
        header, rows = read_csv(out_csv)
        assert header == ["x", "value"]
        assert len(rows) == 128
        energy = sum(float(r[1]) ** 2 for r in rows) / len(rows)
        assert energy == pytest.approx(report["result"]["energy"], rel=1e-12)


class TestCwtCommands:
    def test_sample_atoms_and_project(self, capsys, tmp_path):
        cfg = {
            "spec": CWT_SPEC,
            "seed": 2,
            "project": {"family": "daub4", "j0": 1, "top": 3},
        }
        out_csv = tmp_path / "atoms.csv"
        report = run_json(
            capsys, "cwt-sample", "--config", write_cfg(tmp_path, cfg), "--csv", str(out_csv)
        )
        result = report["result"]
        assert result["count"] == len(result["atoms"])
        assert result["intensity"] == pytest.approx(3.0 * (math.sqrt(16.0) - 1.0) / 0.5)
        header, rows = read_csv(out_csv)
        assert header == ["a", "b", "omega"]
        assert result["count"] > 0
        # the CSV and the JSON rows come from one set of columns
        assert [[float(cell) for cell in row] for row in rows] == result["atoms"]
        tree = sampler.tree_from_dict(result["tree"])
        assert math.isfinite(besov.besov_seq_norm(tree, theory.BesovParams(0.5, 2.0, 2.0)))

    def test_coarse_term_may_leave_out_its_atoms(self, capsys, tmp_path):
        cfg = {"spec": {**CWT_SPEC, "c_mu": 0.0, "coarse": {"c_w": 0.25}}, "project": PROJECT}
        report = run_json(capsys, "cwt-sample", "--config", write_cfg(tmp_path, cfg))
        assert report["config"]["spec"]["coarse"] == {"c_w": 0.25, "atoms": []}
        assert report["result"]["tree"]["scaling"] == [0.25, 0.25]

    @pytest.mark.parametrize(
        "spec",
        [
            {**CWT_SPEC, "c_mu": 0.0, "coarse": {"atoms": [[1e-9, 0.5, 1.0]]}},
            {**CWT_SPEC, "c_mu": 1.0, "beta": 1.0, "a0": 1e-9, "a_max": 1.0},
        ],
        ids=["coarse-atom", "poisson-atoms"],
    )
    def test_tiny_scale_atoms_project(self, capsys, tmp_path, spec):
        # an atom of scale 1e-9 spans 10^9 rescaled units; only the part
        # that reaches the projection row is sampled
        cfg = {"spec": spec, "seed": 1, "project": {"family": "daub4", "j0": 1, "top": 4}}
        report = run_json(capsys, "cwt-sample", "--config", write_cfg(tmp_path, cfg))
        tree = sampler.tree_from_dict(report["result"]["tree"])
        assert (tree.j0, tree.top_level) == (1, 4)

    @pytest.mark.parametrize("name, m", [("daub4", 0.3278688524590164), ("daub6", 0.21796939709664764)])
    def test_moment_gate_decided_exactly(self, capsys, tmp_path, name, m):
        # m (r + rho + 1/2) > 1 exactly, though the float product is 1
        cfg = {**ECHO_CASES["cwt-verify"], "family": name}
        cfg["moment"] = {**cfg["moment"], "m": m}
        report = run_json(capsys, "cwt-verify", "--config", write_cfg(tmp_path, cfg))
        assert report["result"]["moment"]["kind"] == "cwt-moment"

    def test_verify_kernel_table(self, capsys, tmp_path):
        cfg = {"family": "haar", "v_count": 65, "depth": 10}
        out_csv = tmp_path / "kernel.csv"
        report = run_json(
            capsys, "cwt-verify", "--config", write_cfg(tmp_path, cfg), "--csv", str(out_csv)
        )
        kernel = report["result"]["kernel"]
        assert kernel["family"] == "haar"
        assert kernel["exponent"] == pytest.approx(0.5)
        header, rows = read_csv(out_csv)
        assert header == ["u", "sup"]
        assert len(rows) == len(kernel["u"])
        sups = [float(r[1]) for r in rows]
        assert max(sups) <= 1.0 + 1e-6
        assert kernel["dropped"] == 0

    def test_zero_sups_are_left_out_of_the_kernel_fit(self, capsys):
        # three shifts at depth 4 miss the Haar kernel for u = 2^-6 .. 2^-4
        code, out, err = run(
            capsys, "cwt-verify", "--set", "family=haar", "--set", "v_count=3", "--set", "depth=4"
        )
        assert code == 0, err
        kernel = strict_json(out)["result"]["kernel"]
        assert kernel["sup"][:3] == [0.0, 0.0, 0.0]
        assert kernel["dropped"] == 3
        assert kernel["slope_low"] is not None


# each command whose optional fields are the parameters of the function it runs,
# that function, a config holding only the required fields, and the block they are read from
SIGNATURE_CASES = {
    "sample": ("sample", sampler.sample_tree, {k: SAMPLE[k] for k in ("slab", "tau", "pi", "j0")}, None),
    "verify/slope": (
        "verify",
        lab.exponent_regression,
        {k: VERIFY[k] for k in ("slab", "tau", "pi", "besov", "levels")},
        None,
    ),
    "verify/membership": (
        "verify",
        lab.empirical_membership,
        {k: VERIFY[k] for k in ("slab", "tau", "pi", "besov", "levels", "check")},
        None,
    ),
    "lln": ("lln", lab.lln_experiment, {"slab": GAUSS, "pi": {"c": 1.0, "e": 0.5}, "m": 2.0}, None),
    "evt": ("evt", lab.evt_experiment, {"slab": {"family": "laplace", "lam": 1.0}, "pi": {"c": 0.01}}, None),
    "cwt-sample": ("cwt-sample", cwt.sample_atoms, {"spec": CWT_SPEC}, None),
    "cwt-verify": ("cwt-verify", cwt.verify_kernel_bounds, {"family": "daub4"}, None),
    "cwt-verify/moment": (
        "cwt-verify",
        cwt.moment_bound_experiment,
        {**KERNEL, "moment": {"spec": CWT_SPEC, "m": 2.0, "levels": [2, 3]}},
        "moment",
    ),
}


class TestReports:
    @pytest.mark.parametrize("case", list(SIGNATURE_CASES))
    def test_left_out_fields_echo_the_signature_defaults(self, capsys, tmp_path, case):
        command, fn, cfg, key = SIGNATURE_CASES[case]
        echo = run_json(capsys, command, "--config", write_cfg(tmp_path, cfg))["config"]
        given, echo = (cfg[key], echo[key]) if key else (cfg, echo)
        left_out = {
            name: p.default
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty and name not in given and name != "threads"
        }
        assert left_out
        # a None default is echoed as absent, a tuple as a list
        assert {name: echo.get(name) for name in left_out} == json.loads(json.dumps(left_out))

    @pytest.mark.parametrize("case", list(REPORT_CASES))
    def test_report_is_strict_json(self, capsys, tmp_path, case):
        path = write_cfg(tmp_path, REPORT_CASES[case])
        command = command_of(case)
        code, out, err = run(capsys, command, "--config", path)
        assert code == 0, err
        assert strict_json(out)["command"] == command

    @pytest.mark.parametrize(
        "command, cfg",
        [
            (
                "norm",
                {
                    "besov": B122,
                    "tree": {
                        "j0": 0,
                        "scaling": [1e308],
                        "levels": [{"j": 0, "k": [0], "w": [1e308]}],
                    },
                },
            ),
        ],
        ids=["norm"],
    )
    def test_non_finite_report_exits_2(self, capsys, tmp_path, command, cfg):
        out_file = tmp_path / "report.json"
        code, out, err = run(
            capsys, command, "--config", write_cfg(tmp_path, cfg), "--out", str(out_file)
        )
        assert code == 2
        assert out == ""
        assert not out_file.exists()
        assert "the report holds a non-finite number" in err


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner, max_size=5),
    max_leaves=40,
)


@st.composite
def trees(draw):
    j0 = draw(st.integers(0, 3))
    scaling = draw(st.lists(FINITE, min_size=2**j0, max_size=2**j0))
    levels = []
    for j in range(j0, j0 + draw(st.integers(0, 4))):
        k = sorted(draw(st.sets(st.integers(0, 2**j - 1), max_size=8)))
        w = draw(st.lists(FINITE.filter(bool), min_size=len(k), max_size=len(k)))
        levels.append(sampler.Level(j, k, w))
    return sampler.CoefficientTree(j0, scaling, levels)


CSV_TEXT = st.text(st.sampled_from(',"\r\n {}x') | st.characters(codec="utf-8"), max_size=6)
CSV_COLUMNS = {
    "float": st.floats(),
    "int": st.integers(),
    "mixed": st.none() | st.booleans() | st.integers() | FINITE | CSV_TEXT,
}


@st.composite
def csv_blocks(draw):
    """A block of equal-length columns for `_write_csv`, and its rows."""
    size = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from([*CSV_COLUMNS, "constant"]), min_size=1, max_size=4))
    if set(kinds) == {"constant"}:
        kinds.append("mixed")
    columns, cells = [], []
    for kind in kinds:
        if kind == "constant":
            value = draw(CSV_COLUMNS["mixed"])
            columns.append(itertools.repeat(value))
            cells.append([value] * size)
        else:
            cells.append(draw(st.lists(CSV_COLUMNS[kind], min_size=size, max_size=size)))
            columns.append(cells[-1])
    return columns, [[col[i] for col in cells] for i in range(size)]


class TestWriters:
    @given(doc=JSON_DOCS)
    @settings(max_examples=300, deadline=None)
    def test_report_text_parses_to_the_document(self, doc):
        assert json.loads(_encode(doc)) == doc

    @given(tree=trees())
    @settings(max_examples=100, deadline=None)
    def test_tree_round_trips_through_the_report_text(self, tree):
        back = sampler.tree_from_dict(json.loads(_encode(sampler.tree_to_dict(tree))))
        assert back.j0 == tree.j0
        assert np.array_equal(back.scaling, tree.scaling)
        assert len(back.levels) == len(tree.levels)
        for got, want in zip(back.levels, tree.levels):
            assert got.j == want.j
            assert np.array_equal(got.k, want.k) and got.k.dtype == np.int64
            assert np.array_equal(got.w, want.w)

    @given(
        header=st.lists(CSV_TEXT, min_size=1, max_size=4),
        blocks=st.lists(csv_blocks(), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_csv_writer_is_csv_writer(self, tmp_path_factory, header, blocks):
        folder = tmp_path_factory.mktemp("csv")
        mine, theirs = folder / "mine.csv", folder / "theirs.csv"
        _write_csv(str(mine), header, [columns for columns, _ in blocks])
        with open(theirs, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for _, rows in blocks:
                writer.writerows([_fmt_cell(v) for v in row] for row in rows)
        assert mine.read_bytes() == theirs.read_bytes()

    def test_layout(self):
        doc = {"b": {"y": 1, "x": [1.5, -2]}, "a": [], "levels": [{"j": 3, "k": [], "w": []}, [1]]}
        assert _encode(doc) == "\n".join(
            [
                "{",
                '  "a": [],',
                '  "b": {',
                '    "x": [1.5, -2],',
                '    "y": 1',
                "  },",
                '  "levels": [',
                '    {"j": 3, "k": [], "w": []},',
                "    [1]",
                "  ]",
                "}",
            ]
        )

    def test_empty_containers(self):
        assert _encode({}) == "{}"
        assert _encode([]) == "[]"
        assert _encode({"a": {}}) == '{\n  "a": {}\n}'

    @pytest.mark.parametrize(
        "doc",
        [{"a": math.inf}, {"a": [1.0, math.nan]}, {"a": [{"b": -math.inf}]}],
        ids=["scalar", "scalar-list", "container-list"],
    )
    def test_non_finite_number_is_refused(self, doc):
        with pytest.raises(ValueError):
            _encode(doc)


class TestErrors:
    @pytest.mark.parametrize(
        "command, cfg, extra, path",
        [
            ("classify", {**POINT, "slab": {"family": "student_t", "nu": True}}, [], "slab.nu:"),
            ("classify", {**POINT, "slab": {**GAUSS, "sigma": "2"}}, [], "slab.sigma:"),
            ("classify", {**POINT, "besov": {**B122, "s": True}}, [], "besov.s:"),
            ("classify", {**GENERAL, "tau": {"c": 1.0, "e": "1.5"}}, [], "tau.e:"),
            ("classify", {**GENERAL, "pi": {"c": True}}, [], "pi.c:"),
            ("cwt-sample", {"spec": {**CWT_SPEC, "slab": {"sigma": 1.0}}}, [], "spec.slab.family:"),
            (
                "cwt-sample",
                {"spec": {**CWT_SPEC, "coarse": {"atoms": [[1, 2]]}}},
                [],
                "spec.coarse.atoms[0]:",
            ),
            ("cwt-verify", with_moment(spec={**CWT_SPEC, "c_mu": 1e13}), [], "moment.spec:"),
            ("cwt-verify", with_moment(reps=1), [], "moment.reps:"),
            ("cwt-verify", with_moment(levels=[1, 70]), [], "moment.levels:"),
            ("lln", ECHO_CASES["lln"], ["--reps", "1"], "reps:"),
            ("norm", {"besov": {**B122, "s": 2000}, "tree": TWO_LEVEL_TREE}, [], "besov.s:"),
            ("verify", {**ECHO_CASES["verify"], "besov": {**B122, "s": 2000}}, [], "besov.s:"),
            # the level list would take terabytes: the cap is checked first
            (
                "verify",
                {**ECHO_CASES["verify"], "levels": {"start": 0, "stop": 10**12}},
                [],
                "levels.stop:",
            ),
            ("lln", ECHO_CASES["lln"], ["--set", "m=-1"], "m:"),
            ("classify", {**POINT, "besov": {**B122, "s": 5.0}}, [], "r:"),
            ("classify", {"points": [POINT, {**GENERAL, "r": 0.5}]}, [], "points[1].r:"),
            (
                "sweep",
                {**REPORT_CASES["sweep"], "vary": {"beta": [0.5], "r": [3.0, 1.0]}},
                [],
                "vary.r:",
            ),
            ("cwt-verify", with_moment(m=-1.0), [], "moment.m:"),
            (
                "sample",
                {
                    "slab": GAUSS,
                    "tau": {"c": 1e308},
                    "pi": {"c": 1.0},
                    "j0": 0,
                    "mode": {"kind": "infinite", "j_max": 3},
                },
                [],
                "tau:",
            ),
            ("classify", {**POINT, "slab": {"family": "student_t", "nu": "inf"}}, [], "slab:"),
            ("lln", {**ECHO_CASES["lln"], "slab": {"family": "cauchy"}}, [], "m:"),
            ("lln", {**ECHO_CASES["lln"], "m": 400.0}, [], "m: E|xi|^400 is finite but overflows"),
            ("lln", ECHO_CASES["lln"], ["--set", "m=inf"], "m: moment order must be finite, got inf"),
            ("lln", {**ECHO_CASES["lln"], "pi": {"c": 1.0, "e": 1.5}}, [], "pi:"),
            ("evt", {**ECHO_CASES["evt"], "pi": {"c": 1.0, "e": 1.5}}, [], "pi:"),
            ("classify", {**THREE_PARAM, "beta": 1.5}, [], "beta:"),
            ("classify", {**POINT, "alpha": -1.0}, [], "alpha:"),
            ("classify", {**POINT, "beta": -0.5}, [], "beta:"),
            ("classify", {**POINT, "alpha": 0.0, "beta": 0.0}, [], "alpha:"),
            ("cwt-verify", with_moment(spec={**CWT_SPEC, "slab": {"family": "cauchy"}}), [], "moment.m:"),
            ("cwt-verify", with_moment(m=0.1), [], "moment.m:"),
            ("cwt-verify", with_moment(m="inf"), [], "moment.m:"),
            ("sample", {**SAMPLE, "mode": {"kind": "regression", "n": 0}}, [], "mode.n:"),
            ("sample", {**SAMPLE, "j0": 3, "mode": {"kind": "regression", "n": 4}}, [], "mode.n:"),
            ("sample", {**SAMPLE, "mode": {"kind": "infinite", "j_max": -5}}, [], "mode.j_max:"),
            ("sample", {**SAMPLE, "scaling": [1, 2]}, [], "scaling:"),
            ("verify", {**VERIFY, "check": "slope", "besov": {**B122, "q": "inf"}}, [], "besov.q:"),
            ("verify", {**VERIFY, "slab": {"family": "cauchy"}}, [], "besov.p:"),
            (
                "verify",
                {**VERIFY, "levels": [3, 40], "mode": {"kind": "infinite", "j_max": 12}},
                [],
                "levels:",
            ),
            (
                "synth",
                {"family": "haar", "grid_exponent": 2, "tree": TWO_LEVEL_TREE},
                [],
                "grid_exponent:",
            ),
            ("evt", {**ECHO_CASES["evt"], "levels": [0]}, [], "levels:"),
            ("classify", {**POINT, "kind": "cwt", "rho": 0.5, "mu": {"c": 1.0}}, [], "tau:"),
            ("cwt-verify", {**KERNEL, "u_grid": [0, 64]}, [], "u_grid:"),
            ("cwt-verify", {**KERNEL, "u_grid": [-1, 0.01, 64]}, [], "u_grid:"),
            ("cwt-verify", {**KERNEL, "u_grid": [0.015625, 64, "inf"]}, [], "u_grid:"),
            # u^(+-exponent) of an entry off [2^-40, 2^40] overflows the constants
            ("cwt-verify", {**KERNEL, "u_grid": [5e-324, 1.0, 64.0]}, [], "u_grid:"),
            ("cwt-verify", {**KERNEL, "u_grid": [1e-300, 64]}, [], "u_grid:"),
            ("cwt-verify", {**KERNEL, "u_grid": [0.015625, 1e300]}, [], "u_grid:"),
            ("cwt-verify", {**KERNEL, "v_count": 0}, [], "v_count:"),
            ("cwt-verify", {**KERNEL, "depth": 0}, [], "depth:"),
            # a field no reader reads is named, not left to its default
            ("sample", {**SAMPLE, "seeed": 5}, [], "seeed: unknown field"),
            ("sample", {**SAMPLE, "tau": {"c": 1.0, "ee": 1.5}}, [], "tau.ee: unknown field"),
            (
                "sample",
                {**SAMPLE, "slab": {**GAUSS, "sgima": 2.0}},
                [],
                "slab.sgima: unknown field",
            ),
            (
                "sample",
                {**SAMPLE, "mode": {"kind": "infinite", "j_max": 5, "n": 64}},
                [],
                "mode.n: unknown field",
            ),
            (
                "classify",
                {"points": [{**POINT, "besov": {**B122, "qq": 1.0}}]},
                [],
                "points[0].besov.qq: unknown field",
            ),
            (
                "sweep",
                {**REPORT_CASES["sweep"], "base": {**SWEEP_BASE, "slab": {**GAUSS, "sgima": 2.0}}},
                [],
                "base.slab.sgima: unknown field",
            ),
            (
                "verify",
                {**VERIFY, "levels": {"start": 4, "stop": 6, "setp": 1}},
                [],
                "levels.setp: unknown field",
            ),
            # the family is read once, at the top level
            ("cwt-verify", with_moment(family="daub4"), [], "moment.family: unknown field"),
            # a tree level, a tree reference and a value a sweep varies are read, so checked
            (
                "norm",
                {"besov": B122, "tree": STRAY_LEVEL_TREE},
                [],
                "tree.levels[0].n: unknown field",
            ),
            (
                "norm",
                {"besov": B122, "tree": {"path": "tree.json", "sha256": "0" * 64, "md5": "0"}},
                [],
                "tree.md5: unknown field",
            ),
            (
                "sweep",
                {"base": SWEEP_BASE, "vary": {"beta": [0.5], "slab": [GAUSS, STRAY_SLAB]}},
                [],
                "vary.slab: unknown field",
            ),
            # a non-finite exponent is refused at its field before any exact arithmetic
            ("classify", {**POINT, "alpha": math.inf}, [], "alpha:"),
            ("classify", {**POINT, "alpha": math.nan}, [], "alpha:"),
            ("classify", {**POINT, "beta": math.inf}, [], "beta:"),
            ("classify", {**THREE_PARAM, "alpha": math.inf}, [], "alpha:"),
            ("classify", {**THREE_PARAM, "gamma": math.inf}, [], "gamma:"),
            ("classify", {**THREE_PARAM, "gamma": math.nan}, [], "gamma:"),
            ("classify", {**CWT_POINT, "alpha": math.inf}, [], "alpha:"),
            ("classify", {**CWT_POINT, "beta": math.nan}, [], "beta:"),
            ("classify", {**CWT_POINT, "rho": math.inf}, [], "rho:"),
            ("classify", {**CWT_POINT, "rho": math.nan}, [], "rho:"),
            ("classify", {**CWT_POINT, "r": math.inf}, [], "r:"),
            (
                "sweep",
                {"base": {**SWEEP_BASE, "beta": 0.5}, "vary": {"alpha": [2.0, math.inf]}},
                [],
                "vary.alpha:",
            ),
            ("sweep", {"base": SWEEP_BASE, "vary": {"beta": [0.5, math.nan]}}, [], "vary.beta:"),
            (
                "sweep",
                {"base": {**SWEEP_BASE, "beta": 0.5}, "vary": {"besov.p": [2.0, 0.5]}},
                [],
                "vary.besov.p:",
            ),
            ("classify", {**POINT, "besov": {**B122, "s": math.nan}}, [], "besov.s:"),
            ("classify", {**POINT, "besov": {**B122, "s": math.inf}}, [], "besov.s:"),
            ("classify", {**POINT, "besov": {**B122, "p": 0.5}}, [], "besov.p:"),
            ("classify", {**POINT, "besov": {**B122, "q": math.nan}}, [], "besov.q:"),
            # the general continuous route covers nonincreasing mu only
            (
                "classify",
                {**CWT_POINT, "mu": {"c": 1.0, "e": -0.5}, "tau": {"c": 1.0, "e": 1.5}},
                [],
                "mu:",
            ),
            (
                "classify",
                {"points": [POINT, {**CWT_POINT, "mu": {"c": 1.0, "e": -0.5}, "tau": {"c": 1.0}}]},
                [],
                "points[1].mu:",
            ),
            ("cwt-sample", {"spec": {**CWT_SPEC, "a_max": math.inf}}, [], "spec.a_max:"),
            ("cwt-sample", {"spec": {**CWT_SPEC, "a_max": 0.5}}, [], "spec.a_max:"),
            ("cwt-sample", {"spec": {**CWT_SPEC, "a0": 0.0}}, [], "spec.a0:"),
            ("cwt-sample", {"spec": {**CWT_SPEC, "a0": math.nan}}, [], "spec.a0:"),
            ("cwt-sample", {"spec": {**CWT_SPEC, "alpha": math.nan}}, [], "spec.alpha:"),
            ("cwt-sample", {"spec": {**CWT_SPEC, "alpha": math.inf}}, [], "spec.alpha:"),
            ("cwt-sample", {"spec": {**CWT_SPEC, "beta": math.nan}}, [], "spec.beta:"),
            ("cwt-sample", {"spec": {**CWT_SPEC, "beta": math.inf}}, [], "spec.beta:"),
            ("cwt-sample", {"spec": {**CWT_SPEC, "c_mu": math.nan}}, [], "spec.c_mu:"),
            ("cwt-sample", {"spec": {**CWT_SPEC, "c_tau": math.inf}}, [], "spec.c_tau:"),
            ("cwt-sample", {"spec": HUGE_COUNT_SPEC}, [], "spec.beta:"),
            (
                "cwt-verify",
                with_moment(spec={**CWT_SPEC, "alpha": math.nan}),
                [],
                "moment.spec.alpha:",
            ),
            ("cwt-verify", with_moment(spec=HUGE_COUNT_SPEC), [], "moment.spec.beta:"),
            # a non-finite tree value is refused where the tree is read
            ("norm", {"besov": B122, "tree": tree_with(w=math.inf)}, [], "tree.levels[1].w[1]:"),
            ("norm", {"besov": B122, "tree": tree_with(w=math.nan)}, [], "tree.levels[1].w[1]:"),
            ("norm", {"besov": B122, "tree": tree_with(scaling=-math.inf)}, [], "tree.scaling[0]:"),
            ("synth", {**SYNTH, "tree": tree_with(w=-math.inf)}, [], "tree.levels[1].w[1]:"),
            ("synth", {**SYNTH, "tree": tree_with(w=math.inf)}, [], "tree.levels[1].w[1]:"),
            ("synth", {**SYNTH, "tree": tree_with(scaling=math.nan)}, [], "tree.scaling[0]:"),
            # and so is one of the scaling values `sample` is given
            (
                "sample",
                {**SAMPLE, "scaling": [1.0, math.inf, 0.0, 0.0]},
                [],
                "scaling[1]: expected a finite number, got inf",
            ),
            (
                "sample",
                {**SAMPLE, "scaling": [1.0, math.nan, 0.0, 0.0]},
                [],
                "scaling[1]: expected a finite number, got nan",
            ),
            (
                "sample",
                {**SAMPLE, "scaling": [1.0, "inf", 0.0, 0.0]},
                [],
                "scaling[1]: expected a finite number, got inf",
            ),
            ("sample", SAMPLE, ["--seed", "-1"], "seed: expected an integer >= 0, got -1"),
            ("sample", SAMPLE, ["--set", "replicate=-2"], "replicate: expected an integer >= 0"),
            ("sample", {**SAMPLE, "j0": -1}, [], "j0: expected an integer >= 0, got -1"),
            ("cwt-sample", {**ECHO_CASES["cwt-sample"], "replicate": -1}, [], "replicate:"),
            (
                "cwt-sample",
                {**ECHO_CASES["cwt-sample"], "project": {"family": "daub4", "j0": -1, "top": 3}},
                [],
                "project.j0: expected an integer >= 0, got -1",
            ),
            (
                "cwt-sample",
                {**ECHO_CASES["cwt-sample"], "project": {"family": "daub4", "j0": 0, "top": -2}},
                [],
                "project.top: expected an integer >= 0, got -2",
            ),
            ("evt", ECHO_CASES["evt"], ["--seed", "-5"], "seed: expected an integer >= 0"),
            ("lln", ECHO_CASES["lln"], ["--seed", "-1"], "seed:"),
            ("verify", VERIFY, ["--seed", "-1"], "seed:"),
            ("cwt-verify", with_moment(seed=-1), [], "moment.seed: expected an integer >= 0"),
            # a negative level is named at its element
            (
                "lln",
                {**ECHO_CASES["lln"], "levels": [-1]},
                [],
                "levels[0]: expected an integer >= 0, got -1",
            ),
            (
                "evt",
                {**ECHO_CASES["evt"], "levels": [5, -3]},
                [],
                "levels[1]: expected an integer >= 0",
            ),
            (
                "verify",
                {**VERIFY, "levels": {"start": -2, "stop": 6}},
                [],
                "levels.start: expected an integer >= 0, got -2",
            ),
            (
                "verify",
                {**VERIFY, "levels": {"start": 0, "stop": -1}},
                [],
                "levels.stop: expected an integer >= 0, got -1",
            ),
            (
                "cwt-verify",
                with_moment(levels=[-1, 2]),
                [],
                "moment.levels[0]: expected an integer >= 0",
            ),
            (
                "verify",
                {**VERIFY, "levels": {"start": 6, "stop": 4}},
                [],
                "levels: stop 4 below start 6",
            ),
            ("lln", {**ECHO_CASES["lln"], "levels": []}, [], "levels: expected a nonempty list"),
            ("classify", {**POINT, "kind": "bogus"}, [], "kind: unknown kind 'bogus'"),
            ("classify", {"points": []}, [], "points: expected a nonempty list of objects"),
            ("sweep", {"base": SWEEP_BASE, "vary": {}}, [], "vary: expected a nonempty object"),
            (
                "sweep",
                {"base": SWEEP_BASE, "vary": {"beta": 0.5}},
                [],
                "vary.beta: expected a nonempty list",
            ),
            (
                "sweep",
                {"base": SWEEP_BASE, "vary": {"beta": []}},
                [],
                "vary.beta: expected a nonempty list",
            ),
            ("verify", {**VERIFY, "check": "bogus"}, [], "check: expected 'slope' or 'membership'"),
            ("cwt-verify", {**KERNEL, "u_grid": []}, [], "u_grid: expected a nonempty list"),
            ("classify", POINT, ["--set", "alpha.x=1"], "--set alpha.x: 'alpha' is not an object"),
            ("classify", [POINT], [], "--config "),
            # the top level of a tree document, inline or in a --tree file
            ("norm", {"besov": B122, "tree": {**TINY_TREE, "extra": 1}}, [], "tree.extra: unknown field"),
            ("norm", {"besov": B122}, ["--tree", {**TINY_TREE, "extra": 1}], "tree.extra: unknown field"),
            # a non-finite coarse term is refused where it is read
            (
                "cwt-sample",
                {"spec": {**CWT_SPEC, "coarse": {"c_w": "inf"}}},
                [],
                "spec.coarse.c_w: c_w must be finite, got inf",
            ),
            (
                "cwt-sample",
                {"spec": {**CWT_SPEC, "coarse": {"atoms": [[4.0, 0.25, 1.0], [2.0, 0.5, math.nan]]}}},
                [],
                "spec.coarse.atoms[1]: atom mark must be finite, got nan",
            ),
            (
                "cwt-verify",
                with_moment(spec={**CWT_SPEC, "coarse": {"c_w": -math.inf}}),
                [],
                "moment.spec.coarse.c_w: c_w must be finite, got -inf",
            ),
            # an empty key in a dotted path is named by the key that holds it
            ("classify", POINT, ["--set", ".x=1"], "--set .x: empty key"),
            ("classify", POINT, ["--set", "besov.=1"], "--set besov.: empty key"),
            ("sweep", {"base": SWEEP_BASE, "vary": {"besov.": [B122]}}, [], "vary.besov.: empty"),
            ("sweep", {"base": SWEEP_BASE, "vary": {"": [1.0]}}, [], "vary.: empty key"),
            # the largest mark scale sqrt(c_tau) a0^(-alpha/2) must be a float, atoms or not
            ("cwt-sample", {"spec": HUGE_MARK_SPEC}, [], "spec.alpha: the mark scale sqrt"),
            ("cwt-sample", {"spec": {**HUGE_MARK_SPEC, "c_mu": 0.0}}, [], "spec.alpha: the mark"),
            ("cwt-verify", with_moment(spec=HUGE_MARK_SPEC), [], "moment.spec.alpha: the mark"),
            (
                "cwt-sample",
                {"spec": OVERFLOWING_MARK_SPEC, "seed": 1},
                [],
                "spec: a mark scale times a slab draw overflows a float",
            ),
            # replicates times levels is capped, before any draw
            ("evt", {**ECHO_CASES["evt"], "levels": [4]}, ["--reps", str(2**40)], "reps: reps x"),
            ("verify", VERIFY, ["--reps", str(2**21)], "reps: reps x levels = 2097152 x 3"),
            ("cwt-verify", with_moment(reps=2**22), [], "moment.reps: reps x levels"),
            # evt cannot find the quantile b_j of these slabs, and numpy draws some of
            # HUGE_GAUSS's values as inf
            *(
                ("evt", {**ECHO_CASES["evt"], "levels": [4, 5], "slab": slab}, [], "slab: the quantile b_j")
                for slab in (
                    {"family": "laplace", "lam": 1e-310},
                    HUGE_GAUSS,
                    {"family": "power_exponential", "m": 1e-3},
                    {"family": "student_t", "nu": 1e300},
                )
            ),
            (
                "sample",
                {
                    "slab": HUGE_GAUSS,
                    "tau": {"c": 1.0},
                    "pi": {"c": 1.0},
                    "j0": 0,
                    "mode": {"kind": "infinite", "j_max": 6},
                },
                [],
                "slab: a slab draw",
            ),
            ("verify", {**VERIFY, "slab": HUGE_GAUSS}, [], "slab: a slab draw"),
            ("cwt-sample", {"spec": {**CWT_SPEC, "slab": HUGE_GAUSS}}, [], "spec: a slab draw"),
            ("cwt-verify", with_moment(spec={**CWT_SPEC, "slab": HUGE_GAUSS}), [], "moment.spec: a slab draw"),
            # lln's magnitudes |xi| pass the float range, and with them the level's power sum
            *(
                (
                    "lln",
                    {**ECHO_CASES["lln"], "slab": slab, "m": 1.0, "levels": [4, 5]},
                    [],
                    "slab: the sum of |xi|^1 at level 4",
                )
                for slab in (
                    {"family": "power_exponential", "m": 1.0, "lam": 1e-308},
                    {"family": "laplace", "lam": 1e-308},
                )
            ),
        ],
        ids=[
            "classify-nu-bool",
            "classify-sigma-str",
            "classify-s-bool",
            "general-tau-e-str",
            "general-pi-c-bool",
            "cwt-sample-no-family",
            "cwt-sample-short-atom",
            "moment-intensity",
            "moment-reps",
            "moment-level-cap",
            "lln-reps",
            "norm-weight-overflow",
            "verify-weight-overflow",
            "verify-huge-level-range",
            "lln-m-negative",
            "classify-s-above-r",
            "points-s-above-r",
            "sweep-s-above-r",
            "moment-m-negative",
            "sample-tau",
            "classify-nu-inf",
            "lln-moment-infinite",
            "lln-moment-overflows",
            "lln-moment-order-inf",
            "lln-pi-not-growing",
            "evt-pi-not-growing",
            "three-param-beta",
            "simple-alpha-negative",
            "simple-beta-negative",
            "simple-degenerate",
            "moment-slab-moment-infinite",
            "moment-kernel-decay",
            "moment-m-inf",
            "regression-n-below-2",
            "regression-n-below-j0",
            "j_max-below-j0",
            "scaling-length",
            "slope-q-inf",
            "verify-p-moment-infinite",
            "verify-level-above-top",
            "synth-grid-too-coarse",
            "evt-count-not-above-1",
            "cwt-mu-without-tau",
            "u_grid-zero",
            "u_grid-negative",
            "u_grid-inf",
            "u_grid-subnormal",
            "u_grid-tiny",
            "u_grid-huge",
            "v_count-zero",
            "depth-zero",
            "typo-seed",
            "typo-tau-e",
            "typo-slab-sigma",
            "mode-n-under-infinite",
            "typo-points-besov-q",
            "typo-sweep-base",
            "typo-level-range",
            "moment-family",
            "typo-tree-level",
            "typo-tree-reference",
            "typo-vary-value",
            "simple-alpha-inf",
            "simple-alpha-nan",
            "simple-beta-inf",
            "three-param-alpha-inf",
            "three-param-gamma-inf",
            "three-param-gamma-nan",
            "cwt-alpha-inf",
            "cwt-beta-nan",
            "cwt-rho-inf",
            "cwt-rho-nan",
            "cwt-r-inf",
            "sweep-alpha-inf",
            "sweep-beta-nan",
            "sweep-dotted-vary-key",
            "besov-s-nan",
            "besov-s-inf",
            "besov-p-below-1",
            "besov-q-nan",
            "cwt-mu-increasing",
            "points-cwt-mu-increasing",
            "cwt-sample-a_max-inf",
            "cwt-sample-a_max-below-a0",
            "cwt-sample-a0-zero",
            "cwt-sample-a0-nan",
            "cwt-sample-alpha-nan",
            "cwt-sample-alpha-inf",
            "cwt-sample-beta-nan",
            "cwt-sample-beta-inf",
            "cwt-sample-c_mu-nan",
            "cwt-sample-c_tau-inf",
            "cwt-sample-intensity-overflows",
            "moment-spec-alpha-nan",
            "moment-intensity-overflows",
            "norm-w-inf",
            "norm-w-nan",
            "norm-scaling-inf",
            "synth-w-inf",
            "synth-w-plus-inf",
            "synth-scaling-nan",
            "sample-scaling-inf",
            "sample-scaling-nan",
            "sample-scaling-inf-string",
            "sample-seed-negative",
            "sample-replicate-negative",
            "sample-j0-negative",
            "cwt-sample-replicate-negative",
            "cwt-sample-project-j0-negative",
            "cwt-sample-project-top-negative",
            "evt-seed-negative",
            "lln-seed-negative",
            "verify-seed-negative",
            "moment-seed-negative",
            "lln-level-negative",
            "evt-level-negative",
            "verify-start-negative",
            "verify-stop-negative",
            "moment-level-negative",
            "verify-stop-below-start",
            "lln-levels-empty",
            "classify-kind-unknown",
            "classify-points-empty",
            "sweep-vary-empty",
            "sweep-vary-not-a-list",
            "sweep-vary-empty-list",
            "verify-check-unknown",
            "u_grid-empty",
            "set-through-a-number",
            "config-not-an-object",
            "typo-tree-top",
            "typo-tree-file-top",
            "coarse-c_w-inf",
            "coarse-omega-nan",
            "moment-coarse-c_w-inf",
            "set-key-leading-dot",
            "set-key-trailing-dot",
            "sweep-vary-key-trailing-dot",
            "sweep-vary-key-empty",
            "cwt-sample-mark-scale-overflows",
            "cwt-sample-mark-scale-overflows-without-atoms",
            "moment-mark-scale-overflows",
            "cwt-sample-mark-overflows",
            "evt-reps-cap",
            "verify-reps-cap",
            "moment-reps-cap",
            "evt-laplace-quantile",
            "evt-gaussian-quantile",
            "evt-power-exponential-quantile",
            "evt-student-t-quantile",
            "sample-slab-draw-inf",
            "verify-slab-draw-inf",
            "cwt-sample-slab-draw-inf",
            "moment-slab-draw-inf",
            "lln-power-exponential-draw-inf",
            "lln-laplace-draw-inf",
        ],
    )
    def test_bad_field_names_its_path(self, capsys, tmp_path, command, cfg, extra, path):
        # a document in ``extra`` is written to a file, and its path passed instead
        extra = [write_cfg(tmp_path, a, "doc.json") if isinstance(a, dict) else a for a in extra]
        code, out, err = run(capsys, command, "--config", write_cfg(tmp_path, cfg), *extra)
        assert code == 2
        assert out == ""
        assert err.startswith(f"besovlab {command}: config error: {path}")

    @pytest.mark.parametrize(
        "command, cfg, path",
        [
            ("sample", {**SAMPLE, "seeed": 1}, "seeed"),
            ("sample", {**SAMPLE, "tau": {"c": 1.0, "ee": 1.5}}, "tau.ee"),
            ("norm", {**REPORT_CASES["norm"], "seeed": 1}, "seeed"),
            ("norm", {**REPORT_CASES["norm"], "besov": {**B122, "qq": 1.0}}, "besov.qq"),
            ("synth", {**SYNTH, "seeed": 1}, "seeed"),
            ("synth", {**SYNTH, "tree": STRAY_LEVEL_TREE}, "tree.levels[0].n"),
            ("verify", {**VERIFY, "seeed": 1}, "seeed"),
            ("verify", {**VERIFY, "levels": {"start": 4, "stop": 6, "setp": 1}}, "levels.setp"),
            ("verify", {**ECHO_CASES["verify/slope"], "seeed": 1}, "seeed"),
            (
                "verify",
                {**ECHO_CASES["verify/slope"], "mode": {"kind": "regression", "n": 256, "j": 1}},
                "mode.j",
            ),
            ("lln", {**ECHO_CASES["lln"], "seeed": 1}, "seeed"),
            ("lln", {**ECHO_CASES["lln"], "pi": {"c": 1.0, "f": 0.5}}, "pi.f"),
            ("evt", {**ECHO_CASES["evt"], "seeed": 1}, "seeed"),
            ("evt", {**ECHO_CASES["evt"], "slab": {"family": "laplace", "lamm": 1.0}}, "slab.lamm"),
            ("cwt-sample", {**ECHO_CASES["cwt-sample"], "seeed": 1}, "seeed"),
            (
                "cwt-sample",
                {**ECHO_CASES["cwt-sample"], "project": {**PROJECT, "tpo": 3}},
                "project.tpo",
            ),
            ("cwt-verify", {**ECHO_CASES["cwt-verify"], "seeed": 1}, "seeed"),
            ("cwt-verify", with_moment(rep=5), "moment.rep"),
        ],
        ids=[
            "sample-top",
            "sample-nested",
            "norm-top",
            "norm-nested",
            "synth-top",
            "synth-nested",
            "membership-top",
            "membership-nested",
            "slope-top",
            "slope-nested",
            "lln-top",
            "lln-nested",
            "evt-top",
            "evt-nested",
            "cwt-sample-top",
            "cwt-sample-nested",
            "cwt-verify-top",
            "cwt-verify-nested",
        ],
    )
    def test_unknown_field_is_refused_before_any_computation(
        self, capsys, tmp_path, monkeypatch, command, cfg, path
    ):
        def computed(*args, **kwargs):
            raise AssertionError("computed before the config was checked")

        entry_points = {
            sampler: ["sample_tree"],
            besov: ["besov_seq_norm"],
            wavelets: ["synthesize"],
            lab: [
                "empirical_membership",
                "exponent_regression",
                "lln_experiment",
                "evt_experiment",
            ],
            cwt: [
                "sample_atoms",
                "project_to_orthogonal",
                "verify_kernel_bounds",
                "moment_bound_experiment",
            ],
        }
        for module, names in entry_points.items():
            for name in names:
                # the stub keeps the entry point's signature, which names the fields read
                stub = functools.wraps(getattr(module, name))(functools.partial(computed))
                monkeypatch.setattr(module, name, stub)
        code, out, err = run(capsys, command, "--config", write_cfg(tmp_path, cfg))
        assert code == 2
        assert out == ""
        assert err == f"besovlab {command}: config error: {path}: unknown field\n"

    @pytest.mark.parametrize(
        "command, cfg, path",
        [
            (
                "cwt-sample",
                {**ECHO_CASES["cwt-sample"], "spec": {**CWT_SPEC, "coarse": {"c_w": "inf"}}},
                "spec.coarse.c_w",
            ),
            (
                "cwt-verify",
                with_moment(spec={**CWT_SPEC, "coarse": {"atoms": [[4.0, 0.25, "inf"]]}}),
                "moment.spec.coarse.atoms[0]",
            ),
        ],
        ids=["c_w", "moment-omega"],
    )
    def test_non_finite_coarse_term_is_refused_before_any_draw(
        self, capsys, tmp_path, monkeypatch, command, cfg, path
    ):
        def computed(*args, **kwargs):
            raise AssertionError("computed before the coarse term was checked")

        for name in ("sample_atoms", "project_to_orthogonal", "verify_kernel_bounds"):
            monkeypatch.setattr(cwt, name, functools.wraps(getattr(cwt, name))(functools.partial(computed)))
        code, out, err = run(capsys, command, "--config", write_cfg(tmp_path, cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"besovlab {command}: config error: {path}: ")

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("cwt-sample", {**ECHO_CASES["cwt-sample"], "project": None}),
            ("cwt-verify", {**KERNEL, "u_grid": None, "moment": None}),
            ("sample", {**SAMPLE, "scaling": None, "mode": None}),
            ("evt", {**ECHO_CASES["evt"], "reps": None}),
            ("evt", {**ECHO_CASES["evt"], "slab": {**GAUSS, "sigma": None}}),
            (
                "cwt-sample",
                {**ECHO_CASES["cwt-sample"], "spec": {**CWT_SPEC, "coarse": {"c_w": 0.5, "atoms": None}}},
            ),
            ("classify", {**CWT_POINT, "mu": None, "tau": None}),
            ("sweep", {"base": {**SWEEP_BASE, "kind": None}, "vary": {"beta": [0.5]}}),
        ],
        ids=[
            "project", "u_grid-moment", "scaling-mode", "reps", "slab.sigma", "spec.coarse.atoms",
            "cwt-mu-tau", "sweep-base.kind",
        ],
    )
    def test_null_optional_field_reads_as_absent(self, capsys, tmp_path, command, cfg):
        def without_nulls(doc):
            if isinstance(doc, dict):
                return {key: without_nulls(value) for key, value in doc.items() if value is not None}
            return doc

        code, out, err = run(capsys, command, "--config", write_cfg(tmp_path, cfg))
        assert code == 0, err
        # the report, echo included, is that of the config without its nulls
        absent = write_cfg(tmp_path, without_nulls(cfg), name="absent.json")
        assert out == run(capsys, command, "--config", absent)[1]

    def test_missing_required_field_names_path(self, capsys):
        code, _, err = run(capsys, "classify", "--set", "alpha=2.0")
        assert code == 2
        assert "slab" in err

    def test_nested_field_path_in_message(self, capsys, tmp_path):
        cfg = {
            "points": [
                {"slab": GAUSS, "alpha": 2.0, "beta": 0.5, "besov": B122, "r": 3.0},
                {"slab": GAUSS, "alpha": 2.0, "besov": B122, "r": 3.0},
            ]
        }
        code, _, err = run(capsys, "classify", "--config", write_cfg(tmp_path, cfg))
        assert code == 2
        assert "points[1].beta" in err

    @pytest.mark.parametrize(
        "mode, field",
        [
            ({"kind": "finite", "j_max": 7}, "mode.kind"),
            ({"kind": "infinite", "j_max": 7.5}, "mode.j_max"),
            ({"kind": "infinite"}, "mode.j_max"),
        ],
        ids=["unknown-kind", "fractional-j_max", "missing-j_max"],
    )
    def test_bad_mode_names_its_field(self, capsys, tmp_path, mode, field):
        cfg = {"slab": GAUSS, "tau": {"c": 1.0}, "pi": {"c": 1.0}, "j0": 1, "mode": mode}
        code, _, err = run(capsys, "sample", "--config", write_cfg(tmp_path, cfg))
        assert code == 2
        assert f"{field}:" in err

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            (
                "sample",
                {
                    "slab": GAUSS,
                    "tau": {"c": 1.0},
                    "pi": {"c": 1.0},
                    "j0": 48,
                    "mode": {"kind": "infinite", "j_max": 48},
                },
                "mode: more than",
            ),
            (
                "verify",
                {
                    "slab": GAUSS,
                    "tau": {"c": 1.0},
                    "pi": {"c": 1.0},
                    "besov": B122,
                    "levels": [48],
                    "reps": 2,
                },
                "levels: more than",
            ),
            (
                "sample",
                {
                    "slab": GAUSS,
                    "tau": {"c": 1.0},
                    "pi": {"c": 1e-15},
                    "j0": 40,
                    "mode": {"kind": "infinite", "j_max": 40},
                },
                "j0: more than",
            ),
            (
                "cwt-sample",
                {"spec": CWT_SPEC, "project": {"family": "daub4", "j0": 1, "top": 40}},
                "project.top: more than",
            ),
            (
                "synth",
                {"family": "haar", "grid_exponent": 40, "tree": TINY_TREE},
                "grid_exponent: more than",
            ),
            (
                "sample",
                {
                    "slab": GAUSS,
                    "tau": {"c": 1.0},
                    "pi": {"c": 1e-25},
                    "j0": 0,
                    "mode": {"kind": "infinite", "j_max": 70},
                },
                "mode: level 63 is above 62",
            ),
            (
                "verify",
                {**SPARSE_DEEP, "besov": B122, "levels": [60, 70], "reps": 2},
                "levels: level 70 is above 62",
            ),
            (
                "lln",
                {"slab": GAUSS, "pi": SPARSE_DEEP["pi"], "m": 2.0, "levels": [70], "reps": 2},
                "levels: level 70",
            ),
            # evt needs n_j > 1: about 10^6 expected nonzeros at level 70
            (
                "evt",
                {"slab": GAUSS, "pi": {"c": 1e-15}, "levels": [70], "reps": 2},
                "levels: level 70",
            ),
            # 2^40 draws per replicate: refused at once, as verify refuses them
            (
                "lln",
                {"slab": GAUSS, "pi": {"c": 1.0}, "m": 2.0, "levels": [40], "reps": 2},
                "levels: more than",
            ),
            (
                "evt",
                {"slab": GAUSS, "pi": {"c": 1.0}, "levels": [40], "reps": 2},
                "levels: more than",
            ),
            (
                "cwt-verify",
                {"family": "daub4", "v_count": 2**40},
                "v_count x 2^depth: more than",
            ),
            # a Poisson mean of about 3e13 atoms: 60 TiB of atom arrays
            (
                "cwt-sample",
                {"spec": {**CWT_SPEC, "c_mu": 1e13}},
                "besovlab cwt-sample: config error: spec: more than",
            ),
        ],
        ids=[
            "sample",
            "verify",
            "sample-j0",
            "cwt-sample-top",
            "synth-grid",
            "sample-level-cap",
            "verify-level-cap",
            "lln-level-cap",
            "evt-level-cap",
            "lln-draw-cap",
            "evt-draw-cap",
            "cwt-verify-v_count",
            "cwt-sample-intensity",
        ],
    )
    def test_oversized_draw_is_rejected_before_allocating(
        self, capsys, tmp_path, command, cfg, message
    ):
        # a dense level 48 would need 2^51 bytes, and a dense row of 2^40
        # values 8 TiB: more than any address space, so nothing is allocated;
        # a level above 62 overflows the binomial draw's C long at once
        code, out, err = run(capsys, command, "--config", write_cfg(tmp_path, cfg))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "command, fields",
        [("sample", {"j0": 1}), ("verify", {"besov": B122, "levels": [2, 3, 4], "reps": 2})],
        ids=["sample", "verify"],
    )
    def test_overflowing_tau_names_its_field(self, capsys, tmp_path, command, fields):
        cfg = {
            "slab": GAUSS,
            "tau": {"c": 1.0, "g": 1000.0},  # 3^1000 overflows a float
            "pi": {"c": 0.5},
            "mode": {"kind": "infinite", "j_max": 5},
            **fields,
        }
        code, out, err = run(capsys, command, "--config", write_cfg(tmp_path, cfg))
        assert code == 2
        assert out == ""
        assert "tau: the amplitude at level 3 overflows" in err

    def test_overflowing_pi_reads_as_full_levels(self, capsys, tmp_path):
        cfg = {
            "slab": GAUSS,
            "tau": {"c": 1.0, "e": 1.0},
            "pi": {"c": 1.0, "g": 1000.0},
            "j0": 1,
            "mode": {"kind": "infinite", "j_max": 6},
        }
        report = run_json(capsys, "sample", "--config", write_cfg(tmp_path, cfg))
        assert report["result"]["nonzero_counts"] == [2, 4, 8, 16, 32, 64]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"result": [1]}, "tree: supply --tree FILE"),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 0, "k": [0.5], "w": [1.0]}]},
                "tree.levels[0].k: expected a list of integers, got 0.5",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 0.5, "k": [], "w": []}]},
                "tree.levels[0].j: expected an integer",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [[0, 1.0]]},
                "tree.levels[0]: expected a JSON object",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 0, "w": [1.0]}]},
                "tree.levels[0].k: required field is missing",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 0, "k": [True], "w": [1.0]}]},
                "tree.levels[0].k: expected a list of integers, got True",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 0, "k": [0], "w": ["1.5"]}]},
                "tree.levels[0].w: expected a list of numbers, got '1.5'",
            ),
            (
                {"j0": 1, "scaling": [0.0, 0.0], "levels": [{"j": 1, "k": [0, 1], "w": [1.0]}]},
                "tree.levels[0]: positions and values must be 1-d arrays of equal length",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 0, "k": [0]}]},
                "tree.levels[0].w: required field is missing",
            ),
            ("{not json", "tree.json: invalid JSON"),
            (json.dumps(TINY_TREE).encode("utf-16"), "tree.json: not UTF-8 text"),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 1, "k": [], "w": []}]},
                "tree: levels must cover [j0, J] contiguously; expected 0, got 1",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": -1, "k": [], "w": []}]},
                "tree.levels[0]: level index must be >= 0, got -1",
            ),
        ],
        ids=[
            "result-not-an-object",
            "fractional-position",
            "fractional-j",
            "level-not-an-object",
            "missing-entries",
            "v2-bool-position",
            "v2-string-value",
            "v2-length-mismatch",
            "v2-missing-w",
            "invalid-json",
            "utf-16",
            "levels-not-contiguous",
            "level-negative",
        ],
    )
    def test_malformed_tree_file_names_the_level(self, capsys, tmp_path, doc, message):
        tree_file = tmp_path / "tree.json"
        if isinstance(doc, bytes):
            tree_file.write_bytes(doc)
        else:
            tree_file.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(
            capsys, "norm", "--set", f"besov={json.dumps(B122)}", "--tree", str(tree_file)
        )
        assert code == 2
        assert out == ""
        assert message in err

    def test_invalid_json_config(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "classify", "--config", str(bad))
        assert code == 2
        assert "invalid JSON" in err

    def test_config_that_is_not_utf8_names_the_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "classify", "--config", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"besovlab classify: config error: --config {bad}: not UTF-8 text")

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", "--config", str(tmp_path / "absent.json"))
        assert code == 4

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "classify",
            "--set",
            f"slab={json.dumps(GAUSS)}",
            "--set",
            "alpha=2.0",
            "--set",
            "beta=0.5",
            "--set",
            f"besov={json.dumps(B122)}",
            "--set",
            "r=3.0",
            "--out",
            str(tmp_path / "missing-dir" / "report.json"),
        )
        assert code == 4

    def test_library_precondition_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "classify",
            "--set",
            f"slab={json.dumps(GAUSS)}",
            "--set",
            "alpha=2.0",
            "--set",
            "beta=0.5",
            "--set",
            'besov={"s":5.0,"p":2.0,"q":2.0}',
            "--set",
            "r=3.0",
        )
        assert code == 2

    def test_bad_set_syntax(self, capsys):
        code, _, err = run(capsys, "classify", "--set", "alpha")
        assert code == 2
        assert "KEY.PATH=VALUE" in err

    @pytest.mark.parametrize("threads", ["0", "100000"])
    def test_threads_zero_rejected(self, capsys, threads):
        code, _, err = run(capsys, "verify", "--set", "reps=4", "--threads", threads)
        assert code == 2
        assert err.startswith(f"besovlab: --threads must be in [1, 64], got {threads}")

    @pytest.mark.parametrize(
        "command, flag",
        list(itertools.product(COMMAND_FLAGS, FLAG_VALUES)),
        ids=lambda value: value.removeprefix("--"),
    )
    def test_subcommand_offers_only_the_flags_it_reads(self, capsys, tmp_path, monkeypatch, command, flag):
        monkeypatch.chdir(tmp_path)  # for the files FLAG_VALUES names
        given = [flag, *FLAG_VALUES[flag]]
        if flag in COMMAND_FLAGS[command]:
            args = _build_parser().parse_args([command, *given])
            assert getattr(args, flag.removeprefix("--")) not in (None, False)
            return
        # an unread flag is a usage error before the config is read or a file written
        outputs = ["--out", "out.json"] + (["--csv", "table.csv"] if "--csv" in COMMAND_FLAGS[command] else [])
        cfg = write_cfg(tmp_path, REPORT_CASES[command])
        code, out, err = run(capsys, command, "--config", cfg, *given, *outputs)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(given)}" in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_unknown_command_is_usage(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
