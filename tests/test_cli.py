"""End-to-end tests of the command line front end."""

import csv
import json
import math

import pytest

from besovlab import besov, distributions, sampler, schedules, theory
from besovlab.cli import main

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
TINY_TREE = {"j0": 0, "scaling": [1.0], "levels": [{"j": 0, "entries": [[0, 0.5]]}]}
# one small config per subcommand that has a config to replay
ECHO_CASES = {
    "classify": {"slab": GAUSS, "alpha": 2.0, "beta": 0.5, "besov": B122, "r": 3.0},
    "sample": {
        "slab": GAUSS,
        "tau": {"c": 1.0, "e": 1.5},
        "pi": {"c": 1.0, "e": 0.5},
        "j0": 2,
        "mode": {"kind": "regression", "n": 256},
        "seed": 4,
    },
    "verify": {
        "slab": GAUSS,
        "tau": {"c": 1.0, "e": 1.5},
        "pi": {"c": 1.0, "e": 0.5},
        "besov": B122,
        "levels": {"start": 4, "stop": 6},
        "reps": 4,
        "check": "membership",
    },
    "lln": {"slab": GAUSS, "pi": {"c": 1.0, "e": 0.5}, "m": 2.0, "levels": [4, 5], "reps": 3},
    "evt": {"slab": {"family": "laplace", "lam": 1.0}, "pi": {"c": 1.0}, "levels": [5, 6], "reps": 3},
    "cwt-sample": {
        "spec": CWT_SPEC,
        "seed": 2,
        "project": {"family": "daub4", "j0": 1, "top": 3},
    },
    "cwt-verify": {
        "family": "daub4",
        "v_count": 17,
        "depth": 8,
        "moment": {"spec": CWT_SPEC, "m": 2.0, "levels": [2, 3], "reps": 3},
    },
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
POINT = ECHO_CASES["classify"]
GENERAL = {**POINT, "kind": "general", "tau": {"c": 1.0}, "pi": {"c": 1.0}}
# a tree with a level above 0, where 2^(j s') can overflow
TWO_LEVEL_TREE = {
    "j0": 0,
    "scaling": [1.0],
    "levels": [{"j": 0, "entries": [[0, 0.5]]}, {"j": 1, "entries": [[1, 0.25]]}],
}


def with_moment(**fields):
    """The cwt-verify case with ``fields`` replaced in its moment block."""
    case = ECHO_CASES["cwt-verify"]
    return {**case, "moment": {**case["moment"], **fields}}


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

    @pytest.mark.parametrize("command", list(ECHO_CASES))
    def test_echo_is_a_valid_config(self, capsys, tmp_path, command):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        cfg = write_cfg(tmp_path, ECHO_CASES[command])
        report = run_json(capsys, command, "--config", cfg, "--out", str(first))
        echo = write_cfg(tmp_path, report["config"], name="echo.json")
        run_json(capsys, command, "--config", echo, "--out", str(second))
        assert second.read_bytes() == first.read_bytes()
        # the config is echoed once, at the top level
        assert "config" not in report["result"]
        assert "config" not in report["result"].get("moment", {})

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
        from besovlab.cwt import classify_cwt

        direct = classify_cwt(
            distributions.StudentT(3.0),
            2.0,
            0.5,
            besov.BesovParams(0.4, 2.0, 2.0),
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
                besov.BesovParams(s, 2.0, 2.0),
                3.0,
            )
            assert row[2] == direct.decision.value
            assert float(row[4]) == pytest.approx(direct.threshold)
        assert len(report["result"]["rows"]) == 6


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
            sampler.Infinite(8),
        )
        tree = sampler.sample_tree(spec, 3, seed=7)
        expected = besov.besov_seq_norm(tree, besov.BesovParams(1.0, 2.0, 2.0))
        assert norm_report["result"]["norm"] == expected

    def test_norm_accepts_bare_tree_file(self, capsys, tmp_path):
        spec = sampler.PriorSpec(
            schedules.LevelSchedule(1.0, 1.5),
            schedules.LevelSchedule(1.0, 0.5),
            distributions.Laplace(1.0),
            sampler.Infinite(6),
        )
        tree = sampler.sample_tree(spec, 2, seed=11)
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(sampler.tree_to_dict(tree)))
        report = run_json(
            capsys, "norm", "--set", f"besov={json.dumps(B122)}", "--tree", str(bare)
        )
        assert report["result"]["norm"] == besov.besov_seq_norm(
            tree, besov.BesovParams(1.0, 2.0, 2.0)
        )

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
        level0 = doc["result"]["tree"]["levels"][0]["entries"]
        header, rows = read_csv(tree_csv)
        assert header == ["j", "k", "w"]
        assert rows[0][2] == format(level0[0][1], ".17g")
        assert float(rows[0][2]) == level0[0][1]
        assert report["result"]["nonzero_counts"][0] == sum(
            1 for row in rows if row[0] == "3"
        )

    def test_csv_flag_rejected_without_table(self, capsys, tmp_path):
        tree = tmp_path / "tree.json"
        run_json(capsys, "sample", *self.SAMPLE_ARGS, "--out", str(tree))
        code, _, err = run(
            capsys,
            "norm",
            "--set",
            f"besov={json.dumps(B122)}",
            "--tree",
            str(tree),
            "--csv",
            str(tmp_path / "no.csv"),
        )
        assert code == 2
        assert "no CSV table" in err


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

    def test_env_var_sets_default_threads(self, capsys, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, VERIFY_CFG)
        baseline = run_json(capsys, "verify", "--config", path)
        monkeypatch.setenv("BESOVLAB_THREADS", "3")
        assert run_json(capsys, "verify", "--config", path) == baseline
        for raw in ("junk", "100000"):
            monkeypatch.setenv("BESOVLAB_THREADS", raw)
            code, _, err = run(capsys, "verify", "--config", path)
            assert code == 2
            assert "$BESOVLAB_THREADS" in err


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
        assert len(rows) == result["count"]
        tree = sampler.tree_from_dict(result["tree"])
        assert math.isfinite(besov.besov_seq_norm(tree, besov.BesovParams(0.5, 2.0, 2.0)))

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


class TestReports:
    @pytest.mark.parametrize("command", list(REPORT_CASES))
    def test_report_is_strict_json(self, capsys, tmp_path, command):
        path = write_cfg(tmp_path, REPORT_CASES[command])
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
                        "levels": [{"j": 0, "entries": [[0, 1e308]]}],
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
                "base.r:",
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
        ],
    )
    def test_bad_field_names_its_path(self, capsys, tmp_path, command, cfg, extra, path):
        code, out, err = run(capsys, command, "--config", write_cfg(tmp_path, cfg), *extra)
        assert code == 2
        assert out == ""
        assert err.startswith(f"besovlab {command}: config error: {path}")

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
            ("lln", {**SPARSE_DEEP, "m": 2.0, "levels": [70], "reps": 2}, "levels: level 70"),
            # evt needs n_j > 1: about 10^6 expected nonzeros at level 70
            (
                "evt",
                {**SPARSE_DEEP, "pi": {"c": 1e-15}, "levels": [70], "reps": 2},
                "levels: level 70",
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

    @pytest.mark.parametrize("command", ["sample", "verify"])
    def test_overflowing_tau_names_its_field(self, capsys, tmp_path, command):
        cfg = {
            "slab": GAUSS,
            "tau": {"c": 1.0, "g": 1000.0},  # 3^1000 overflows a float
            "pi": {"c": 0.5},
            "j0": 1,
            "mode": {"kind": "infinite", "j_max": 5},
            "besov": B122,
            "levels": [2, 3, 4],
            "reps": 2,
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
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 0, "entries": [[0]]}]},
                "tree.levels[0]: entry [0] at level 0",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 0, "entries": [[0.5, 1.0]]}]},
                "tree.levels[0]: entry [0.5, 1.0] at level 0",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 0, "entries": [[0, "1.5"]]}]},
                "tree.levels[0]: entry [0, '1.5'] at level 0",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 0.5, "entries": []}]},
                "tree.levels[0].j: expected an integer",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [[0, 1.0]]},
                "tree.levels[0]: expected a JSON object",
            ),
            (
                {"j0": 0, "scaling": [0.0], "levels": [{"j": 0}]},
                "tree.levels[0].entries: required field is missing",
            ),
        ],
        ids=[
            "result-not-an-object",
            "short-entry",
            "fractional-position",
            "string-value",
            "fractional-j",
            "level-not-an-object",
            "missing-entries",
        ],
    )
    def test_malformed_tree_file_names_the_level(self, capsys, tmp_path, doc, message):
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps(doc))
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
        code, _, err = run(capsys, "classify", "--set", "alpha=2.0", "--threads", threads)
        assert code == 2
        assert err.startswith(f"besovlab: --threads must be in [1, 64], got {threads}")

    def test_unknown_command_is_usage(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
