"""Command line front end: JSON-config runs with reproducible outputs.

Every subcommand reads a single JSON config document (``--config``),
optionally patched by repeated ``--set key.path=value`` overrides and by
the ergonomic flags ``--seed`` / ``--reps``.  The run writes a JSON
report whose ``config`` block is the fully resolved input (defaults
filled in), so any report can be replayed by feeding that block back as
the config.  ``--csv`` additionally writes the subcommand's plot-ready
table with floats at 17 significant digits.

Exit codes: 0 success, 2 usage or malformed config, 3 a classifier
returned NotCovered and ``--strict`` was given, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys

import numpy as np

from . import besov, cwt, distributions, lab, sampler, theory, wavelets
from .schedules import LevelSchedule

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_COVERED = 3
EXIT_IO = 4

_ENV_THREADS = "BESOVLAB_THREADS"
# bounds the OS threads one replicate loop starts; a constant, not the CPU
# count, so a run that is valid on one host is valid on every host
_MAX_THREADS = 64
_MISSING = object()


class ConfigError(ValueError):
    """Malformed or incomplete config; the message names the field path."""


# ---------------------------------------------------------------------------
# config readers
# ---------------------------------------------------------------------------


def _ctx(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get(cfg: dict, key: str, path: str, default=_MISSING):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path or 'config'}: expected a JSON object")
    if key in cfg:
        return cfg[key]
    if default is _MISSING:
        raise ConfigError(f"{_ctx(path, key)}: required field is missing")
    return default


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_float(value, where: str) -> float:
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _load(from_dict, cfg: dict, key: str | None = None, path: str = "", expect: type = dict):
    """``from_dict(cfg[key])``, or ``from_dict(cfg)`` when ``key`` is None.

    The value must be an ``expect`` (a JSON object unless told otherwise).
    Any failure becomes a ConfigError naming the field path; a KeyError
    raised by ``from_dict`` names the missing field below ``key``.
    """
    where = path if key is None else _ctx(path, key)
    doc = cfg if key is None else _get(cfg, key, path)
    if not isinstance(doc, expect):
        what = "a JSON object" if expect is dict else "a string"
        raise ConfigError(f"{where or 'config'}: expected {what}, got {doc!r}")
    try:
        return from_dict(doc)
    except KeyError as exc:
        raise ConfigError(f"{_ctx(where, exc.args[0])}: required field is missing") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def _load_levels(cfg: dict, path: str, default=None) -> list[int]:
    doc = _get(cfg, "levels", path, default)
    where = _ctx(path, "levels")
    if isinstance(doc, dict):
        start = _as_int(_get(doc, "start", where), f"{where}.start")
        stop = _as_int(_get(doc, "stop", where), f"{where}.stop")
        if stop < start:
            raise ConfigError(f"{where}: stop {stop} below start {start}")
        return list(range(start, stop + 1))
    if isinstance(doc, list) and doc:
        return [_as_int(j, f"{where}[{i}]") for i, j in enumerate(doc)]
    raise ConfigError(f"{where}: expected a nonempty list or {{start, stop}}")


def _load_tree(cfg: dict, args) -> tuple[dict, "sampler.CoefficientTree"]:
    """Tree from --tree FILE or the inline ``tree`` field.

    A file may hold a bare tree document or a report from ``sample``
    (the tree is then under ``result.tree``).
    """
    doc = None
    if getattr(args, "tree", None):
        with open(args.tree, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--tree {args.tree}: invalid JSON ({exc})") from exc
        if isinstance(doc, dict) and "j0" not in doc:
            node = doc.get("result", doc)
            doc = node.get("tree", doc) if isinstance(node, dict) else None
    elif isinstance(cfg, dict) and "tree" in cfg:
        doc = cfg["tree"]
    if not isinstance(doc, dict) or "j0" not in doc:
        raise ConfigError("tree: supply --tree FILE or an inline 'tree' document")
    return doc, _load(sampler.tree_from_dict, {"tree": doc}, "tree")


# ---------------------------------------------------------------------------
# classify points
# ---------------------------------------------------------------------------

# kind -> (number fields, object fields, classifier).  Every kind also takes
# ``slab`` and the number ``r``; the classifier gets the slab, then ``r`` and
# every other field by name.  Object fields marked "?" may be left out.
_CLASSIFY = {
    "simple": (
        ("alpha", "beta"),
        ("besov",),
        lambda slab, r, alpha, beta, besov: theory.classify_simple(slab, alpha, beta, besov, r),
    ),
    "general": (
        (),
        ("tau", "pi", "besov"),
        lambda slab, r, tau, pi, besov: theory.classify_general(slab, tau, pi, besov, r),
    ),
    "three_param": (
        ("alpha", "beta", "gamma", "s", "q"),
        (),
        lambda slab, r, alpha, beta, gamma, s, q: theory.classify_three_param(
            slab, alpha, beta, gamma, s, q, r
        ),
    ),
    "regression": (
        (),
        ("tau", "pi", "besov"),
        lambda slab, r, tau, pi, besov: theory.classify_regression(slab, tau, pi, besov, r),
    ),
    "no_spike": (
        (),
        ("tau", "besov"),
        lambda slab, r, tau, besov: theory.no_spike_condition(slab, tau, besov, r),
    ),
    "cwt": (
        ("alpha", "beta", "rho"),
        ("besov", "mu?", "tau?"),
        lambda slab, r, alpha, beta, rho, besov, mu=None, tau=None: cwt.classify_cwt(
            slab, alpha, beta, besov, r, rho, mu=mu, tau=tau
        ),
    ),
}
_OBJECT_FIELDS = {
    "besov": besov.BesovParams.from_dict,
    "tau": LevelSchedule.from_dict,
    "pi": LevelSchedule.from_dict,
    "mu": LevelSchedule.from_dict,
}


def _classify_point(point: dict, path: str) -> tuple[dict, theory.Verdict]:
    """Resolve one classification request; returns (echoed point, verdict)."""
    if not isinstance(point, dict):
        raise ConfigError(f"{path or 'config'}: expected a JSON object")
    kind = _as_str(point.get("kind", "simple"), _ctx(path, "kind"))
    if kind not in _CLASSIFY:
        raise ConfigError(
            f"{_ctx(path, 'kind')}: unknown kind {kind!r}; choose from {', '.join(_CLASSIFY)}"
        )
    numbers, objects, classify = _CLASSIFY[kind]
    slab = _load(distributions.slab_from_dict, point, "slab", path)
    resolved: dict = {"kind": kind, "slab": distributions.slab_to_dict(slab)}
    fields = {}
    for name in ("r",) + numbers:
        fields[name] = _as_float(_get(point, name, path), _ctx(path, name))
        resolved[name] = "inf" if math.isinf(fields[name]) else fields[name]
    for name in objects:
        name, optional = name.rstrip("?"), name.endswith("?")
        if optional and name not in point:
            continue
        fields[name] = _load(_OBJECT_FIELDS[name], point, name, path)
        resolved[name] = fields[name].to_dict()
    return resolved, classify(slab, **fields)


def _verdict_row(index: int, kind: str, verdict: theory.Verdict) -> list:
    return [index, kind, verdict.decision.value, verdict.case_id, verdict.threshold]


# ---------------------------------------------------------------------------
# subcommands: each returns (config echo, result, csv table or None, not_covered)
# ---------------------------------------------------------------------------


def _cmd_classify(cfg: dict, args, threads: int):
    if "points" in cfg:
        raw = cfg["points"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("points: expected a nonempty list of objects")
        pairs = [_classify_point(pt, f"points[{i}]") for i, pt in enumerate(raw)]
        echo = {"points": [resolved for resolved, _ in pairs]}
    else:
        pairs = [_classify_point(cfg, "")]
        echo = pairs[0][0]
    result = {
        "verdicts": [
            {"point": resolved, "verdict": verdict.to_dict()} for resolved, verdict in pairs
        ]
    }
    header = ["index", "kind", "decision", "case_id", "threshold"]
    rows = [
        _verdict_row(i, resolved["kind"], verdict)
        for i, (resolved, verdict) in enumerate(pairs)
    ]
    flagged = any(v.decision is theory.Decision.NOT_COVERED for _, v in pairs)
    return echo, result, (header, rows), flagged


def _cmd_sweep(cfg: dict, args, threads: int):
    base = _get(cfg, "base", "")
    vary = _get(cfg, "vary", "")
    if not isinstance(base, dict):
        raise ConfigError("base: expected a classify point object")
    if not isinstance(vary, dict) or not vary:
        raise ConfigError("vary: expected a nonempty object of parameter -> values")
    names = sorted(vary)
    for name in names:
        if not isinstance(vary[name], list) or not vary[name]:
            raise ConfigError(f"vary.{name}: expected a nonempty list of values")
    rows = []
    records = []
    flagged = False
    for combo in itertools.product(*(vary[name] for name in names)):
        point = dict(base)
        for name, value in zip(names, combo):
            _set_dotted(point, name, value, f"vary: {name}")
        resolved, verdict = _classify_point(point, "base")
        flagged = flagged or verdict.decision is theory.Decision.NOT_COVERED
        rows.append(list(combo) + [verdict.decision.value, verdict.case_id, verdict.threshold])
        records.append(
            {
                "overrides": dict(zip(names, combo)),
                "decision": verdict.decision.value,
                "case_id": verdict.case_id,
                "threshold": verdict.threshold,
            }
        )
    echo = {"base": {**base, "kind": base.get("kind", "simple")}, "vary": {n: vary[n] for n in names}}
    header = names + ["decision", "case_id", "threshold"]
    return echo, {"rows": records}, (header, rows), flagged


def _cmd_sample(cfg: dict, args, threads: int):
    spec = _load(sampler.PriorSpec.from_dict, cfg)
    j0 = _as_int(_get(cfg, "j0", ""), "j0")
    seed = _as_int(_get(cfg, "seed", "", 0), "seed")
    replicate = _as_int(_get(cfg, "replicate", "", 0), "replicate")
    scaling = cfg.get("scaling")
    if scaling is not None:
        if not isinstance(scaling, list):
            raise ConfigError("scaling: expected a list of numbers")
        scaling = [_as_float(v, f"scaling[{i}]") for i, v in enumerate(scaling)]
    tree = sampler.sample_tree(spec, j0, scaling, seed=seed, replicate=replicate)
    echo = {**spec.to_dict(), "j0": j0, "seed": seed, "replicate": replicate}
    if scaling is not None:
        echo["scaling"] = scaling
    result = {
        "tree": sampler.tree_to_dict(tree),
        "nonzero_counts": sampler.nonzero_counts(tree).tolist(),
    }
    header = ["j", "k", "w"]
    rows = sampler.tree_to_csv_rows(tree)
    return echo, result, (header, rows), False


def _cmd_norm(cfg: dict, args, threads: int):
    bp = _load(besov.BesovParams.from_dict, cfg, "besov")
    doc, tree = _load_tree(cfg, args)
    value = besov.besov_seq_norm(tree, bp)
    echo = {"besov": bp.to_dict(), "tree": doc}
    result = {"norm": value, "nonzero_counts": sampler.nonzero_counts(tree).tolist()}
    return echo, result, None, False


def _level_csv(report: lab.ExperimentReport):
    header = ["j", "count", "n_value", "mean", "stderr", "median", "q25", "q75"]
    rows = [
        [ls.j, ls.count, ls.n_value, ls.mean, ls.stderr, ls.median, ls.q25, ls.q75]
        for ls in report.levels
    ]
    return header, rows


def _cmd_verify(cfg: dict, args, threads: int):
    bp = _load(besov.BesovParams.from_dict, cfg, "besov")
    levels = _load_levels(cfg, "")
    # without a mode, the infinite model is cut at the highest level checked
    if cfg.get("mode") is None:
        cfg = {**cfg, "mode": {"kind": "infinite", "j_max": max(levels)}}
    spec = _load(sampler.PriorSpec.from_dict, cfg)
    reps = _as_int(_get(cfg, "reps", "", 100), "reps")
    seed = _as_int(_get(cfg, "seed", "", 0), "seed")
    check = _as_str(_get(cfg, "check", "", "slope"), "check")
    if check not in ("slope", "membership"):
        raise ConfigError(f"check: expected 'slope' or 'membership', got {check!r}")
    runner = lab.exponent_regression if check == "slope" else lab.empirical_membership
    report = runner(spec, bp, levels, reps=reps, seed=seed, threads=threads)
    verdict = report.theory_verdict or {}
    flagged = verdict.get("decision") == theory.Decision.NOT_COVERED.value
    echo = {**report.config, "check": check}
    return echo, report.to_dict(), _level_csv(report), flagged


def _cmd_lln(cfg: dict, args, threads: int):
    slab = _load(distributions.slab_from_dict, cfg, "slab")
    pi = _load(LevelSchedule.from_dict, cfg, "pi")
    m = _as_float(_get(cfg, "m", ""), "m")
    levels = _load_levels(cfg, "", default=list(range(8, 19)))
    reps = _as_int(_get(cfg, "reps", "", 50), "reps")
    seed = _as_int(_get(cfg, "seed", "", 0), "seed")
    report = lab.lln_experiment(slab, pi, m, levels, reps=reps, seed=seed, threads=threads)
    return report.config, report.to_dict(), _level_csv(report), False


def _cmd_evt(cfg: dict, args, threads: int):
    slab = _load(distributions.slab_from_dict, cfg, "slab")
    pi = _load(LevelSchedule.from_dict, cfg, "pi")
    levels = _load_levels(cfg, "", default=list(range(8, 19)))
    reps = _as_int(_get(cfg, "reps", "", 100), "reps")
    seed = _as_int(_get(cfg, "seed", "", 0), "seed")
    report = lab.evt_experiment(slab, pi, levels, reps=reps, seed=seed, threads=threads)
    return report.config, report.to_dict(), _level_csv(report), False


def _cmd_synth(cfg: dict, args, threads: int):
    fam = _load(wavelets.family, cfg, "family", expect=str)
    grid_exponent = _as_int(_get(cfg, "grid_exponent", ""), "grid_exponent")
    doc, tree = _load_tree(cfg, args)
    values = wavelets.synthesize(tree, fam, grid_exponent)
    xs = np.arange(values.size) / float(values.size)
    echo = {"family": fam.name, "grid_exponent": grid_exponent, "tree": doc}
    result = {
        "count": int(values.size),
        "energy": float(np.mean(values * values)),
        "sup": float(np.max(np.abs(values))) if values.size else 0.0,
    }
    header = ["x", "value"]
    rows = [[float(x), float(v)] for x, v in zip(xs, values)]
    return echo, result, (header, rows), False


def _cmd_cwt_sample(cfg: dict, args, threads: int):
    spec = _load(cwt.CwtSpec.from_dict, cfg, "spec")
    seed = _as_int(_get(cfg, "seed", "", 0), "seed")
    replicate = _as_int(_get(cfg, "replicate", "", 0), "replicate")
    atoms = cwt.sample_atoms(spec, seed, replicate)
    echo = {"spec": spec.to_dict(), "seed": seed, "replicate": replicate}
    result = {
        "intensity": spec.intensity_total(),
        "count": len(atoms),
        "atoms": [[a, b, w] for a, b, w in cwt.atoms_to_rows(atoms)],
    }
    project = cfg.get("project")
    if project is not None:
        fam = _load(wavelets.family, project, "family", "project", expect=str)
        j0 = _as_int(_get(project, "j0", "project"), "project.j0")
        top = _as_int(_get(project, "top", "project"), "project.top")
        try:
            tree = cwt.project_to_orthogonal(atoms, fam, j0, top, spec.coarse)
        except ValueError as exc:
            raise ConfigError(f"project: {exc}") from exc
        echo["project"] = {"family": fam.name, "j0": j0, "top": top}
        result["tree"] = sampler.tree_to_dict(tree)
    header = ["a", "b", "omega"]
    rows = [list(row) for row in cwt.atoms_to_rows(atoms)]
    return echo, result, (header, rows), False


def _cmd_cwt_verify(cfg: dict, args, threads: int):
    fam = _load(wavelets.family, cfg, "family", expect=str)
    v_count = _as_int(_get(cfg, "v_count", "", 257), "v_count")
    depth = _as_int(_get(cfg, "depth", "", 12), "depth")
    u_grid = cfg.get("u_grid")
    if u_grid is not None:
        if not isinstance(u_grid, list) or not u_grid:
            raise ConfigError("u_grid: expected a nonempty list of scale ratios")
        u_grid = [_as_float(u, f"u_grid[{i}]") for i, u in enumerate(u_grid)]
    bounds = cwt.verify_kernel_bounds(fam, u_grid, v_count=v_count, depth=depth)
    echo: dict = {"family": fam.name, "v_count": v_count, "depth": depth}
    if u_grid is not None:
        echo["u_grid"] = u_grid
    result: dict = {"kernel": bounds.to_dict()}
    moment = cfg.get("moment")
    if moment is not None:
        spec = _load(cwt.CwtSpec.from_dict, moment, "spec", "moment")
        m = _as_float(_get(moment, "m", "moment"), "moment.m")
        levels = _load_levels(moment, "moment")
        reps = _as_int(_get(moment, "reps", "moment", 50), "moment.reps")
        seed = _as_int(_get(moment, "seed", "moment", 0), "moment.seed")
        report = cwt.moment_bound_experiment(
            spec, fam, m, levels, reps=reps, seed=seed, threads=threads
        )
        # the family is echoed once, at the top level
        echo["moment"] = {k: v for k, v in report.config.items() if k != "family"}
        result["moment"] = report.to_dict()
    header = ["u", "sup"]
    rows = [[u, s] for u, s in zip(bounds.u, bounds.sup)]
    return echo, result, (header, rows), False


_DISPATCH = {
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "sample": _cmd_sample,
    "norm": _cmd_norm,
    "verify": _cmd_verify,
    "lln": _cmd_lln,
    "evt": _cmd_evt,
    "synth": _cmd_synth,
    "cwt-sample": _cmd_cwt_sample,
    "cwt-verify": _cmd_cwt_verify,
}


# ---------------------------------------------------------------------------
# argument parsing and the runner
# ---------------------------------------------------------------------------


def _set_dotted(doc: dict, dotted: str, value, blame: str) -> None:
    """``doc[a][b]...[z] = value`` for ``dotted = "a.b...z"``.

    Each object on the path is replaced by a shallow copy (a missing one
    by a new object), so objects ``doc`` shares with another document are
    left unchanged; ``blame`` leads the error when the path runs through a
    non-object.
    """
    node = doc
    *parents, last = dotted.split(".")
    for part in parents:
        child = node.get(part, {})
        if not isinstance(child, dict):
            raise ConfigError(f"{blame}: {part!r} is not an object")
        node[part] = dict(child)
        node = node[part]
    node[last] = value


def _apply_override(cfg: dict, item: str) -> None:
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set {item!r}: expected KEY.PATH=VALUE")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    _set_dotted(cfg, key, value, f"--set {key}")


def _resolve_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--config {args.config}: invalid JSON ({exc})") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"--config {args.config}: top level must be a JSON object")
    for item in args.overrides:
        _apply_override(cfg, item)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.reps is not None:
        cfg["reps"] = args.reps
    return cfg


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


_COMMAND_HELP = {
    "classify": "membership verdicts for one point or a 'points' list",
    "sweep": "cartesian classify sweep over 'vary' lists, CSV-oriented",
    "sample": "draw one coefficient tree from a spike-and-slab prior",
    "norm": "Besov sequence norm of a stored or inline tree",
    "verify": "Monte Carlo slope or membership check against theory",
    "lln": "per-level law-of-large-numbers sanity experiment",
    "evt": "per-level extreme-value normalization experiment",
    "synth": "render a tree on a dyadic grid via the wavelet basis",
    "cwt-sample": "draw Poisson atoms, optionally project onto the basis",
    "cwt-verify": "kernel decay bounds, optionally a moment experiment",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besovlab",
        description="Spike-and-slab Besov membership toolkit (JSON in, JSON/CSV out).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", "-c", metavar="FILE", help="JSON config document")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        help="override a config field (JSON value, or bare string); repeatable",
    )
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--reps", type=int, default=None, help="override the replicate count")
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"worker cap for replicate loops, 1 to {_MAX_THREADS} (default ${_ENV_THREADS} or 1)",
    )
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when any verdict is NotCovered",
    )
    common.add_argument("--out", metavar="FILE", help="write the JSON report here (default stdout)")
    common.add_argument("--csv", metavar="FILE", help="also write the subcommand's CSV table")

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in _DISPATCH:
        p = sub.add_parser(name, parents=[common], help=_COMMAND_HELP[name])
        if name in ("norm", "synth"):
            p.add_argument("--tree", metavar="FILE", help="tree file (bare tree or a 'sample' report)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_OK if code in (0, None) else EXIT_USAGE

    threads, source = args.threads, "--threads"
    if threads is None:
        raw = os.environ.get(_ENV_THREADS, "1")
        source = f"${_ENV_THREADS}"
        try:
            threads = int(raw)
        except ValueError:
            print(f"besovlab: {source}={raw!r} is not an integer", file=sys.stderr)
            return EXIT_USAGE
    if not 1 <= threads <= _MAX_THREADS:
        print(f"besovlab: {source} must be in [1, {_MAX_THREADS}], got {threads}", file=sys.stderr)
        return EXIT_USAGE

    try:
        cfg = _resolve_config(args)
        echo, result, table, flagged = _DISPATCH[args.command](cfg, args, threads)
    except ValueError as exc:
        print(f"besovlab {args.command}: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"besovlab {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.csv and table is None:
        print(f"besovlab {args.command}: no CSV table for this subcommand", file=sys.stderr)
        return EXIT_USAGE

    report = {"command": args.command, "config": echo, "result": result}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.csv:
            _write_csv(args.csv, *table)
    except OSError as exc:
        print(f"besovlab {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    if flagged and args.strict:
        return EXIT_NOT_COVERED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
