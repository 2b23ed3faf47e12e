"""Command line front end: JSON-config runs with reproducible outputs.

Every subcommand reads a single JSON config document (``--config``),
optionally patched by repeated ``--set key.path=value`` overrides, and
writes a JSON report (``--out``, else stdout) whose ``config`` block is
the fully resolved input (defaults filled in), so any report can be
replayed by feeding that block back as the config.  A field that is a
parameter of the function a subcommand runs is read from that function's
signature (`_args`): the parameter's name is its key and the parameter's
default its default, so each such default is stated once, in the library.
A subcommand offers only the other flags it reads (`_COMMANDS`):
``--seed``/``--reps`` set the config's ``seed``/``reps``; ``--tree FILE``
sets the tree reference ``{"path": FILE}``, echoed with the file's
``sha256`` for the replay to check; ``--threads`` caps the replicate
workers; and ``--csv`` also writes the subcommand's plot-ready table with
floats at 17 significant digits.
No output file may be an input file or the other output.

Exit codes: 0 success, 2 usage or malformed config, 3 a classifier
returned NotCovered and ``--strict`` was given, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import math
import operator
import os
import sys

from . import distributions, theory
from .fields import _MAX_THREADS, ConfigError, Doc, array, block, integer, known, natural, number
from .fields import numbers, obj, string, under
from .schedules import Infinite, LevelSchedule, Regression

# The numeric modules (sampler, besov, lab, cwt, wavelets) load numpy, so the readers and
# subcommands that use one import it: classify and sweep never load numpy.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_COVERED = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# config readers
# ---------------------------------------------------------------------------

# tag key -> (tag -> class, refusal of an unknown tag): a tagged block names
# its class by the string under its tag key
_TAGGED = {
    "family": (
        {"gaussian": distributions.Gaussian, "laplace": distributions.Laplace,
         "student_t": distributions.StudentT, "cauchy": distributions.Cauchy,
         "power_exponential": distributions.PowerExponential},
        "unknown slab family: {!r}",
    ),
    "kind": (
        {"infinite": Infinite, "regression": Regression},
        "expected 'infinite' or 'regression', got {!r}",
    ),
}
_TAG_OF = {cls: (key, tag) for key, (classes, _) in _TAGGED.items() for tag, cls in classes.items()}


@functools.cache
def _plan(fn) -> tuple:
    """``(name, reader)`` of each parameter of ``fn`` in order, a default bound
    to its reader (None for an annotation no reader reads); a ``default_factory``
    stays the ``<factory>`` marker the dataclass's ``__init__`` replaces."""
    plan = []
    for p in inspect.signature(fn).parameters.values():
        read = _FIELD_READERS.get(p.annotation)
        if read and p.default is not p.empty:
            read = functools.partial(read, default=p.default)
        plan.append((p.name, read))
    return tuple(plan)


def _args(fn, d, *given: str) -> dict:
    """The arguments of ``fn`` in the config object ``d``: each parameter not
    named in ``given`` (the caller passes those), read under its name by the
    reader of its annotation, so one with a default may be left out."""
    return {name: read(d, name) for name, read in _plan(fn) if name not in given}


def _read(cls, d):
    """The dataclass ``cls`` from the config object ``d`` (`_args`)."""
    return cls(**_args(cls, d))


def _tagged(key: str):
    """A parser of the block whose class the string under ``key`` names."""
    classes, refusal = _TAGGED[key]

    def parse(d):
        tag = string(d, key)
        if tag not in classes:
            raise ConfigError(key, refusal.format(tag))
        return _read(classes[tag], d)

    return parse


def _atoms(d, key, default):
    """A `cwt.AtomSet` from a list of ``[a, b, omega]`` rows; an error names its row."""
    from .cwt import AtomSet
    rows = array(d, key, default)
    if rows is default:
        return default
    with under(key):
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == 3):
                raise ConfigError(i, f"expected an [a, b, omega] triple, got {row!r}")
        return AtomSet(*zip(*[numbers(rows, i) for i in range(len(rows))]))


def _levels(doc) -> list[int]:
    """``levels``, sorted and distinct: a nonempty list of integers >= 0 or
    ``{start, stop}``; a stop above the highest level a draw supports fails
    before the list is built."""
    if isinstance(doc, dict):
        start, stop = natural(doc, "start"), natural(doc, "stop")
        if stop < start:
            raise ConfigError("", f"stop {stop} below start {start}")
        from .sampler import _check_level
        _check_level(stop, "stop")
        return list(range(start, stop + 1))
    if isinstance(doc, list) and doc:
        return sorted({natural(doc, i) for i in range(len(doc))})
    raise ConfigError("", "expected a nonempty list or {start, stop}")


_besov = functools.partial(block, functools.partial(_read, theory.BesovParams))
_schedule = functools.partial(block, functools.partial(_read, LevelSchedule))
_spec = functools.partial(block, lambda d: _read(importlib.import_module(".cwt", __package__).CwtSpec, d))

# a parameter's annotation, as written (the model modules postpone
# annotations, so a signature gives them as strings) -> its reader
_FIELD_READERS = {
    "float": number,
    "int": integer,
    "Natural": natural,
    "list[float] | None": numbers,
    "Levels": functools.partial(block, _levels),
    "BesovParams": _besov,
    "LevelSchedule": _schedule,
    "LevelSchedule | None": _schedule,
    "SlabDistribution": functools.partial(block, _tagged("family")),
    "Mode": functools.partial(block, _tagged("kind")),
    "CoarseTerm": functools.partial(
        block, lambda d: _read(importlib.import_module(".cwt", __package__).CoarseTerm, d)
    ),
    "AtomSet": _atoms,
    "CwtSpec": _spec,
}


def _echo(value):
    """The config block `_read` reads back as ``value``: a dataclass becomes
    its fields and its tag, a `wavelets.WaveletFamily` its name, a
    `cwt.AtomSet` its ``[a, b, omega]`` rows and an infinite number
    ``"inf"``; a dict is echoed item by item, leaving out a None value."""
    if isinstance(value, float):
        return "inf" if value == math.inf else value
    if isinstance(value, dict):
        return {name: _echo(v) for name, v in value.items() if v is not None}
    # a value of a numeric module's type exists only once that module is imported
    wavelets, cwt = (sys.modules.get(f"{__package__}.{name}") for name in ("wavelets", "cwt"))
    if wavelets and isinstance(value, wavelets.WaveletFamily):
        return value.name
    if cwt and isinstance(value, cwt.AtomSet):
        return list(map(list, zip(value.a.tolist(), value.b.tolist(), value.omega.tolist())))
    if dataclasses.is_dataclass(value):
        doc = _echo(vars(value))
        if type(value) in _TAG_OF:
            key, tag = _TAG_OF[type(value)]
            doc[key] = tag
        return doc
    return value


def _read_json(flag: str, path: str, data: bytes | None = None):
    """The JSON document in the file ``path`` that option ``flag`` names,
    decoded from ``data`` when the caller has read the file's bytes."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{flag} {path}", f"not UTF-8 text ({exc})") from exc
    try:
        return json.loads(text, object_hook=Doc)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{flag} {path}", f"invalid JSON ({exc})") from exc


def _read_tree(path: str, sha256: str | None) -> tuple[object, dict]:
    """The tree document in the file ``path`` (a bare tree, or a ``sample``
    report with the tree under ``result.tree``) and the reference that
    echoes it, ``{"path", "sha256"}``.  A digest other than ``sha256`` (when
    given) fails at ``sha256`` before the bytes are decoded."""
    import hashlib  # it loads OpenSSL, ~4 MB of RSS that only a run reading a tree pays

    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    if sha256 is not None and digest != sha256:
        raise ConfigError("sha256", f"{path} has digest {digest}, not the one recorded")
    doc = _read_json("path", path, data)
    if isinstance(doc, dict) and "j0" not in doc:
        node = doc.get("result", doc)
        doc = node.get("tree", doc) if isinstance(node, dict) else None
    return doc, {"path": path, "sha256": digest}


def _load_tree(cfg: dict) -> tuple[dict, "CoefficientTree"]:
    """Echo and tree of the ``tree`` field.

    The field holds a tree document, echoed as given, or a reference
    ``{"path", "sha256"}`` to a tree file, whose digest is checked when
    ``sha256`` is given.  A file is echoed as a reference, its path as
    given and its digest filled in.
    """
    doc = echo = obj(cfg, "tree", None)
    if doc is not None and "path" in doc:
        with under("tree"):
            path, sha256 = string(doc, "path"), string(doc, "sha256", None)
            known(doc)
            doc, echo = _read_tree(path, sha256)
    if not isinstance(doc, dict) or "j0" not in doc:
        raise ConfigError("tree", "supply --tree FILE or an inline 'tree' document")
    from .sampler import tree_from_dict
    with under("tree"):
        tree = tree_from_dict(doc)
        known(doc)
    return echo, tree


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(cfg: dict, args) -> None:
    """Refuse an output file that is an input file or the other output."""
    files = [("--config", args.config)]
    ref = cfg.get("tree")
    if isinstance(ref, dict) and isinstance(ref.get("path"), str):
        files.append(("tree.path", ref["path"]))
    for flag, path in (("--out", args.out), ("--csv", args.csv)):
        for other, named in files:
            if path and named and _same_file(path, named):
                raise ConfigError(flag, f"{path} is also the {other} file")
        files.append((flag, path))


# ---------------------------------------------------------------------------
# classify points
# ---------------------------------------------------------------------------

# kind -> its classifier, whose signature names the fields a point reads
# (`_plan`).  The classifier is looked up in its module when called, so a
# wrapper set there later is the one called, and gets every field that
# reads as non-None by name.
_CLASSIFY = {
    "simple": theory.classify_simple,
    "general": theory.classify_general,
    "three_param": theory.classify_three_param,
    "regression": theory.classify_regression,
    "no_spike": theory.no_spike_condition,
    "cwt": theory.classify_cwt,
}
_KIND = "simple"  # the kind of a point that names none


def _classify_point(point: dict, parsed: dict) -> tuple[str, dict, theory.Verdict]:
    """Resolve one classification request: its kind, the fields it read and its verdict;
    ``parsed`` keeps what a reader made of a value object, so points sharing one read it once."""
    kind = string(point, "kind", _KIND)
    if kind not in _CLASSIFY:
        raise ConfigError("kind", f"unknown kind {kind!r}; choose from {', '.join(_CLASSIFY)}")
    fn = _CLASSIFY[kind]
    fields = {}
    for name, read in _plan(fn):
        key = (read, id(point.get(name)))  # every value outlives the run, so its id is its own
        value = parsed[key] if key in parsed else parsed.setdefault(key, read(point, name))
        if value is not None:
            fields[name] = value
    point.read.update(fields)  # `known` skips a null field, so the others are all it needs
    return kind, fields, getattr(sys.modules[fn.__module__], fn.__name__)(**fields)


# ---------------------------------------------------------------------------
# subcommands: each returns (config echo, result, csv table or None, not_covered)
# ---------------------------------------------------------------------------


def _cmd_classify(cfg: dict, threads: int):
    parsed = {}
    if "points" in cfg:
        raw = array(cfg, "points")
        if not raw:
            raise ConfigError("points", "expected a nonempty list of objects")
        with under("points"):
            points = [block(lambda point: _classify_point(point, parsed), raw, i) for i in range(len(raw))]
    else:
        points = [_classify_point(cfg, parsed)]
    known(cfg)
    echoes = [_echo({"kind": kind, **fields}) for kind, fields, _ in points]
    echo = {"points": echoes} if "points" in cfg else echoes[0]
    verdicts = [verdict for _, _, verdict in points]
    result = {
        "verdicts": [
            {"point": point, "verdict": verdict.to_dict()} for point, verdict in zip(echoes, verdicts)
        ]
    }
    header = ["index", "kind", "decision", "case_id", "threshold"]
    columns = (
        list(range(len(points))),
        [kind for kind, _, _ in points],
        [verdict.decision.value for verdict in verdicts],
        [verdict.case_id for verdict in verdicts],
        [verdict.threshold for verdict in verdicts],
    )
    flagged = any(v.decision is theory.Decision.NOT_COVERED for v in verdicts)
    return echo, result, (header, [columns]), flagged


def _cmd_sweep(cfg: dict, threads: int):
    base = obj(cfg, "base")
    vary = obj(cfg, "vary")
    if not vary:
        raise ConfigError("vary", "expected a nonempty object of parameter -> values")
    names = sorted(vary)
    for name in names:
        if not isinstance(vary[name], list) or not vary[name]:
            raise ConfigError(f"vary.{name}", "expected a nonempty list of values")
    known(cfg)
    # a point's value at a top-level key is built, and read, once for each
    # combination of the values of the names under that key
    under_key = {}
    for i, name in enumerate(names):
        under_key.setdefault(name.partition(".")[0], []).append(i)
    groups = [(key, operator.itemgetter(*at), at, {}) for key, at in under_key.items()]
    echoes = [list(map(_echo, vary[name])) for name in names]
    parsed, records, flagged, in_base = {}, [], False, under("base")
    for combo in itertools.product(*map(range, map(len, echoes))):
        values, failed = [], []
        for key, pick, at, built in groups:
            if (sub := pick(combo)) not in built:  # a value that cannot be set fails at its first point
                holder = Doc({key: base[key]}) if key in base else Doc()
                try:
                    for i in at:
                        _set_dotted(holder, names[i], vary[names[i]][combo[i]], f"vary.{names[i]}")
                except ConfigError as exc:
                    failed.append(exc)
                    continue
                built[sub] = holder[key]
            values.append(built[sub])
        if failed:  # the first name, in sorted order, whose value could not be set
            raise min(failed, key=lambda exc: names.index(exc.path.removeprefix("vary.")))
        point = Doc(base)
        point.update(zip(under_key, values))
        try:
            with in_base:
                _, _, verdict = _classify_point(point, parsed)
                known(point)
        except ConfigError as exc:
            # a value set by `vary` is named by its key, the deepest (last sorted) one
            inner = exc.path.removeprefix("base.") + "."
            varied = [n for n in names if inner.startswith(n + ".")]
            if varied:
                exc.path = "vary." + varied[-1]
            raise
        flagged = flagged or verdict.decision is theory.Decision.NOT_COVERED
        found = {"decision": verdict.decision.value, "case_id": verdict.case_id, "threshold": verdict.threshold}
        records.append({"overrides": dict(zip(names, map(operator.getitem, echoes, combo))), **found})
    base_echo = {**_echo(base), "kind": _KIND if base.get("kind") is None else base["kind"]}
    echo = {"base": base_echo, "vary": dict(zip(names, echoes))}
    header = names + ["decision", "case_id", "threshold"]
    columns = [[r["overrides"][n] for r in records] for n in names]
    columns += [[r[key] for r in records] for key in header[len(names) :]]
    return echo, {"rows": records}, (header, [columns]), flagged


def _cmd_sample(cfg: dict, threads: int):
    from . import sampler
    spec = _read(sampler.PriorSpec, cfg)
    args = _args(sampler.sample_tree, cfg, "spec")
    known(cfg)
    echo = _echo(dict(vars(spec), **args))
    tree = sampler.sample_tree(spec, **args)
    doc = sampler.tree_to_dict(tree)
    result = {"tree": doc, "nonzero_counts": sampler.nonzero_counts(tree).tolist()}
    blocks = [(itertools.repeat(lev["j"]), lev["k"], lev["w"]) for lev in doc["levels"]]
    return echo, result, (["j", "k", "w"], blocks), False


def _cmd_norm(cfg: dict, threads: int):
    from . import besov, sampler
    bp = _besov(cfg, "besov")
    tree_echo, tree = _load_tree(cfg)
    known(cfg)
    echo = {"besov": _echo(bp), "tree": tree_echo}
    value = besov.besov_seq_norm(tree, bp)
    result = {"norm": value, "nonzero_counts": sampler.nonzero_counts(tree).tolist()}
    return echo, result, None, False


def _level_csv(report: "ExperimentReport"):
    header = ["j", "count", "n_value", "mean", "stderr", "median", "q25", "q75"]
    return header, [[[getattr(ls, name) for ls in report.levels] for name in header]]


def _cmd_verify(cfg: dict, threads: int):
    from . import lab, sampler
    bp = _besov(cfg, "besov")
    levels = block(_levels, cfg, "levels")
    spec = _read(sampler.PriorSpec, cfg)
    # without a mode, the infinite model is cut at the highest level checked
    if cfg.get("mode") is None:
        spec = sampler.PriorSpec(spec.tau, spec.pi, spec.slab, Infinite(levels[-1]))
    check = string(cfg, "check", "slope")
    if check not in ("slope", "membership"):
        raise ConfigError("check", f"expected 'slope' or 'membership', got {check!r}")
    runner = lab.exponent_regression if check == "slope" else lab.empirical_membership
    args = _args(runner, cfg, "spec", "bp", "levels", "threads")
    known(cfg)
    echo = _echo(dict(vars(spec), besov=bp, check=check, levels=levels, **args))
    report = runner(spec, bp, levels, threads=threads, **args)
    flagged = (report.theory_verdict or {}).get("decision") == theory.Decision.NOT_COVERED.value
    return echo, report.to_dict(), _level_csv(report), flagged


def _experiment(name: str, cfg: dict, threads: int):
    """``lln`` and ``evt``: the `lab` experiment ``name``, its parameters but ``threads`` config fields."""
    from . import lab
    fn = getattr(lab, name)
    args = _args(fn, cfg, "threads")
    known(cfg)
    report = fn(**args, threads=threads)
    return _echo(args), report.to_dict(), _level_csv(report), False


def _cmd_synth(cfg: dict, threads: int):
    import numpy as np
    from . import wavelets
    fam = block(wavelets.family, cfg, "family")
    grid_exponent = integer(cfg, "grid_exponent")
    tree_echo, tree = _load_tree(cfg)
    known(cfg)
    echo = {**_echo(dict(family=fam, grid_exponent=grid_exponent)), "tree": tree_echo}
    values = wavelets.synthesize(tree, fam, grid_exponent)
    xs = np.arange(values.size) / float(values.size)
    result = {
        "count": int(values.size),
        "energy": float(np.mean(values * values)),
        "sup": float(np.max(np.abs(values))) if values.size else 0.0,
    }
    return echo, result, (["x", "value"], [(xs.tolist(), values.tolist())]), False


def _project(doc) -> dict:
    """``project``: the basis ``family``, and the levels ``j0`` and ``top``."""
    from . import wavelets
    return {"family": block(wavelets.family, doc, "family"), "j0": natural(doc, "j0"),
            "top": natural(doc, "top")}


def _cmd_cwt_sample(cfg: dict, threads: int):
    from . import cwt, sampler
    args = _args(cwt.sample_atoms, cfg)
    project = block(_project, cfg, "project", None)
    known(cfg)
    echo = _echo(dict(args, project=project))
    atoms = cwt.sample_atoms(**args)
    columns = [atoms.a.tolist(), atoms.b.tolist(), atoms.omega.tolist()]
    rows = list(map(list, zip(*columns)))
    result = {"intensity": args["spec"].intensity_total(), "count": len(atoms), "atoms": rows}
    if project is not None:
        with under("project"):
            fam, j0, top = project["family"], project["j0"], project["top"]
            tree = cwt.project_to_orthogonal(atoms, fam, j0, top, args["spec"].coarse)
        result["tree"] = sampler.tree_to_dict(tree)
    return echo, result, (["a", "b", "omega"], [columns]), False


def _cmd_cwt_verify(cfg: dict, threads: int):
    from . import cwt, wavelets
    fam = block(wavelets.family, cfg, "family")
    args = _args(cwt.verify_kernel_bounds, cfg, "fam")
    moment = block(lambda d: _args(cwt.moment_bound_experiment, d, "fam", "threads"), cfg, "moment", None)
    known(cfg)
    echo = _echo(dict(args, family=fam, moment=moment))
    bounds = cwt.verify_kernel_bounds(fam, **args)
    result: dict = {"kernel": bounds.to_dict()}
    if moment is not None:
        with under("moment"):
            report = cwt.moment_bound_experiment(fam=fam, threads=threads, **moment)
        result["moment"] = report.to_dict()
    return echo, result, (["u", "sup"], [(bounds.u.tolist(), bounds.sup.tolist())]), False


# ---------------------------------------------------------------------------
# argument parsing and the runner
# ---------------------------------------------------------------------------


def _set_dotted(doc: dict, dotted: str, value, blame: str) -> None:
    """``doc[a][b]...[z] = value`` for ``dotted = "a.b...z"``.

    Each object on the path is replaced by a shallow copy (a missing one
    by a new object), so objects ``doc`` shares with another document are
    left unchanged; ``blame`` leads the error when the path has an empty
    key or runs through a non-object.
    """
    node = doc
    *parents, last = keys = dotted.split(".")
    if "" in keys:
        raise ConfigError(blame, f"empty key in the dotted path {dotted!r}")
    for part in parents:
        child = node.get(part, {})
        if not isinstance(child, dict):
            raise ConfigError(blame, f"{part!r} is not an object")
        node[part] = Doc(child)
        node = node[part]
    node[last] = value


def _apply_override(cfg: dict, item: str) -> None:
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set {item!r}", "expected KEY.PATH=VALUE")
    try:
        value = json.loads(raw, object_hook=Doc)
    except json.JSONDecodeError:
        value = raw
    _set_dotted(cfg, key, value, f"--set {key}")


def _resolve_config(args) -> dict:
    cfg = Doc()
    if args.config:
        cfg = _read_json("--config", args.config)
        if not isinstance(cfg, dict):
            raise ConfigError(f"--config {args.config}", "top level must be a JSON object")
    for item in args.overrides:
        _apply_override(cfg, item)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.reps is not None:
        cfg["reps"] = args.reps
    if args.tree is not None:
        if cfg.get("tree") is not None:
            raise ConfigError("tree", "give an inline tree or --tree FILE, not both")
        cfg["tree"] = Doc({"path": args.tree})
    return cfg


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_QUOTED = frozenset(',"\r\n')


def _fmt_text(value) -> str:
    """``_fmt_cell`` of ``value``, quoted as ``csv.writer`` quotes a field."""
    text = _fmt_cell(value)
    if _QUOTED.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _fmt_column(col) -> tuple[str, list | None]:
    """A column as a ``str.format`` field and the values it takes: an
    all-float column keeps its floats for ``.17g`` and an all-int one its
    ints; any other column becomes its cells' text, each cell object
    formatted once however often it repeats.  A constant column,
    ``itertools.repeat(value)``, is formatted once into the field itself."""
    if isinstance(col, itertools.repeat):
        return _fmt_text(next(col)).replace("{", "{{").replace("}", "}}"), None
    types = set(map(type, col))
    if types == {float}:
        return "{:.17g}", col
    if types == {int}:
        return "{:d}", col
    texts = {}  # id -> text: the column holds every cell, so no id is reused
    return "{}", [texts[i] if (i := id(v)) in texts else texts.setdefault(i, _fmt_text(v)) for v in col]


def _write_csv(path: str, header: list[str], blocks: list) -> None:
    """The CSV table ``header`` then each block's rows, byte for byte as
    ``csv.writer`` writes the ``_fmt_cell`` text of the cells.  A block is a
    sequence of equal-length columns, one of them at least not constant."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for block in blocks:
            pairs = list(map(_fmt_column, block))
            columns = [values for _, values in pairs if values is not None]
            if [field for field, _ in pairs] == ["{}"]:  # csv.writer quotes a lone empty field
                columns = [[cell or '""' for cell in columns[0]]]
            line = ",".join(field for field, _ in pairs) + "\r\n"
            fh.write("".join(map(line.format, *columns)))


_CONTAINERS = (dict, list, tuple)


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=False)


def _encode(value, pad: str = "") -> str:
    """JSON text of a report: objects indented by two spaces with sorted
    keys, a list of scalars on one line, and a list that holds a container
    with one compact item per line.  The lines themselves go through the C
    encoder (``json.dumps`` without ``indent``); a non-finite float raises
    ``ValueError``."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{_dumps(str(key))}: {_encode(value[key], inner)}" for key in sorted(value)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)) and any(
        issubclass(kind, _CONTAINERS) for kind in set(map(type, value))
    ):
        return "[\n" + ",\n".join(inner + _dumps(item) for item in value) + f"\n{pad}]"
    return _dumps(value)


# each flag a subcommand may take besides --config, --set and --out, with
# its `add_argument` keywords; an unset flag reads as its `_build_parser` default
_FLAGS = {
    "--seed": dict(type=int, help="override the config seed"),
    "--reps": dict(type=int, help="override the replicate count"),
    "--threads": dict(
        type=int, help=f"worker cap for replicate loops, 1 to {_MAX_THREADS} (default 1)"
    ),
    "--strict": dict(action="store_true", help="exit 3 when any verdict is NotCovered"),
    "--csv": dict(metavar="FILE", help="also write the subcommand's CSV table"),
    "--tree": dict(metavar="FILE", help='shorthand for tree={"path": FILE}'),
}

# subcommand -> (its function, the flags it reads, its help); a flag it does
# not read is not offered, so giving one is a usage error
_COMMANDS = {
    "classify": (_cmd_classify, ("--strict", "--csv"),
                 "membership verdicts for one point or a 'points' list"),
    "sweep": (_cmd_sweep, ("--strict", "--csv"),
              "cartesian classify sweep over 'vary' lists, CSV-oriented"),
    "sample": (_cmd_sample, ("--seed", "--csv"),
               "draw one coefficient tree from a spike-and-slab prior"),
    "norm": (_cmd_norm, ("--tree",),
             "Besov sequence norm of a stored or inline tree"),
    "verify": (_cmd_verify, ("--seed", "--reps", "--threads", "--strict", "--csv"),
               "Monte Carlo slope or membership check against theory"),
    "lln": (functools.partial(_experiment, "lln_experiment"), ("--seed", "--reps", "--threads", "--csv"),
            "per-level law-of-large-numbers sanity experiment"),
    "evt": (functools.partial(_experiment, "evt_experiment"), ("--seed", "--reps", "--threads", "--csv"),
            "per-level extreme-value normalization experiment"),
    "synth": (_cmd_synth, ("--csv", "--tree"),
              "render a tree on a dyadic grid via the wavelet basis"),
    "cwt-sample": (_cmd_cwt_sample, ("--seed", "--csv"),
                   "draw Poisson atoms, optionally project onto the basis"),
    "cwt-verify": (_cmd_cwt_verify, ("--threads", "--csv"),
                   "kernel decay bounds, optionally a moment experiment"),
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
    common.add_argument("--out", metavar="FILE", help="write the JSON report here (default stdout)")
    common.set_defaults(seed=None, reps=None, threads=1, strict=False, csv=None, tree=None)

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, flags, text) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_OK if code in (0, None) else EXIT_USAGE

    if not 1 <= args.threads <= _MAX_THREADS:
        bound = f"--threads must be in [1, {_MAX_THREADS}], got {args.threads}"
        print(f"besovlab: {bound}", file=sys.stderr)
        return EXIT_USAGE

    try:
        cfg = _resolve_config(args)
        _check_outputs(cfg, args)
        echo, result, table, flagged = _COMMANDS[args.command][0](cfg, args.threads)
        report = {"command": args.command, "config": echo, "result": result}
        try:
            text = _encode(report) + "\n"
        except ValueError as exc:
            raise ValueError(f"the report holds a non-finite number ({exc})") from exc
    except ValueError as exc:
        print(f"besovlab {args.command}: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"besovlab {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

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
