"""Output checks for the benchmark's CLI invocations.

Every check is a property that holds for any workload seed, not a golden
byte comparison, so a change that alters seeded draws still passes when its
outputs are right.  A failed check raises ``CheckFailed`` with a short
message; the runner counts it toward ``failed``.

The tree reader accepts both the per-entry ``"entries": [[k, w], ...]``
level form and a columnar ``"k": [...], "w": [...]`` form, so a change of
the report's tree layout is checked by the same code.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

DECISIONS = {"MemberAS", "NotMemberAS", "NotCovered"}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want))


def tree_levels(tree: dict) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """``(j, k, w)`` per level of a report's tree, checked against the
    ``Level``/``CoefficientTree`` invariants: levels contiguous from ``j0``,
    positions strictly increasing in ``[0, 2^j)``, stored values nonzero and
    finite, ``2^j0`` scaling values."""
    j0 = tree["j0"]
    _require(isinstance(j0, int) and j0 >= 0, f"tree.j0 {j0!r}")
    _require(len(tree["scaling"]) == 2**j0, "tree.scaling length")
    out = []
    for i, level in enumerate(tree["levels"]):
        j = level["j"]
        _require(j == j0 + i, f"level {i} has j={j}, expected {j0 + i}")
        if "entries" in level:
            entries = level["entries"]
            k = np.asarray([e[0] for e in entries], dtype=np.int64)
            w = np.asarray([e[1] for e in entries], dtype=np.float64)
        else:
            k = np.asarray(level["k"], dtype=np.int64)
            w = np.asarray(level["w"], dtype=np.float64)
        _require(k.shape == w.shape, f"level {j}: k and w lengths differ")
        if k.size:
            _require(k[0] >= 0 and k[-1] < 2**j, f"level {j}: position out of range")
            _require(np.all(np.diff(k) > 0), f"level {j}: positions not increasing")
            _require(np.all(w != 0.0) and np.all(np.isfinite(w)), f"level {j}: zero or non-finite value")
        out.append((j, k, w))
    return out


def check_sample(files: dict[str, str]) -> None:
    result = _load(files["report"])["result"]
    levels = tree_levels(result["tree"])
    counts = result["nonzero_counts"]
    _require(counts == [int(k.size) for _, k, _ in levels], "nonzero_counts differ from the levels")
    header, rows = _csv(files["csv"])
    _require(header == ["j", "k", "w"], f"csv header {header}")
    _require(sum(counts) == len(rows), f"nonzero_counts sum {sum(counts)} != {len(rows)} csv rows")
    _require(sum(counts) > 0, "empty tree")
    col_j = np.asarray([int(r[0]) for r in rows], dtype=np.int64)
    col_k = np.asarray([int(r[1]) for r in rows], dtype=np.int64)
    col_w = np.asarray([float(r[2]) for r in rows], dtype=np.float64)
    json_j = np.concatenate([np.full(k.size, j, dtype=np.int64) for j, k, _ in levels])
    json_k = np.concatenate([k for _, k, _ in levels])
    json_w = np.concatenate([w for _, _, w in levels])
    _require(np.array_equal(col_j, json_j), "csv j column differs from the report")
    _require(np.array_equal(col_k, json_k), "csv k column differs from the report")
    _require(np.array_equal(col_w, json_w), "csv w column differs from the report")


def dense_norm(tree: dict, s: float, p: float, q: float) -> float:
    """Besov sequence norm recomputed on dense level vectors (as c10 does)."""

    def level_norm(full: np.ndarray) -> float:
        if math.isinf(p):
            return float(np.max(np.abs(full))) if full.size else 0.0
        return float(np.sum(np.abs(full) ** p) ** (1.0 / p))

    total = level_norm(np.asarray(tree["scaling"], dtype=np.float64))
    weight = s + 0.5 - (0.0 if math.isinf(p) else 1.0 / p)
    terms = []
    for j, k, w in tree_levels(tree):
        full = np.zeros(2**j)
        full[k] = w
        terms.append(2.0 ** (j * weight) * level_norm(full))
    if not terms:
        return total
    if math.isinf(q):
        return total + max(terms)
    return total + float(sum(a**q for a in terms) ** (1.0 / q))


def check_norm(files: dict[str, str]) -> None:
    doc = _load(files["report"])
    bp = doc["config"]["besov"]
    value = doc["result"]["norm"]
    want = dense_norm(_load(files["tree"])["result"]["tree"], float(bp["s"]), float(bp["p"]), float(bp["q"]))
    _require(_close(value, want, 1e-12), f"norm {value!r} != dense {want!r}")


def _cell_matches(cell: str, value, shown: dict[str, str]) -> bool:
    if isinstance(value, dict):
        return cell == shown[json.dumps(value, sort_keys=True)]
    if isinstance(value, str):
        return cell == value
    return float(cell) == float(value)


def check_sweep(files: dict[str, str]) -> None:
    vary = _load(files["config"])["vary"]
    rows = _load(files["report"])["result"]["rows"]
    expect = math.prod(len(values) for values in vary.values())
    _require(len(rows) == expect, f"{len(rows)} rows, expected {expect}")
    bad = {r["decision"] for r in rows} - DECISIONS
    _require(not bad, f"unexpected decisions {sorted(bad)}")
    header, table = _csv(files["csv"])
    names = sorted(vary)
    _require(header == names + ["decision", "case_id", "threshold"], f"csv header {header}")
    _require(len(table) == len(rows), f"{len(table)} csv rows, {len(rows)} report rows")
    # the CSV shows an object-valued override as Python's str() of the
    # config value, whose key order the JSON report does not keep
    shown = {
        json.dumps(v, sort_keys=True): str(v)
        for values in vary.values()
        for v in values
        if isinstance(v, dict)
    }
    for i, (cells, rec) in enumerate(zip(table, rows)):
        for name, cell in zip(names, cells):
            _require(_cell_matches(cell, rec["overrides"][name], shown), f"row {i}: {name} differs")
        decision, case_id, threshold = cells[len(names) :]
        _require(decision == rec["decision"] and case_id == rec["case_id"], f"row {i}: verdict differs")
        if rec["threshold"] is None:
            _require(threshold == "", f"row {i}: threshold differs")
        else:
            _require(float(threshold) == rec["threshold"], f"row {i}: threshold differs")


def check_verify(files: dict[str, str]) -> None:
    result = _load(files["report"])["result"]
    _require(result["agree"] is True, f"agree={result['agree']!r} ({result['empirical_verdict']})")
    _require(result["dropped_fraction"] <= 0.2, f"dropped_fraction {result['dropped_fraction']}")


def check_evt(files: dict[str, str]) -> None:
    result = _load(files["report"])["result"]
    expected = result["expected_ratio"]
    for level in result["levels"]:
        ratio = level["median"] / expected
        # c04's tolerance
        _require(abs(ratio - 1.0) <= 0.07, f"level {level['j']}: median/expected {ratio:.4f}")
    with open(files["report"], "rb") as a, open(files["reference"], "rb") as b:
        _require(a.read() == b.read(), "report differs from the --threads 1 report")


def check_cwt_sample(files: dict[str, str]) -> None:
    result = _load(files["report"])["result"]
    header, rows = _csv(files["csv"])
    _require(header == ["a", "b", "omega"], f"csv header {header}")
    _require(result["count"] == len(rows), f"count {result['count']} != {len(rows)} csv rows")
    _require(result["count"] > 0, "no atoms")
    tree_levels(result["tree"])


def check_synth(files: dict[str, str], points: int) -> None:
    result = _load(files["report"])["result"]
    _require(result["count"] == points, f"count {result['count']} != {points}")
    header, rows = _csv(files["csv"])
    _require(header == ["x", "value"] and len(rows) == points, "csv shape")
    values = np.asarray([float(r[1]) for r in rows])
    energy = float(np.mean(values * values))
    _require(_close(result["energy"], energy, 1e-12), f"energy {result['energy']!r} != csv {energy!r}")


def check_cwt_verify(files: dict[str, str]) -> None:
    slope = _load(files["report"])["result"]["moment"]["slope"]
    # c08's criterion
    _require(slope is not None and slope <= -1.3, f"moment slope {slope!r}")
