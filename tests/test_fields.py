"""The shared config readers: typed fields and dotted error paths."""

import math

import pytest

from besovlab.cli import _read, _tagged
from besovlab.distributions import Gaussian
from besovlab.fields import (
    ConfigError, Doc, block, integer, known, natural, number, numbers, string, under,
)
from besovlab.sampler import PriorSpec, tree_from_dict
from besovlab.schedules import LevelSchedule


def schedule(doc):
    return _read(LevelSchedule, doc)


def message(call, *args):
    with pytest.raises(ConfigError) as info:
        call(*args)
    return str(info.value)


@pytest.mark.parametrize("value", [True, False, "1.5", None, [1.0], {"v": 1}])
def test_number_refuses_what_is_not_a_real_number(value):
    assert message(number, {"x": value}, "x").startswith("x: expected a number")


@pytest.mark.parametrize("spelling", ["inf", "Infinity", "INF"])
def test_number_reads_the_inf_spellings(spelling):
    assert number({"x": spelling}, "x") == math.inf


def test_number_converts_integers_and_keeps_defaults():
    assert number({"x": 3}, "x") == 3.0 and type(number({"x": 3}, "x")) is float
    assert number({}, "x", 0.5) == 0.5
    assert number({"x": None}, "x", None) is None
    assert message(number, {"x": 10**400}, "x") == f"x: {10**400} is out of range for a float"


def test_integer_and_string_are_strict():
    assert integer({"n": 4}, "n") == 4
    assert message(integer, {"n": 4.0}, "n") == "n: expected an integer, got 4.0"
    assert message(integer, {"n": True}, "n") == "n: expected an integer, got True"
    assert message(string, {"s": 1}, "s") == "s: expected a string, got 1"
    assert natural({"seed": 0}, "seed") == 0
    assert natural({}, "seed", 7) == 7
    assert message(natural, {"seed": -1}, "seed") == "seed: expected an integer >= 0, got -1"
    assert message(natural, {"seed": 1.0}, "seed") == "seed: expected an integer, got 1.0"


def test_missing_field_and_non_object():
    assert message(number, {}, "c") == "c: required field is missing"
    assert message(number, [1.0], "c") == "expected a JSON object, got [1.0]"


def test_paths_join_keys_with_dots_and_indices_without():
    def read(doc):
        with under("points"):
            return [block(schedule, doc, i) for i in range(len(doc))]

    assert message(read, [{"c": 1.0}, {"c": 1.0, "e": True}]) == (
        "points[1].e: expected a number, got True"
    )
    assert message(numbers, {"u": [1.0, "x"]}, "u") == "u[1]: expected a number, got 'x'"


def test_under_leads_validator_errors_with_the_block():
    def invalid():
        with under("slab"):
            Gaussian(-1.0)

    assert message(invalid) == "slab: sigma must be positive, got -1.0"


def test_under_lets_a_key_error_through():
    # a missing field is a ConfigError of its reader, so a KeyError is a bug, shown as itself
    with pytest.raises(KeyError, match="j0"):
        with under("tree"):
            raise KeyError("j0")


def test_from_dicts_name_the_nested_field():
    doc = {"tau": {"c": 1.0}, "pi": {"c": 1.0}, "slab": {"family": "gaussian"}}
    assert message(_read, PriorSpec, {**doc, "mode": {"kind": "infinite"}}) == (
        "mode.j_max: required field is missing"
    )
    assert message(_read, PriorSpec, {**doc, "slab": {"family": "gaussian", "sigma": "2"}}) == (
        "slab.sigma: expected a number, got '2'"
    )
    assert message(_tagged("family"), {"family": "normal"}) == "family: unknown slab family: 'normal'"
    tree = {"j0": 0, "scaling": [0.0], "levels": [{"j": 0, "k": [0], "w": [1.0]}, {"j": 1}]}
    assert message(tree_from_dict, tree) == "levels[1].k: required field is missing"


def test_known_refuses_the_first_unread_value_in_document_order():
    doc = Doc({"c": 1.0, "e": None, "f": 2.0, "g": 3.0})
    number(doc, "c")
    assert message(known, doc) == "f: unknown field"  # a null value reads as absent
    number(doc, "f")
    number(doc, "g")
    known(doc)
    known({"x": 1.0})  # a plain dict records no reads, so nothing is refused


def test_block_refuses_a_key_its_parser_did_not_read():
    doc = Doc({"tau": Doc({"c": 1.0, "ee": 1.5}), "pi": Doc({"c": 1.0, "e": 0.5})})
    assert message(block, schedule, doc, "tau") == "tau.ee: unknown field"
    assert block(schedule, doc, "pi") == LevelSchedule(1.0, 0.5)
    assert doc.read == {"tau", "pi"}


def test_a_null_field_reads_as_its_default():
    doc = Doc({"x": None, "n": None, "s": None, "tau": None})
    assert number(doc, "x", 0.5) == 0.5
    assert integer(doc, "n", 100) == 100
    assert string(doc, "s", "simple") == "simple"
    default = LevelSchedule(2.0)
    assert block(schedule, doc, "tau", default) is default
    assert numbers(doc, "x", None) is None
    assert doc.read == {"x", "n", "s", "tau"}
    # with no default, a null field fails in its reader
    assert message(number, doc, "x") == "x: expected a number, got None"
    assert message(block, schedule, doc, "tau") == "tau: expected a JSON object, got None"
