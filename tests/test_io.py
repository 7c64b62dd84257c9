"""Tests for the JSON instance/result file formats."""

import json
import math
import re

import pytest

from waterline import (
    FAMILIES, AscendingProblem, BoxProblem, FairProblem, LogCapacity,
    ScenarioSpec, SchemaError, SimplexProblem, SolverConfig, build_instance,
    instance_from_dict, instance_to_dict, load_instance, problem_class,
    result_to_dict, save_instance, solve_box)
from waterline.io import dumps

from conftest import random_ascending, random_box, random_simplex


def _round_trip(problem):
    return instance_from_dict(json.loads(json.dumps(instance_to_dict(problem))))


def test_simplex_round_trip(rng):
    problem = random_simplex("log_capacity", rng, 3, with_lower=True)
    clone = _round_trip(problem)
    assert isinstance(clone, SimplexProblem)
    assert clone.budget == problem.budget
    assert clone.lower_bounds == problem.lower_bounds
    assert [o.to_params() for o in clone.objectives] == \
        [o.to_params() for o in problem.objectives]
    assert instance_to_dict(clone) == instance_to_dict(problem)


def test_box_round_trip_with_infinite_upper(rng):
    problem = random_box("inverse_mse", rng, 4)
    clone = _round_trip(problem)
    assert isinstance(clone, BoxProblem)
    assert clone.upper_bounds == problem.upper_bounds
    assert instance_to_dict(clone) == instance_to_dict(problem)


def test_ascending_round_trip(rng):
    problem = random_ascending("af_relay", rng, 3)
    clone = _round_trip(problem)
    assert isinstance(clone, AscendingProblem)
    assert clone.prefix_budgets == problem.prefix_budgets
    assert instance_to_dict(clone) == instance_to_dict(problem)


def test_fair_round_trip():
    problem = FairProblem([[LogCapacity(1, 2, 1)], [LogCapacity(1, 1, 1)]],
                          3.0, upper_bounds=[[2.5], [None]])
    clone = _round_trip(problem)
    assert isinstance(clone, FairProblem)
    assert clone.mode == "maxmin"
    assert clone.upper_bounds == problem.upper_bounds
    assert instance_to_dict(clone) == instance_to_dict(problem)


def test_float_precision_survives_round_trip():
    value = 0.1 + 0.2  # not representable prettily
    problem = SimplexProblem([LogCapacity(value, 1.0, value)], value)
    clone = _round_trip(problem)
    assert clone.budget == value
    assert clone.objectives[0].w == value


def test_unknown_field_rejected():
    doc = instance_to_dict(SimplexProblem([LogCapacity(1, 1, 1)], 1.0))
    doc["surprise"] = 1
    with pytest.raises(SchemaError) as err:
        instance_from_dict(doc)
    assert "surprise" in str(err.value)


def test_unknown_problem_class_rejected():
    with pytest.raises(SchemaError) as err:
        instance_from_dict({"problem_class": "p9"})
    assert "problem_class" in str(err.value)


def test_bad_objective_field_named_in_diagnostic():
    doc = {"problem_class": "p1", "budget": 1.0,
           "objectives": [{"family": "log_capacity", "w": 1, "a": 1, "b": 1},
                          {"family": "bogus"}]}
    with pytest.raises(SchemaError) as err:
        instance_from_dict(doc)
    assert "objectives[1]" in str(err.value)


def test_p1_class_requires_zero_lower_bounds():
    doc = {"problem_class": "p1", "budget": 1.0, "lower_bounds": [0.5],
           "objectives": [{"family": "log_capacity", "w": 1, "a": 1, "b": 1}]}
    with pytest.raises(SchemaError):
        instance_from_dict(doc)


def test_invariants_rechecked_on_load():
    doc = {"problem_class": "p1_lower", "budget": 1.0,
           "lower_bounds": [0.8, 0.8],
           "objectives": [{"family": "log_capacity", "w": 1, "a": 1, "b": 1},
                          {"family": "log_capacity", "w": 1, "a": 1, "b": 1}]}
    with pytest.raises(SchemaError):
        instance_from_dict(doc)


def test_problem_class_tags(rng):
    assert problem_class(random_simplex("log_capacity", rng, 2)) == "p1"
    assert problem_class(
        random_simplex("log_capacity", rng, 2, with_lower=True)) == "p1_lower"
    assert problem_class(random_box("log_capacity", rng, 2)) == "box"
    assert problem_class(random_ascending("log_capacity", rng, 2)) == "ascending"


def test_file_round_trip(tmp_path, rng):
    problem = random_box("log_capacity", rng, 3)
    path = tmp_path / "instance.json"
    save_instance(problem, str(path))
    clone = load_instance(str(path))
    assert instance_to_dict(clone) == instance_to_dict(problem)


def test_result_document_shape(rng):
    problem = random_box("log_capacity", rng, 3)
    alloc = solve_box(problem)
    doc = result_to_dict(problem, alloc, solver="box:order", strategy="order",
                         cfg=SolverConfig(), wall_time=0.01)
    assert doc["problem_class"] == "box"
    assert doc["powers"] == alloc.powers
    assert doc["status"] == alloc.status
    assert doc["config"]["box_strategy"] == "order"
    json.dumps(doc)  # serializable


@pytest.mark.parametrize("field,value", [("upper_bounds", [float("nan"), 5.0]),
                                         ("budget", float("inf"))])
def test_non_finite_input_rejected_on_load(tmp_path, field, value):
    doc = {"problem_class": "box", "budget": 6.0,
           "objectives": [{"family": "log_capacity", "w": 1.0, "a": 1.0, "b": 1.0}] * 2,
           "upper_bounds": [1.0, None]}
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="finite|NaN"):
        load_instance(str(path))


def test_scenario_bank_round_trips_exactly(tmp_path):
    problem = build_instance(ScenarioSpec(antennas=2, taps=3, subcarriers=8,
                                          gamma=0.4, tau=1.6, seed=3), 1)
    path = tmp_path / "instance.json"
    save_instance(problem, str(path))
    clone = load_instance(str(path))
    assert clone.channels.family == "inverse_mse" and clone.channels._objects is None
    for name in "wab":
        assert getattr(clone.channels, name).tolist() == \
            getattr(problem.channels, name).tolist()
    assert (clone.budget, clone.lower_bounds, clone.upper_bounds) == \
        (problem.budget, problem.lower_bounds, problem.upper_bounds)
    assert solve_box(clone) == solve_box(problem)
    assert instance_to_dict(clone) == instance_to_dict(problem)


def _record(family, **params):
    return dict({"family": family, "w": 1.0, "a": 0.5, "b": 1.0}, **params)


def test_closed_form_records_load_as_one_bank():
    doc = {"problem_class": "ascending", "prefix_budgets": [1.0, 2.0, 3.0],
           "objectives": [_record("log_capacity"), _record("af_relay", a=0.25),
                          _record("inverse_mse", w=2)]}
    problem = instance_from_dict(doc)
    assert problem.channels.banked and problem.channels.family is None
    assert [o.to_params() for o in problem.objectives] == \
        [_record("log_capacity"), _record("af_relay", a=0.25),
         _record("inverse_mse", w=2.0)]


@pytest.mark.parametrize("odd", [
    {"family": "sum_log", "w": [1.0], "a": 1.0, "b": 1.0, "c": [1.0], "d": [1.0]},
    {"family": "sum_inverse_mse", "w": [1.0, 2.0], "a": 1.0, "b": 1.0,
     "c": [1.0, 1.0], "d": [1.0, 0.5]},
    _record("log_capacity", w=True),
], ids=["sum_log", "sum_inverse_mse", "bool_parameter"])
def test_other_records_load_through_the_objects(odd):
    doc = {"problem_class": "box", "budget": 2.0,
           "objectives": [_record("log_capacity"), odd]}
    problem = instance_from_dict(doc)
    assert [type(o) for o in problem.objectives] == \
        [LogCapacity, FAMILIES[odd["family"]]]
    assert solve_box(problem).status == "optimal"


@pytest.mark.parametrize("record,message", [
    (_record("inverse_mse", w=float("nan")),
     "objectives[1]: parameter w must be finite and positive, got nan"),
    (_record("af_relay", b=0),
     "objectives[1]: parameter b must be finite and positive, got 0.0"),
    (_record("log_capacity", a=float("-inf")),
     "objectives[1]: parameter a must be finite and positive, got -inf"),
    (_record("log_capacity", c=1.0), "objectives[1]: bad parameters"),
    (_record("log_capacity", w="1"), None),
])
def test_bad_closed_form_record_named(record, message):
    doc = {"problem_class": "p1", "budget": 1.0,
           "objectives": [_record("log_capacity"), record, _record("log_capacity")]}
    if message is None:  # a string the constructor's float() reads, as before
        assert instance_from_dict(doc).objectives[1].w == 1.0
        return
    with pytest.raises(SchemaError) as err:
        instance_from_dict(doc)
    assert err.value.field == "objectives[1]"
    assert str(err.value).startswith(message)


def _bank_doc(family="inverse_mse", k=1024):
    return {"problem_class": "box", "budget": float(k),
            "objectives": [_record(family, w=1.0 + i / k, a=0.25 + 0.5 * i / k)
                           for i in range(k)],
            "lower_bounds": [0.0] * k, "upper_bounds": [2.0] * k}


_DELETE = object()


def _set(path, value):
    """Edit a K = 1024 bank document at ``path`` (keys and indices)."""
    def edit(doc):
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
        return doc
    return edit


# Each edit leaves one fault in a bank document.  The bank path falls back to
# the per-record loader, which names the fault with these fields and messages.
@pytest.mark.parametrize("edit,family,field,message", [
    (_set(("objectives", 5, "w"), False), "inverse_mse", "objectives[5]",
     "parameter w must be finite and positive, got 0.0"),
    (_set(("objectives", 5, "a"), "-1"), "inverse_mse", "objectives[5]",
     "parameter a must be finite and positive, got -1.0"),
    (_set(("objectives", 5, "c"), 1.0), "inverse_mse", "objectives[5]",
     "bad parameters: .*unexpected keyword argument 'c'"),
    (_set(("objectives", 9, "b"), _DELETE), "inverse_mse", "objectives[9]",
     "bad parameters: .*missing 1 required positional argument: 'b'"),
    (_set(("objectives", 5, "family"), 7), "inverse_mse", "objectives[5]",
     "unknown objective family: 7"),
    (_set(("objectives", 5, "family"), "log_capacity_x"), "inverse_mse",
     "objectives[5]", "unknown objective family: 'log_capacity_x'"),
    (_set(("objectives", 5, "family"), ["log_capacity"]), "inverse_mse",
     "objectives[5]", "bad parameters: unhashable type: 'list'"),
    (_set(("objectives", 700, "a"), 1.5), "af_relay", "objectives[700]",
     r"af_relay requires 0 < a < 1, got 1\.5"),
    (_set(("lower_bounds", 3), None), "inverse_mse", "lower_bounds[3]",
     "expected a number"),
    (_set(("upper_bounds", 9), True), "inverse_mse", "upper_bounds[9]",
     "expected a number"),
    (_set(("lower_bounds",), []), "inverse_mse", "lower_bounds",
     "expected a non-empty array of numbers"),
], ids=["bool_w", "string_a", "extra_key", "missing_key", "number_family",
        "unknown_family", "list_family", "af_relay_a_700", "null_lower",
        "true_upper", "empty_lower"])
def test_bank_loader_names_the_fault(edit, family, field, message):
    with pytest.raises(SchemaError) as err:
        instance_from_dict(edit(_bank_doc(family)))
    assert err.value.field == field
    assert re.fullmatch(re.escape(f"{field}: ") + message, str(err.value))


def test_bank_loader_reads_ints_as_floats_and_copies():
    doc = _bank_doc("af_relay", k=4)
    doc["objectives"][1].update(w=2, b=3)
    doc["lower_bounds"][2] = 1
    problem = instance_from_dict(doc)
    assert problem.channels.family == "af_relay"
    assert problem.channels.w.dtype == float and problem.channels.w[1] == 2.0
    assert problem.channels.b.tolist() == [1.0, 3.0, 1.0, 1.0]
    assert [type(x) for x in problem.lower_bounds] == [float] * 4
    before = instance_to_dict(problem)
    doc["objectives"][0]["w"] = 9.0
    doc["lower_bounds"][0] = 0.5
    doc["upper_bounds"][3] = 0.1
    assert instance_to_dict(problem) == before


def test_writer_writes_json_dump_bytes(tmp_path):
    problem = build_instance(ScenarioSpec(antennas=2, taps=3, subcarriers=8,
                                          gamma=0.4, tau=1.6, seed=3), 1)
    path = tmp_path / "instance.json"
    save_instance(problem, str(path))
    assert path.read_text() == json.dumps(instance_to_dict(problem), indent=2) + "\n"
    doc = result_to_dict(problem, solve_box(problem), solver="box:order",
                         strategy="order", cfg=SolverConfig(), wall_time=0.01)
    assert dumps(doc) == json.dumps(doc, indent=2)
