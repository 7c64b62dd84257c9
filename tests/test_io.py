"""Tests for the JSON instance/result file formats."""

import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from waterline import (
    FAMILIES, AfRelay, AscendingProblem, BoxProblem, CustomObjective, FairProblem,
    InverseMse, LogCapacity, ScenarioSpec, SchemaError, SimplexProblem, SolverConfig,
    SumInverseMse, SumLog, build_instance, instance_from_dict, instance_to_dict,
    load_instance, objective_from_params, problem_class, result_to_dict, save_instance,
    solve_box, solve_p1_lower)
from waterline.cli import main
from waterline.io import dumps
from waterline.objectives import Channels, _SumFamily

from conftest import layout, random_ascending, random_box, random_simplex


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


CLOSED_FORM_RECORDS = {"problem_class": "ascending", "prefix_budgets": [1.0, 2.0, 3.0],
                       "objectives": [_record("log_capacity"), _record("af_relay", a=0.25),
                                      _record("inverse_mse", w=2)]}


def test_closed_form_records_load_as_one_bank():
    problem = instance_from_dict(CLOSED_FORM_RECORDS)
    assert layout(problem.channels) == [LogCapacity, InverseMse, AfRelay]
    assert problem.channels.family is None
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


@pytest.mark.parametrize("record,message", [
    (_record("log_capacity", a="abc"), "could not convert string to float: 'abc'"),
    ({"family": "sum_log", "w": [1.0], "a": 1.0, "b": 1.0, "c": ["x"], "d": [1.0]},
     "could not convert string to float: 'x'"),
], ids=["string_a", "string_c_j"])
def test_unreadable_number_named(record, message):
    doc = {"problem_class": "p1", "budget": 1.0, "objectives": [record]}
    with pytest.raises(SchemaError) as err:
        instance_from_dict(doc)
    assert err.value.field == "objectives[0]"
    assert str(err.value) == f"objectives[0]: bad parameters: {message}"


def _sum_record(family, w, c, d, a=0.8, b=1.2):
    return {"family": family, "w": w, "a": a, "b": b, "c": c, "d": d}


SUM_RECORDS = {"problem_class": "p1_lower", "budget": 6.0, "objectives": [
    _sum_record("sum_inverse_mse", [1.0, 2.0], [0.5, 1.0], [1.0, 2]),
    _record("af_relay", a=0.25),
    _sum_record("sum_log", [1.5], [2.0], [0.5], a=2, b=0.5),
    _record("log_capacity"),
    _sum_record("sum_inverse_mse", [0.5, 1.0, 1.5], [1.0, 1.0, 2.0], [0.25, 0.5, 1.0])],
    "lower_bounds": [0.5, 0.0, 0.0, 0.25, 0.0]}


def test_sum_records_load_into_the_bank():
    records = SUM_RECORDS["objectives"]
    problem = instance_from_dict(SUM_RECORDS)
    channels = problem.channels
    assert layout(channels) == [LogCapacity, AfRelay, _SumFamily]  # the sums in one group
    assert [o.to_params() for o in problem.objectives] == \
        [objective_from_params(r).to_params() for r in records]
    objects = SimplexProblem(problem.objectives, 6.0, problem.lower_bounds)
    assert objects.channels is not channels
    assert solve_p1_lower(problem) == solve_p1_lower(objects)


@pytest.mark.parametrize("edit,message", [
    (dict(c=[1.0]), "w, c, d must have equal, nonzero lengths"),
    (dict(w=[], c=[], d=[]), "w, c, d must have equal, nonzero lengths"),
    (dict(d=[1.0, -2.0]), "parameter d_j must be finite and positive, got -2.0"),
    (dict(a=0), "parameter a must be finite and positive, got 0.0"),
    (dict(c=1.0), "bad parameters: 'float' object is not iterable"),
    (dict(e=[1.0]), "bad parameters: .*unexpected keyword argument 'e'"),
], ids=["short_c", "no_terms", "negative_d_j", "zero_a", "scalar_c", "extra_key"])
def test_bad_sum_record_named(edit, message):
    record = dict(_sum_record("sum_log", [1.0, 2.0], [1.0, 1.0], [1.0, 0.5]), **edit)
    doc = {"problem_class": "p1", "budget": 1.0,
           "objectives": [_record("log_capacity"), record]}
    with pytest.raises(SchemaError) as err:
        instance_from_dict(doc)
    assert err.value.field == "objectives[1]"
    assert re.fullmatch(re.escape("objectives[1]: ") + message, str(err.value))


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


# The columnar layout: one column per parameter.

def _columnar(doc):
    """``doc`` with its objective records rewritten by hand as columns."""
    records = doc["objectives"]
    families = [r["family"] for r in records]
    sums = [f.startswith("sum_") for f in families]
    columns = {"family": families[0] if len(set(families)) == 1 else families,
               "w": [0 if s else r["w"] for r, s in zip(records, sums)],
               "a": [r["a"] for r in records], "b": [r["b"] for r in records]}
    if any(sums):
        columns["terms"] = {key: [x for r, s in zip(records, sums) if s for x in r[key]]
                            for key in "wcd"}
        columns["terms"]["count"] = [len(r["w"]) if s else 0 for r, s in zip(records, sums)]
    return dict(doc, objectives=columns)


def _collapsed(columns):
    """A hand-made columnar block with each of ``w``, ``a`` and ``b`` that
    repeats one value written as that value (``a`` kept a list when all three
    would be), as the writer writes it."""
    same = [key for key in "wab" if len(columns[key]) > 1 and len(set(columns[key])) == 1]
    return dict(columns, **{key: columns[key][0] for key in same
                            if len(same) < 3 or key != "a"})


def _bits(values):
    return None if values is None else np.array(values, dtype=float).tobytes()


def _assert_identical(clone, problem):
    """The same problem class and bounds, and the same bank, bit for bit."""
    assert type(clone) is type(problem)
    for name in ("budget", "prefix_budgets", "lower_bounds", "upper_bounds"):
        assert _bits(getattr(clone, name, None)) == _bits(getattr(problem, name, None))
    ours, theirs = clone.channels, problem.channels
    assert ours.family == theirs.family and layout(ours) == layout(theirs)
    assert (ours._codes is None) == (theirs._codes is None)
    if ours._codes is not None:
        assert ours._codes.tobytes() == theirs._codes.tobytes()
    for name in "wab":
        assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()
    ours, theirs = ours._terms, theirs._terms
    assert (ours is None) == (theirs is None)
    for mine, other in zip(ours or (), theirs or ()):
        assert mine.dtype == other.dtype and mine.tobytes() == other.tobytes()


_FIVE = [SumInverseMse([1.0, 2.0, 0.5], 0.8, 1.5, [1.0, 0.5, 2.0], [0.7, 1.0, 1.2]),
         LogCapacity(1.0, 2.0, 1.0),
         SumLog([1.0, 0.5], 1.0, 1.0, [1.0, 2.0], [1.0, 0.5]),
         AfRelay(0.05, 0.5, 1.0), InverseMse(1.0, 0.5, 2.0),
         SumInverseMse([0.8, 1.2], 1.2, 0.6, [0.5, 1.0], [2.0, 1.0]),
         SumLog([0.1], 4.0, 0.2, [1.0], [1.0])]


@pytest.mark.parametrize("make", [
    lambda: BoxProblem(Channels.from_arrays("inverse_mse", [1.0, 2.0, 0.5], [0.3, 1.7, 0.9],
                                            [1.0, 1.0, 0.0]), 3.0, [0.0, 0.5, 0.0],
                       [None, 2.0, 1.0 / 3.0]),
    lambda: AscendingProblem([LogCapacity(1.0, 0.1 + 0.2, 0.5), AfRelay(2.0, 0.75, 1.0),
                              InverseMse(0.5, 3.0, 0.0), LogCapacity(1e-300, 1e300, 0.0)],
                             [1.0, 2.0, 2.5, 4.0], None, [0.75, None, None, 2.0]),
    lambda: BoxProblem([SumLog([1.0, 0.5], 1.0, 1.0, [1.0, 2.0], [1.0, 0.5]),
                        SumInverseMse([1.0, 2.0, 0.5], 0.8, 1.5, [1.0, 0.5, 2.0], [0.7, 1.0, 1.2]),
                        SumLog([2.0], 0.5, 2.0, [1.5], [1.0])], 5.0, None, [None, 1.2, None]),
    lambda: SimplexProblem(_FIVE, 7.0, [0.0, 0.5, 0.0, 0.0, 0.25, 0.0, 0.0]),
    lambda: BoxProblem(Channels(_FIVE).take(np.array([4, 1, 3])), 2.0, None, [1.0, None, 1.0]),
], ids=["single_family", "mixed_closed_form", "sum_only", "five_families_out_of_order",
        "sums_taken_away"])
def test_columnar_round_trip_is_bit_identical(tmp_path, make):
    problem = make()
    path = tmp_path / "instance.json"
    save_instance(problem, str(path))
    text = path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, allow_nan=False) + "\n"
    columns = doc["objectives"]
    assert list(columns)[:4] == ["family", "w", "a", "b"]
    assert ("terms" in columns) == any(f.startswith("sum_") for f in
                                       [o.family for o in problem.objectives])
    clone = load_instance(str(path))
    _assert_identical(clone, problem)
    assert [o.to_params() for o in clone.objectives] == \
        [o.to_params() for o in problem.objectives]
    assert instance_to_dict(clone) == doc


def test_columnar_layout_of_a_sum_channel():
    doc = instance_to_dict(SimplexProblem(_FIVE[:4], 4.0))
    assert doc["objectives"] == {
        "family": ["sum_inverse_mse", "log_capacity", "sum_log", "af_relay"],
        "w": [0.0, 1.0, 0.0, 0.05], "a": [0.8, 2.0, 1.0, 0.5], "b": [1.5, 1.0, 1.0, 1.0],
        "terms": {"w": [1.0, 2.0, 0.5, 1.0, 0.5], "c": [1.0, 0.5, 2.0, 1.0, 2.0],
                  "d": [0.7, 1.0, 1.2, 1.0, 0.5], "count": [3, 0, 2, 0]}}


_FIVE_RECORDS = {"problem_class": "p1", "budget": 7.0,
                 "objectives": [o.to_params() for o in _FIVE]}


@pytest.mark.parametrize("doc", [
    _bank_doc("inverse_mse"), _bank_doc("af_relay", k=4), CLOSED_FORM_RECORDS,
    SUM_RECORDS, _FIVE_RECORDS,
    {"problem_class": "box", "budget": 2.0, "objectives": [
        _record("log_capacity"),
        {"family": "sum_log", "w": [1.0], "a": 1.0, "b": 1.0, "c": [1.0], "d": [1.0]}]},
    {"problem_class": "box", "budget": 2.0, "objectives": [
        _record("log_capacity"),
        {"family": "sum_inverse_mse", "w": [1.0, 2.0], "a": 1.0, "b": 1.0,
         "c": [1.0, 1.0], "d": [1.0, 0.5]}]},
    {"problem_class": "box", "budget": 2.0, "objectives": [
        _sum_record("sum_log", [1.0, 2.0], [1.0, 1.0], [1.0, 0.5])] * 3,
     "upper_bounds": [None, 1.0, None]},
], ids=["inverse_mse_1024", "af_relay_4", "closed_form", "sums_and_closed_form",
        "five_families", "sum_log", "sum_inverse_mse", "sum_log_only"])
def test_records_and_their_columns_load_identically(doc):
    problem = instance_from_dict(doc)
    columns = _columnar(doc)
    _assert_identical(instance_from_dict(columns), problem)
    collapsed = dict(columns, objectives=_collapsed(columns["objectives"]))
    _assert_identical(instance_from_dict(collapsed), problem)
    assert instance_to_dict(problem)["objectives"] == \
        json.loads(json.dumps(collapsed["objectives"]))


def test_custom_objective_is_not_serializable():
    custom = CustomObjective(lambda p: math.log1p(p), lambda p: 1.0 / (1.0 + p))
    for problem in (SimplexProblem([LogCapacity(1, 1, 1), custom], 2.0),
                    BoxProblem([custom], 1.0),
                    FairProblem([[LogCapacity(1, 1, 1)], [custom]], 2.0)):
        with pytest.raises(SchemaError, match="objective is not serializable"):
            instance_to_dict(problem)


class _Named(CustomObjective):
    """A custom objective with a record of its own, of no family the loader knows."""

    def to_params(self) -> dict:
        return {"family": "named", "w": 1.0}


def test_custom_objective_with_its_own_record_is_not_serializable(tmp_path):
    # The one flat layout is columns, of the five bank families: a record of
    # another family would save a file that load_instance refuses.
    named = _Named(lambda p: math.log1p(p), lambda p: 1.0 / (1.0 + p))
    problem = SimplexProblem([LogCapacity(1, 1, 1), named], 2.0)
    path = tmp_path / "instance.json"
    with pytest.raises(SchemaError) as err:
        save_instance(problem, str(path))
    assert str(err.value) == "objectives: objective is not serializable"
    assert not path.exists()


class _NamedLog(LogCapacity):
    """A bank family's subclass whose record names no family the loader knows."""

    def to_params(self) -> dict:
        return dict(super().to_params(), family="named")


def test_fair_group_entry_of_no_loader_family_is_not_serializable(tmp_path):
    # The fair writer wrote the entry's own record, a file that load_instance
    # refuses with "groups[1][0]: unknown objective family: 'named'".
    problem = FairProblem([[LogCapacity(1, 1, 1)], [_NamedLog(1, 1, 1)]], 2.0)
    path = tmp_path / "instance.json"
    with pytest.raises(SchemaError) as err:
        save_instance(problem, str(path))
    assert str(err.value) == "objectives: objective is not serializable"
    assert not path.exists()


def _columnar_doc():
    return {"problem_class": "box", "budget": 8.0, "objectives": {
        "family": ["log_capacity", "sum_log", "inverse_mse", "af_relay", "sum_inverse_mse"],
        "w": [1.0, 0, 2.0, 1.0, 0], "a": [1.0, 0.8, 0.5, 0.25, 1.2],
        "b": [1.0, 1.2, 1.0, 2.0, 0.6],
        "terms": {"w": [1.0, 0.5, 0.8, 1.2], "c": [1.0, 2.0, 0.5, 1.0],
                  "d": [1.0, 0.5, 2.0, 1.0], "count": [0, 2, 0, 0, 2]}},
        "upper_bounds": [None, 2.0, None, 3.0, None]}


def _set_column(*path, value=_DELETE):
    return _set(("objectives", *path), value)


# Each edit leaves one fault in a columnar document, named by its column and
# the index of its channel (of its term, in terms).  NaN and inf are written as
# the NaN and Infinity literals that json.load accepts.
@pytest.mark.parametrize("edit,field,message", [
    (_set_column("a", 2, value=0), "objectives.a[2]",
     "parameter a must be finite and positive, got 0.0"),
    (_set_column("a", 3, value=1.5), "objectives.a[3]", r"af_relay requires 0 < a < 1, got 1\.5"),
    (_set_column("b", 0, value=-1), "objectives.b[0]",
     "parameter b must be finite and nonnegative, got -1.0"),
    (_set_column("a", 4, value=0.0), "objectives.a[4]",
     "parameter a must be finite and positive, got 0.0"),
    (_set_column("terms", "d", 3, value=-2.0), "objectives.terms.d[3]",
     r"parameter d_j must be finite and positive, got -2\.0 \(channel 4\)"),
    (_set_column("w", 0, value=float("nan")), "objectives.w[0]",
     "parameter w must be finite and positive, got nan"),
    (_set_column("b", 4, value=float("inf")), "objectives.b[4]",
     "parameter b must be finite and positive, got inf"),
    (_set_column("terms", "c", 1, value=float("-inf")), "objectives.terms.c[1]",
     r"parameter c_j must be finite and positive, got -inf \(channel 1\)"),
    (_set_column("w", 1, value=float("nan")), "objectives.w[1]",
     r"a sum channel's entry must be the placeholder 0 \(its weights are in terms.w\), got nan"),
    (_set_column("b", 4), "objectives.b[4]", "length 4, but objectives.w has length 5"),
    (_set_column("family", value=["log_capacity"] * 6), "objectives.family[5]",
     "length 6, but objectives.w has length 5"),
    (_set_column("a", 1, value="0.8"), "objectives.a[1]", "expected a number"),
    (_set_column("w", 2, value=True), "objectives.w[2]", "expected a number"),
    (_set_column("b", 0, value=None), "objectives.b[0]", "expected a number"),
    (_set_column("a", 3, value=10 ** 400), "objectives.a[3]",
     "number outside the float range"),
    (_set_column("family", 2, value="bogus"), "objectives.family[2]",
     "unknown objective family: 'bogus'"),
    (_set_column("family", value="cluster_log_capacity"), "objectives.family",
     "unknown objective family: 'cluster_log_capacity'"),
    (_set_column("terms", "count", 4, value=3), "objectives.terms.w[4]",
     "length 4, but objectives.terms.count totals 5"),
    (_set_column("terms", "c", value=[1.0] * 5), "objectives.terms.c[4]",
     "length 5, but objectives.terms.count totals 4"),
    (_set_column("terms", "count", 0, value=1), "objectives.terms.count[0]",
     "expected a whole number of terms, 0 for a closed-form family, got 1"),
    (_set_column("terms", "count", 1, value=2.0), "objectives.terms.count[1]",
     r"expected a whole number of terms, at least 1 for a sum family, got 2\.0"),
    (_set_column("terms"), "objectives.terms",
     "required field is missing: channel 1 is of a sum family"),
    (_set_column("c", value=[1.0]), "objectives.c", "unknown field"),
    (_set_column("a"), "objectives.a", "required field is missing"),
], ids=["zero_a", "af_relay_a", "negative_b", "sum_zero_a", "negative_d_j", "nan_w",
        "infinite_sum_b", "infinite_c_j", "nan_sum_w_slot", "short_b", "long_family",
        "string_a", "bool_w", "null_b", "huge_int_a", "unknown_family",
        "cluster_family", "count_total_over", "term_column_over",
        "closed_form_count", "float_count", "missing_terms", "extra_column",
        "missing_column"])
def test_columnar_loader_names_the_fault(tmp_path, edit, field, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(_columnar_doc())))
    with pytest.raises(SchemaError) as err:
        load_instance(str(path))
    assert err.value.field == field
    assert re.fullmatch(re.escape(f"{field}: ") + message, str(err.value))
    result = CliRunner().invoke(main, ["solve", str(path)])
    assert result.exit_code == 1
    assert result.output == f"error: {err.value}\n"


def test_columnar_doc_solves():
    problem = instance_from_dict(_columnar_doc())
    assert problem.upper_bounds == [math.inf, 2.0, math.inf, 3.0, math.inf]
    assert solve_box(problem).status == "optimal"


@pytest.mark.parametrize("field,path", [("budget", ("budget",)),
                                        ("lower_bounds[1]", ("lower_bounds", 1))])
def test_int_beyond_the_float_range_named(field, path):
    doc = _set(path, 10 ** 400)(dict(_columnar_doc(), lower_bounds=[0.0] * 5))
    with pytest.raises(SchemaError) as err:
        instance_from_dict(doc)
    assert str(err.value) == f"{field}: number outside the float range"


def test_taking_no_sum_channel_drops_the_terms():
    taken = Channels(_FIVE).take([4, 1, 3])
    assert taken._terms is None
    assert taken.demand(0.5).tolist() == \
        Channels([_FIVE[i] for i in (4, 1, 3)]).demand(0.5).tolist()
    none = Channels(_FIVE[:1]).take([])  # a sum family's bank keeps its (empty) terms
    assert none._terms is not None and none.rate(np.array([])).size == 0


# A column or flat bound field that repeats one value is written as that number.

def test_generated_scenario_writes_repeats_as_numbers(tmp_path):
    result = CliRunner().invoke(main, ["generate", "--subcarriers", "256", "--gamma", "0.4",
                                       "--tau", "1.6", "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    path = tmp_path / "instance_0000.json"
    text = path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert len(text.encode()) <= 28_000
    columns = doc["objectives"]
    assert [type(x) for x in (columns["w"], columns["b"], doc["lower_bounds"],
                              doc["upper_bounds"])] == [float] * 4
    assert type(columns["a"]) is list and len(columns["a"]) == 1024
    lists = dict(doc, objectives=dict(columns, w=[columns["w"]] * 1024,
                                      b=[columns["b"]] * 1024),
                 lower_bounds=[doc["lower_bounds"]] * 1024,
                 upper_bounds=[doc["upper_bounds"]] * 1024)
    clone = load_instance(str(path))
    _assert_identical(clone, instance_from_dict(lists))
    _assert_identical(clone, build_instance(ScenarioSpec(subcarriers=256, gamma=0.4, tau=1.6), 0))


@pytest.mark.parametrize("make,numbers", [
    (lambda: SimplexProblem(Channels.from_arrays(
        ["log_capacity", "inverse_mse", "af_relay"], [1.0] * 3, [0.3, 0.5, 0.7],
        [1.0, 2.0, 1.0]), 3.0), {"w"}),
    (lambda: BoxProblem([SumLog([1.0, 0.5], 1.0, 1.0, [1.0, 2.0], [1.0, 0.5]),
                         SumInverseMse([1.0, 2.0], 0.8, 1.5, [1.0, 0.5], [0.7, 1.0])],
                        3.0, [0.5, 0.5], [2.0, 2.0]), {"w", "lower_bounds", "upper_bounds"}),
    (lambda: AscendingProblem(Channels.from_arrays("log_capacity", [2.0] * 3, [1.5] * 3,
                                                   [0.5] * 3), [1.0, 2.0, 3.0], [0.25] * 3,
                              [1.0, None, 1.0]), {"w", "b", "lower_bounds"}),
    (lambda: BoxProblem(Channels.from_arrays("inverse_mse", [1.0, 2.0], [0.5, 0.5],
                                             [0.0, -0.0]), 2.0, None, [1.5, 1.5]),
     {"a", "upper_bounds"}),
    (lambda: BoxProblem([LogCapacity(1.0, 2.0, 1.0)], 1.0, [0.5], [1.0]), set()),
], ids=["mixed_families", "sum_only", "all_three_repeat", "signed_zeros", "one_channel"])
def test_a_repeated_value_is_written_once(tmp_path, make, numbers):
    problem = make()
    path = tmp_path / "instance.json"
    save_instance(problem, str(path))
    text = path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    fields = dict(doc["objectives"], **doc)
    assert {key for key in ("w", "a", "b", "lower_bounds", "upper_bounds")
            if type(fields.get(key)) is float} == numbers
    if "terms" in doc["objectives"]:
        assert doc["objectives"]["w"] == 0.0  # the sum channels' placeholders
    clone = load_instance(str(path))
    _assert_identical(clone, problem)
    assert instance_to_dict(clone) == doc


def _numbers_doc():
    return {"problem_class": "box", "budget": 4.0,
            "objectives": {"family": "log_capacity", "w": 1.0, "a": [1.0, 0.5, 2.0, 0.25],
                           "b": 1.0},
            "lower_bounds": 0.25, "upper_bounds": 2.0}


def _edit(**fields):
    def edit(doc):
        for key, value in fields.items():
            target = doc["objectives"] if key in ("family", "w", "a", "b", "terms") else doc
            if value is _DELETE:
                del target[key]
            else:
                target[key] = value
        return doc
    return edit


# Each edit leaves one fault in a document whose columns and bounds are
# numbers; a number's fault is named by its field alone.
@pytest.mark.parametrize("edit,field,message", [
    (_edit(b=-1.0), "objectives.b", "parameter b must be finite and nonnegative, got -1.0"),
    (_edit(w="1.0"), "objectives.w", "expected a number"),
    (_edit(b=10 ** 400), "objectives.b", "number outside the float range"),
    (_edit(w=float("nan")), "objectives.w", "parameter w must be finite and positive, got nan"),
    (_edit(family="af_relay", a=1.5, w=[1.0, 2.0]), "objectives.a",
     r"af_relay requires 0 < a < 1, got 1\.5"),
    (_edit(a=0.5), "objectives",
     "w, a and b are all numbers: one of them must be an array, one entry per channel"),
    (_edit(b=[1.0, 1.0, 1.0]), "objectives.b[3]", "length 3, but objectives.a has length 4"),
    (_edit(family=["sum_log"] * 4, terms={"w": [1.0] * 4, "c": [1.0] * 4, "d": [1.0] * 4,
                                          "count": [1] * 4}),
     "objectives.w", r"a sum channel's entry must be the placeholder 0 \(its weights are "
     r"in terms.w\), got 1\.0"),
    (_edit(problem_class="p1", upper_bounds=_DELETE), "lower_bounds",
     "class p1 requires zero lower bounds"),
    (_edit(upper_bounds=0.125), "upper_bounds", "0.125 is below the lower bound 0.25"),
    (_edit(lower_bounds=_DELETE, upper_bounds=-1.0), "upper_bounds",
     r"-1\.0 is below the lower bound 0\.0"),
    (_edit(upper_bounds=float("nan")), "upper_bounds", "expected a number or null, got NaN"),
    (_edit(lower_bounds=-0.5), "lower_bounds",
     r"expected a finite, nonnegative number, got -0\.5"),
    (_edit(lower_bounds=float("inf")), "lower_bounds",
     "expected a finite, nonnegative number, got inf"),
    (_edit(upper_bounds=True), "upper_bounds", "expected a number"),
    (_edit(lower_bounds="0.25"), "lower_bounds", "expected a number"),
], ids=["negative_b", "string_w", "huge_int_b", "nan_w", "af_relay_a", "all_numbers",
        "short_b_after_a", "sum_w_placeholder", "p1_lower", "upper_below_lower",
        "negative_upper", "nan_upper", "negative_lower", "infinite_lower", "bool_upper",
        "string_lower"])
def test_a_number_fault_is_named_without_an_index(tmp_path, edit, field, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(_numbers_doc())))
    with pytest.raises(SchemaError) as err:
        load_instance(str(path))
    assert err.value.field == field
    assert re.fullmatch(re.escape(f"{field}: ") + message, str(err.value))
    result = CliRunner().invoke(main, ["solve", str(path)])
    assert result.exit_code == 1
    assert result.output == f"error: {err.value}\n"


# A list bound's fault is named by its field and its first channel at fault,
# in the problem checks' words; a number upper bound over a list of lower
# bounds by its field alone.
@pytest.mark.parametrize("bounds,field,message", [
    ({"lower_bounds": [0.25, 0.5, 0.5, 0.5], "upper_bounds": [1.0, 0.1, 2.0, 0.2]},
     "upper_bounds[1]", r"upper bound 0\.1 below lower bound 0\.5"),
    ({"lower_bounds": [0.25, -0.5, 0.0, -1.0]}, "lower_bounds[1]",
     "lower bounds must be finite and nonnegative"),
    ({"lower_bounds": 0.5, "upper_bounds": [1.0, None, 0.25, 2.0]}, "upper_bounds[2]",
     r"upper bound 0\.25 below lower bound 0\.5"),
    ({"lower_bounds": [0.25, 0.5, 0.5, 3.0], "upper_bounds": 2.0}, "upper_bounds",
     r"2\.0 is below the lower bound 3\.0"),
], ids=["upper_below_lower", "negative_lower", "upper_below_number_lower",
        "number_upper_below_lower"])
def test_a_list_bound_fault_is_named_with_its_index(tmp_path, bounds, field, message):
    path = tmp_path / "bad.json"
    doc = {key: value for key, value in _numbers_doc().items() if "bounds" not in key}
    path.write_text(json.dumps(dict(doc, **bounds)))
    with pytest.raises(SchemaError) as err:
        load_instance(str(path))
    assert err.value.field == field
    assert re.fullmatch(re.escape(f"{field}: ") + message, str(err.value))
    result = CliRunner().invoke(main, ["solve", str(path)])
    assert result.exit_code == 1
    assert result.output == f"error: {err.value}\n"


def test_numbers_doc_solves():
    problem = instance_from_dict(_numbers_doc())
    assert problem.channels.w.tolist() == [1.0] * 4
    assert (problem.lower_bounds, problem.upper_bounds) == ([0.25] * 4, [2.0] * 4)
    assert solve_box(problem).status == "optimal"
    assert instance_to_dict(problem) == _numbers_doc()
