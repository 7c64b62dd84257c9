"""JSON instance and result files.

Instances carry a ``problem_class`` tag plus the fields of the matching
problem type; results echo the allocation, certificates, and solver
configuration.  Unknown fields are rejected, and loading re-runs every
problem-type invariant, so a loaded instance is always directly solvable.
A file of closed-form records loads straight into one ``Channels`` bank.
Every file is written by :func:`dumps`, in the bytes of
``json.dump(doc, fh, indent=2)``; floats round-trip losslessly
(shortest-repr serialization).
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

from .errors import DomainError, SchemaError, WaterlineError
from .objectives import BANK_FAMILIES, Channels, Objective, objective_from_params
from .problems import (
    FAIR_MODES, Allocation, AscendingProblem, BoxProblem, FairProblem,
    FairSolution, KktReport, SimplexProblem, SolverConfig)

PROBLEM_CLASSES = ("p1", "p1_lower", "box", "ascending",
                   "maxmin", "cluster", "cluster_maxmin")

_FLAT_FIELDS = {
    "p1": {"problem_class", "budget", "objectives", "lower_bounds"},
    "p1_lower": {"problem_class", "budget", "objectives", "lower_bounds"},
    "box": {"problem_class", "budget", "objectives",
            "lower_bounds", "upper_bounds"},
    "ascending": {"problem_class", "prefix_budgets", "objectives",
                  "lower_bounds", "upper_bounds"},
}
_FAIR_FIELDS = {"problem_class", "budget", "groups",
                "lower_bounds", "upper_bounds"}


def _require(doc: dict, field: str):
    if field not in doc:
        raise SchemaError(field, "required field is missing")
    return doc[field]


def _check_fields(doc: dict, allowed: set[str]):
    for key in doc:
        if key not in allowed:
            raise SchemaError(key, "unknown field")


# The exact types whose values are JSON numbers; bool is an int subclass.
_NUMBER_TYPES = {int, float}


def _number_list(value, field: str, allow_null: bool = False) -> list:
    if not isinstance(value, list) or not value:
        raise SchemaError(field, "expected a non-empty array of numbers")
    if set(map(type, value)) <= _NUMBER_TYPES:
        return list(map(float, value))
    out = []
    for i, x in enumerate(value):
        if x is None and allow_null:
            out.append(None)
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            out.append(float(x))
        else:
            raise SchemaError(f"{field}[{i}]", "expected a number")
    return out


def _objective_list(value, field: str) -> list:
    if not isinstance(value, list) or not value:
        raise SchemaError(field, "expected a non-empty array of objective records")
    out = []
    for i, record in enumerate(value):
        if not isinstance(record, dict):
            raise SchemaError(f"{field}[{i}]", "expected an objective record")
        try:
            out.append(objective_from_params(record))
        except WaterlineError as exc:
            raise SchemaError(f"{field}[{i}]", str(exc)) from exc
        except TypeError as exc:
            raise SchemaError(f"{field}[{i}]", f"bad parameters: {exc}") from exc
    return out


_BANK_RECORD_KEYS = ("family", "w", "a", "b")


def _flat_objectives(value):
    """A flat problem's objectives: a bank when every record is a
    ``log_capacity``, ``inverse_mse`` or ``af_relay`` record of numbers,
    otherwise the objects of :func:`_objective_list`."""
    if isinstance(value, list) and value and set(map(type, value)) == {dict} \
            and set(map(len, value)) == {len(_BANK_RECORD_KEYS)}:
        # A record without one of these keys reads None there, which the
        # type tests refuse.
        families, w, a, b = ([record.get(key) for record in value]
                             for key in _BANK_RECORD_KEYS)
        names = set(families) if set(map(type, families)) == {str} else set()
        if names and names <= BANK_FAMILIES.keys() \
                and set(map(type, w + a + b)) <= _NUMBER_TYPES:
            try:
                return Channels.from_arrays(
                    names.pop() if len(names) == 1 else families, w, a, b)
            except DomainError as exc:
                raise SchemaError(f"objectives[{exc.index}]", exc.detail) from exc
    objectives = _objective_list(value, "objectives")
    if any(not isinstance(o, Objective) for o in objectives):
        raise SchemaError("objectives",
                          "cluster-aware families need a fair problem class")
    return objectives


def instance_from_dict(doc: Any):
    """Build a problem object from an instance document."""
    if not isinstance(doc, dict):
        raise SchemaError("document", "expected a JSON object")
    cls = _require(doc, "problem_class")
    if cls not in PROBLEM_CLASSES:
        raise SchemaError("problem_class",
                          f"expected one of {PROBLEM_CLASSES}, got {cls!r}")
    try:
        if cls in _FLAT_FIELDS:
            _check_fields(doc, _FLAT_FIELDS[cls])
            objectives = _flat_objectives(_require(doc, "objectives"))
            lower = doc.get("lower_bounds")
            if lower is not None:
                lower = _number_list(lower, "lower_bounds")
            if cls == "p1" and lower is not None and any(x != 0.0 for x in lower):
                raise SchemaError("lower_bounds", "class p1 requires zero lower bounds")
            if cls == "ascending":
                prefix = _number_list(_require(doc, "prefix_budgets"), "prefix_budgets")
                upper = doc.get("upper_bounds")
                if upper is not None:
                    upper = _number_list(upper, "upper_bounds", allow_null=True)
                return AscendingProblem(objectives, prefix, lower, upper)
            budget = _require(doc, "budget")
            if not isinstance(budget, (int, float)) or isinstance(budget, bool):
                raise SchemaError("budget", "expected a number")
            if cls == "box":
                upper = doc.get("upper_bounds")
                if upper is not None:
                    upper = _number_list(upper, "upper_bounds", allow_null=True)
                return BoxProblem(objectives, float(budget), lower, upper)
            return SimplexProblem(objectives, float(budget), lower)

        _check_fields(doc, _FAIR_FIELDS)
        raw_groups = _require(doc, "groups")
        if not isinstance(raw_groups, list) or not raw_groups:
            raise SchemaError("groups", "expected a non-empty array of groups")
        groups = [_objective_list(g, f"groups[{j}]")
                  for j, g in enumerate(raw_groups)]
        budget = _require(doc, "budget")
        if not isinstance(budget, (int, float)) or isinstance(budget, bool):
            raise SchemaError("budget", "expected a number")

        def bound_rows(field):
            value = doc.get(field)
            if value is None:
                return None
            if not isinstance(value, list) or len(value) != len(groups):
                raise SchemaError(field, "expected one row per group")
            return [_number_list(row, f"{field}[{j}]", allow_null=(field == "upper_bounds"))
                    for j, row in enumerate(value)]

        return FairProblem(groups, float(budget), mode=cls,
                           lower_bounds=bound_rows("lower_bounds"),
                           upper_bounds=bound_rows("upper_bounds"))
    except SchemaError:
        raise
    except WaterlineError as exc:
        raise SchemaError("document", str(exc)) from exc


def problem_class(problem) -> str:
    if isinstance(problem, AscendingProblem):
        return "ascending"
    if isinstance(problem, BoxProblem):
        return "box"
    if isinstance(problem, SimplexProblem):
        return "p1" if all(x == 0.0 for x in problem.lower_bounds) else "p1_lower"
    if isinstance(problem, FairProblem):
        return problem.mode
    raise SchemaError("document", f"unknown problem type {type(problem).__name__}")


def _params(obj) -> dict:
    to_params = getattr(obj, "to_params", None)
    if to_params is None:
        raise SchemaError("objectives", "objective is not serializable")
    return to_params()


def _upper_out(upper):
    if all(math.isinf(x) for x in upper):
        return None
    return [None if math.isinf(x) else x for x in upper]


def instance_to_dict(problem) -> dict:
    cls = problem_class(problem)
    if isinstance(problem, FairProblem):
        doc = {"problem_class": cls,
               "budget": problem.budget,
               "groups": [[_params(o) for o in g] for g in problem.groups]}
        if any(x != 0.0 for row in problem.lower_bounds for x in row):
            doc["lower_bounds"] = [list(row) for row in problem.lower_bounds]
        uppers = [_upper_out(row) for row in problem.upper_bounds]
        if any(u is not None for u in uppers):
            doc["upper_bounds"] = [
                u if u is not None else [None] * len(problem.groups[j])
                for j, u in enumerate(uppers)]
        return doc
    doc = {"problem_class": cls,
           "objectives": [_params(o) for o in problem.objectives]}
    if isinstance(problem, AscendingProblem):
        doc["prefix_budgets"] = list(problem.prefix_budgets)
    else:
        doc["budget"] = problem.budget
    if any(x != 0.0 for x in problem.lower_bounds):
        doc["lower_bounds"] = list(problem.lower_bounds)
    if isinstance(problem, (BoxProblem, AscendingProblem)):
        upper = _upper_out(problem.upper_bounds)
        if upper is not None:
            doc["upper_bounds"] = upper
    return doc


def load_instance(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("document", f"invalid JSON: {exc}") from exc
    return instance_from_dict(doc)


def save_instance(problem, path: str) -> None:
    write_json(instance_to_dict(problem), path)


def result_to_dict(problem, result, *, solver: str, strategy: str | None,
                   cfg: SolverConfig, wall_time: float,
                   report: KktReport | None = None) -> dict:
    doc: dict[str, Any] = {
        "problem_class": problem_class(problem),
        "solver": solver,
        "strategy": strategy,
        "config": {"mu_tolerance": cfg.mu_tolerance,
                   "power_tolerance": cfg.power_tolerance,
                   "box_strategy": cfg.box_strategy},
        "wall_time": wall_time,
    }
    if isinstance(result, FairSolution):
        doc.update({
            "powers": [list(row) for row in result.powers],
            "water_levels": result.water_levels,
            "group_totals": result.group_totals,
            "group_utilities": result.group_utilities,
            "t": result.t,
            "active_sets": result.active_sets,
            "iterations": result.iterations,
            "objective": min(result.group_utilities)
            if problem.mode != "cluster" else sum(result.group_utilities),
            "status": result.status,
        })
    else:
        doc.update({
            "powers": list(result.powers),
            "water_level": result.water_level,
            "active_set": result.active_set,
            "lower_set": result.lower_set,
            "upper_set": result.upper_set,
            "iterations": result.iterations,
            "splits": result.splits,
            "objective": result.objective_value,
            "status": result.status,
        })
    if report is not None:
        doc["residuals"] = dict(report.residuals)
        doc["residuals_pass"] = report.passed
    return doc


_RESULT_FIELDS = {
    "problem_class", "solver", "strategy", "config", "wall_time",
    "powers", "water_level", "water_levels", "active_set", "active_sets",
    "lower_set", "upper_set", "group_totals", "group_utilities", "t",
    "iterations", "splits", "objective", "status", "residuals",
    "residuals_pass",
}


def load_result(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("document", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document", "expected a JSON object")
    _check_fields(doc, _RESULT_FIELDS)
    if "powers" not in doc or "problem_class" not in doc:
        raise SchemaError("powers", "result file must carry powers and problem_class")
    return doc


def save_result(doc: dict, path: str) -> None:
    write_json(doc, path)


def dumps(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)``, faster on number arrays: a list
    of finite exact ints and floats is written as one join of their reprs.
    Containers, strings and finite numbers are written here; any other value
    (non-finite floats, bool, None, numpy scalars, tuples, empty containers)
    goes to ``json.dumps``."""
    return _encode(doc, "\n")


def _encode(value, newline: str) -> str:
    kind = type(value)
    if kind is float and math.isfinite(value) or kind is int:
        return repr(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if value and (kind is list or kind is dict and set(map(type, value)) == {str}):
        inner = newline + "  "
        if kind is dict:
            items = (f"{encode_basestring_ascii(k)}: {_encode(v, inner)}"
                     for k, v in value.items())
        elif _finite_numbers(value):
            items = map(repr, value)
        else:
            items = (_encode(v, inner) for v in value)
        body = inner + f",{inner}".join(items) + newline
        return f"{{{body}}}" if kind is dict else f"[{body}]"
    return json.dumps(value, indent=2).replace("\n", newline)


def _finite_numbers(items: list) -> bool:
    if not set(map(type, items)) <= _NUMBER_TYPES:
        return False
    try:
        return all(map(math.isfinite, items))
    except OverflowError:  # an int beyond the float range
        return False


def write_json(doc, path: str) -> None:
    """Write ``doc`` to ``path`` as :func:`dumps` text and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc) + "\n")
