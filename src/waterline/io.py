"""JSON instance and result files.

Instances carry a ``problem_class`` tag plus the fields of the matching
problem type; results echo the allocation, certificates, and solver
configuration.  Unknown fields are rejected, and loading re-runs every
problem-type invariant, so a loaded instance is always directly solvable.

A flat problem's ``objectives`` come in one of two layouts (README,
"Instance format"):

* columns, the one layout :func:`save_instance` writes for a flat problem
  (every channel of the five serializable families; any other does not
  serialize): ``{"family": name or [one per channel], "w": [...], "a":
  [...], "b": [...]}``, plus ``"terms": {"w", "c", "d", "count"}`` with a
  sum-family channel, the ``Channels.from_arrays`` layout (a sum channel's
  ``w`` entry is the placeholder 0).  They load straight into one bank, and
  a fault names its column and index, ``objectives.a[3]``;
* records, one object per channel, which the writer keeps for fair
  problems' ``groups``.  Records load through their objects, one per
  record, which then form the same bank as their columns.

Like ``family``, the columns ``w``, ``a``, ``b`` and a flat problem's
``lower_bounds`` and ``upper_bounds`` may each be one number for every
channel.  The writer uses it for a field of more than one entry that repeats
one float, bit for bit (keeping ``a`` a list when all three columns would
collapse); the loader takes the channel count from the first of ``w``,
``a``, ``b`` that is a list, expands each number to one entry per channel,
and names a number's fault without an index, ``objectives.b``.  ``terms``,
``prefix_budgets`` and fair problems' ``groups`` and bound rows stay lists.

Every file is written by :func:`dumps`, in the bytes of
``json.dump(doc, fh, indent=2)``; floats round-trip losslessly
(shortest-repr serialization).
"""

from __future__ import annotations

import json
import math
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .errors import DomainError, SchemaError, WaterlineError
from .objectives import (FAMILIES, _BANK_CLASSES, _BANK_CODES, Channels, Objective,
                         objective_from_params)
from .problems import (AscendingProblem, BoxProblem, FairProblem, FairSolution, KktReport,
                       SimplexProblem, SolverConfig)

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


def _require(doc: dict, field: str, prefix: str = ""):
    if field not in doc:
        raise SchemaError(prefix + field, "required field is missing")
    return doc[field]


def _check_fields(doc: dict, allowed: set[str], prefix: str = ""):
    for key in doc:
        if key not in allowed:
            raise SchemaError(prefix + key, "unknown field")


# The exact types whose values are JSON numbers; bool is an int subclass.
_NUMBER_TYPES = {int, float}


def _number_list(value, field: str, allow_null: bool = False) -> list:
    if not isinstance(value, list) or not value:
        raise SchemaError(field, "expected a non-empty array of numbers")
    if set(map(type, value)) <= _NUMBER_TYPES:
        try:
            return list(map(float, value))
        except OverflowError:  # an int beyond the float range, named below
            pass
    out = []
    for i, x in enumerate(value):
        if x is None and allow_null:
            out.append(None)
        else:
            out.append(_number(x, f"{field}[{i}]"))
    return out


def _column(value, field: str) -> np.ndarray:
    """:func:`_number_list` of ``value`` as a float array, with no list of
    floats in between."""
    if isinstance(value, list) and value and set(map(type, value)) <= _NUMBER_TYPES:
        try:
            return np.array(value, dtype=float)
        except OverflowError:
            pass
    return np.array(_number_list(value, field))


def _column_or_number(value, field: str, column=_column):
    """A field of one entry per channel that may instead be one number for
    every channel: ``column(value, field)`` of an array, else the number as
    a float (a fault named ``field``, without an index)."""
    if isinstance(value, list):
        return column(value, field)
    return _number(value, field)


def _number(value, field: str) -> float:
    if type(value) not in _NUMBER_TYPES:
        raise SchemaError(field, "expected a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(field, "number outside the float range") from None


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
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{field}[{i}]", f"bad parameters: {exc}") from exc
    return out


_SUM_FAMILIES = {cls.family for cls in _BANK_CLASSES if not cls.closed_form_inverse}


def _same_length(column, field: str, n: int, reference: str) -> None:
    if len(column) != n:
        raise SchemaError(f"{field}[{min(len(column), n)}]",
                          f"length {len(column)}, but {reference} {n}")


def _columns(value: dict) -> Channels:
    """A columnar ``objectives`` block as one bank, each column checked here
    or by ``Channels.from_arrays``; a fault names its column and the index
    of its channel (of its term, in ``terms``)."""
    _check_fields(value, {"family", "w", "a", "b", "terms"}, "objectives.")
    family = _require(value, "family", "objectives.")
    columns = {key: _column_or_number(_require(value, key, "objectives."),
                                      f"objectives.{key}") for key in "wab"}
    numbers = {key for key, column in columns.items() if type(column) is float}
    if len(numbers) == 3:
        raise SchemaError("objectives", "w, a and b are all numbers: one of them must be "
                          "an array, one entry per channel")
    first = next(key for key in "wab" if key not in numbers)
    n, reference = len(columns[first]), f"objectives.{first} has length"
    for key, column in columns.items():
        if key in numbers:
            columns[key] = np.full(n, column)
        elif key != first:
            _same_length(column, f"objectives.{key}", n, reference)
    w, a, b = columns.values()

    def at(key: str, i: int) -> str:
        return f"objectives.{key}" if key in numbers else f"objectives.{key}[{i}]"

    if isinstance(family, list):
        _same_length(family, "objectives.family", n, reference)
        if set(map(type, family)) != {str} or not set(family) <= _BANK_CODES.keys():
            i, name = next((i, f) for i, f in enumerate(family)
                           if type(f) is not str or f not in _BANK_CODES)
            raise SchemaError(f"objectives.family[{i}]", f"unknown objective family: {name!r}")
        sums = [f in _SUM_FAMILIES for f in family]
    elif isinstance(family, str):
        if family not in _BANK_CODES:
            raise SchemaError("objectives.family", f"unknown objective family: {family!r}")
        sums = [family in _SUM_FAMILIES] * n
    else:
        raise SchemaError("objectives.family",
                          "expected a family name, or an array of one per channel")
    terms = value.get("terms")
    if terms is None:
        if any(sums):
            raise SchemaError("objectives.terms", "required field is missing: channel "
                              f"{sums.index(True)} is of a sum family")
    else:
        if not any(sums):
            raise SchemaError("objectives.terms", "unknown field: no channel is of a sum family")
        terms = _term_columns(terms, sums, reference)
        at_sums = terms[3] > 0
        slots = w[at_sums]
        if slots.any():
            i = int(at_sums.nonzero()[0][(slots != 0).argmax()])
            raise SchemaError(at("w", i), "a sum channel's entry must be the "
                              f"placeholder 0 (its weights are in terms.w), got {w[i]}")
        w[at_sums] = math.nan
    try:
        return Channels.from_arrays(family, w, a, b, terms)
    except DomainError as exc:
        # With the shapes, families and counts checked above, what is left to
        # refuse is a constructor's: a parameter of channel ``exc.index``.
        name, i = exc.parameter, exc.index
        if name not in ("w_j", "c_j", "d_j"):
            raise SchemaError(at(name, i), exc.detail) from None
        # A term parameter: the channel's first refused term.
        counts = terms[3]
        start = int(counts[:i].sum())
        column = terms["wcd".index(name[0])][start:start + int(counts[i])]
        j = start + int((~(np.isfinite(column) & (column > 0))).argmax())
        raise SchemaError(f"objectives.terms.{name[0]}[{j}]",
                          f"{exc.detail} (channel {i})") from None


def _term_columns(value, sums: list, reference: str) -> tuple:
    """The ``terms`` block of a columnar bank as ``from_arrays`` takes it,
    ``(w, c, d, counts)``, checked against the channels' families ``sums``
    (True at a sum-family channel); ``reference`` names the channel count."""
    if not isinstance(value, dict):
        raise SchemaError("objectives.terms", "expected an object of term columns")
    _check_fields(value, {"w", "c", "d", "count"}, "objectives.terms.")
    counts = _require(value, "count", "objectives.terms.")
    if not isinstance(counts, list):
        raise SchemaError("objectives.terms.count", "expected an array of term counts")
    _same_length(counts, "objectives.terms.count", len(sums), reference)
    if set(map(type, counts)) != {int} or min(counts) < 0 or [c > 0 for c in counts] != sums:
        i, count, is_sum = next((i, c, s) for i, (c, s) in enumerate(zip(counts, sums))
                                if type(c) is not int or c < 0 or (c > 0) != s)
        raise SchemaError(f"objectives.terms.count[{i}]", "expected a whole number of terms, "
                          f"{'at least 1 for a sum' if is_sum else '0 for a closed-form'} "
                          f"family, got {count!r}")
    total = sum(counts)
    columns = []
    for key in "wcd":
        field = f"objectives.terms.{key}"
        column = _column(_require(value, key, "objectives.terms."), field)
        _same_length(column, field, total, "objectives.terms.count totals")
        columns.append(column)
    return (*columns, np.array(counts))


def _flat_objectives(value):
    """A flat problem's objectives: the bank of a columnar block
    (:func:`_columns`), else the objects of :func:`_objective_list`."""
    if isinstance(value, dict):
        return _columns(value)
    objectives = _objective_list(value, "objectives")
    if any(not isinstance(o, Objective) for o in objectives):
        raise SchemaError("objectives",
                          "cluster-aware families need a fair problem class")
    return objectives


def _flat_bounds(doc: dict, n: int) -> tuple:
    """A flat problem's ``(lower_bounds, upper_bounds)``, each None when
    absent, a list of one per channel (null: no upper bound), or one number
    for every channel, given as ``n`` of it.  A fault is named here: a
    number's by its field alone, a list's by its field and the index of the
    first channel at fault (``upper_bounds[1]``), in the words of the
    problem's checks.  A list of the wrong length is left to those checks."""
    lower, upper = doc.get("lower_bounds"), doc.get("upper_bounds")
    if lower is not None:
        lower = _column_or_number(lower, "lower_bounds", _number_list)
    if upper is not None:
        upper = _column_or_number(upper, "upper_bounds",
                                  partial(_number_list, allow_null=True))
    if type(lower) is float and not 0.0 <= lower < math.inf:
        raise SchemaError("lower_bounds", f"expected a finite, nonnegative number, got {lower}")
    if type(upper) is float and math.isnan(upper):
        raise SchemaError("upper_bounds", "expected a number or null, got NaN")
    if not (isinstance(lower, list) or isinstance(upper, list)):
        floor = lower if type(lower) is float else 0.0
        if type(upper) is float and upper < floor:
            raise SchemaError("upper_bounds", f"{upper} is below the lower bound {floor}")
        return tuple(None if x is None else np.full(n, x) for x in (lower, upper))
    lo = np.zeros(n) if lower is None else np.full(n, lower) if type(lower) is float else \
        np.array(lower)
    hi = None if upper is None else np.full(n, upper) if type(upper) is float else \
        np.array([math.inf if x is None else x for x in upper])
    if isinstance(lower, list) and lo.shape == (n,):
        bad = ~np.isfinite(lo) | (lo < 0)
        if bad.any():
            raise SchemaError(f"lower_bounds[{bad.argmax()}]",
                              "lower bounds must be finite and nonnegative")
    if hi is not None and lo.shape == hi.shape == (n,):
        bad = np.isnan(hi) | (hi < lo)
        if bad.any():
            i = int(bad.argmax())
            if type(upper) is float:
                raise SchemaError("upper_bounds", f"{upper} is below the lower bound {lo[i]}")
            raise SchemaError(f"upper_bounds[{i}]", "upper bounds must be numbers or null, "
                              "got NaN" if math.isnan(hi[i]) else
                              f"upper bound {hi[i]} below lower bound {lo[i]}")
    return (None if lower is None else lo), hi


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
            lower, upper = _flat_bounds(doc, len(objectives))
            if cls == "p1" and lower is not None and np.any(lower):
                raise SchemaError("lower_bounds", "class p1 requires zero lower bounds")
            if cls == "ascending":
                prefix = _number_list(_require(doc, "prefix_budgets"), "prefix_budgets")
                return AscendingProblem(objectives, prefix, lower, upper)
            budget = _number(_require(doc, "budget"), "budget")
            if cls == "box":
                return BoxProblem(objectives, budget, lower, upper)
            return SimplexProblem(objectives, budget, lower)

        _check_fields(doc, _FAIR_FIELDS)
        raw_groups = _require(doc, "groups")
        if not isinstance(raw_groups, list) or not raw_groups:
            raise SchemaError("groups", "expected a non-empty array of groups")
        groups = [_objective_list(g, f"groups[{j}]")
                  for j, g in enumerate(raw_groups)]
        budget = _number(_require(doc, "budget"), "budget")

        def bound_rows(field):
            value = doc.get(field)
            if value is None:
                return None
            if not isinstance(value, list) or len(value) != len(groups):
                raise SchemaError(field, "expected one row per group")
            return [_number_list(row, f"{field}[{j}]", allow_null=(field == "upper_bounds"))
                    for j, row in enumerate(value)]

        return FairProblem(groups, budget, mode=cls,
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
    """A fair group entry's record; as in :func:`_columns_out`, an entry of no
    family the loader builds (a custom objective, a subclass) does not serialize."""
    if FAMILIES.get(getattr(obj, "family", None)) is not type(obj):
        raise SchemaError("objectives", "objective is not serializable")
    return obj.to_params()


def _columns_out(channels: Channels) -> dict:
    """``channels`` as a columnar ``objectives`` block, read from the bank's
    arrays; a channel outside the five bank families does not serialize."""
    if channels._custom() is not None:
        raise SchemaError("objectives", "objective is not serializable")
    codes, terms = channels._codes, channels._terms
    family = channels.family if codes is None else \
        [_BANK_CLASSES[c].family for c in codes.tolist()]
    w = channels.w if terms is None else np.where(terms[3] > 0, 0.0, channels.w)
    columns = [_one_value(x) for x in (w, channels.a, channels.b)]
    if all(type(x) is float for x in columns):  # a keeps the channel count
        columns[1] = channels.a.tolist()
    doc = dict(zip(("family", "w", "a", "b"), [family, *columns]))
    if terms is not None:
        doc["terms"] = dict(zip(("w", "c", "d", "count"), (t.tolist() for t in terms)))
    return doc


def _one_value(values):
    """``values`` as one float when it has more than one entry and all are
    the same float, bit for bit; else as a list."""
    values = np.asarray(values, dtype=float)
    bits = values.view(np.uint64)
    if len(bits) > 1 and (bits == bits[0]).all():
        return float(values[0])
    return values.tolist()


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
    doc = {"problem_class": cls, "objectives": _columns_out(problem.channels)}
    if isinstance(problem, AscendingProblem):
        doc["prefix_budgets"] = list(problem.prefix_budgets)
    else:
        doc["budget"] = problem.budget
    if any(x != 0.0 for x in problem.lower_bounds):
        doc["lower_bounds"] = _one_value(problem.lower_bounds)
    if isinstance(problem, (BoxProblem, AscendingProblem)):
        upper = _upper_out(problem.upper_bounds)
        if upper is not None:
            doc["upper_bounds"] = upper if None in upper else _one_value(upper)
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
