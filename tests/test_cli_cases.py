"""The CLI case table, run in process through click's ``CliRunner``: a row runs one
``waterline`` command on a document of ``tests/cli_cases/`` (or one a function below writes) once
per strategy, and checks each exit code, the one ``error:`` line of a nonzero exit, that
a ``solve`` exiting 0 writes ``optimal`` and passes ``verify``, a time bound, its named
checks across the runs, and that no exception but ``SystemExit`` (a traceback) escapes.
To add a case, put its document in ``tests/cli_cases/`` and a row in ``CASES``."""

import csv
import json
import math
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from click.testing import CliRunner

from waterline import (AfRelay, AscendingProblem, InverseMse, LogCapacity, SimplexProblem,
                       SumInverseMse, SumLog, check_conditions, load_instance, save_instance)
from waterline.cli import main

ALL = ("set_a", "set_b", "bisect", "order")


class Case(NamedTuple):
    args: tuple                 # command and arguments; "{doc}" the document, "{out}" a run's stem
    doc: str | Callable | None  # a file of cli_cases/ by stem, or a function writing one
    strategies: tuple           # one run per entry, with --strategy unless None
    exit: int = 0
    error: str | None = None    # the one error: line of a nonzero exit
    checks: tuple = ()          # each called with {strategy: stem} and the document
    seconds: float | None = None


def _row(args, name, doc=None, strategies=(), **expect):
    case = Case(args, doc, strategies or (None,), **expect)
    return pytest.param(case, id="-".join((args[0], name, *strategies)))


def solve(doc, *strategies, **expect):
    name = doc if isinstance(doc, str) else doc.__name__
    return _row(("solve", "{doc}", "--out", "{out}.json"), name, doc, strategies, **expect)


def compare(doc, **expect):
    return _row(("compare", "{doc}"), doc, doc, **expect)


def sweep(name, *args, strategies=(), **expect):
    return _row(("sweep", *args, "--out", "{out}.csv"), name, None, strategies, **expect)


def _invoke(*args, exit=0):
    result = CliRunner().invoke(main, [str(arg) for arg in args])
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        "".join(traceback.format_exception(*result.exc_info))
    assert result.exit_code == exit, result.output
    return result


def _generate(folder: Path, realization: int, *args) -> Path:
    _invoke("generate", *args, "--out-dir", folder / "generated")
    return folder / "generated" / f"instance_{realization:04d}.json"


# Documents built in the test module: generated scenarios and seeded instances.

def generated64(folder):
    return _generate(folder, 1, "--subcarriers", "16", "--gamma", "0.4", "--tau", "1.6",
                     "--realizations", "2")


def generated1024(folder):
    return _generate(folder, 0, "--subcarriers", "256", "--gamma", "0.4", "--tau", "1.6")


def five256(folder):
    """A K = 256 five-family P1 of the benchmark's shape (seed 256)."""
    rng, objectives = np.random.default_rng(256), []
    for i in range(256):
        w, a, b = (float(x) for x in rng.uniform(0.5, 2.0, 3))
        if i % 5 == 2:
            objectives.append(AfRelay(w, float(rng.uniform(0.1, 0.9)), b))
        elif i % 5 > 2:
            c = [[float(x) for x in rng.uniform(0.5, 2.0, 3)] for _ in range(3)]
            objectives.append((SumLog if i % 5 == 3 else SumInverseMse)(c[0], a, b, c[1], c[2]))
        else:
            objectives.append((LogCapacity, InverseMse)[i % 5](w, a, b))
    problem = SimplexProblem(objectives, 256 * float(rng.uniform(1.0, 2.0)))
    save_instance(problem, str(path := folder / "five256.json"))
    return path


def ascending64(folder):
    """The benchmark's K = 64 ascending file: log and inverse channels, tight caps (seed 64)."""
    rng = np.random.default_rng(64)
    objectives = [(LogCapacity if i % 2 == 0 else InverseMse)(
        float(rng.uniform(0.5, 2.0)), 1e-3 + float(rng.exponential(1.0)), 1.0) for i in range(64)]
    problem = AscendingProblem(objectives, np.cumsum(rng.uniform(0.5, 1.5, 64)).tolist(),
                               None, rng.uniform(1.5, 4.0, 64).tolist())
    save_instance(problem, str(path := folder / "ascending64.json"))
    return path


# Checks across a row's runs: each takes {strategy: output stem} and the document.

def _results(outs):
    return [json.loads(Path(f"{out}.json").read_text()) for out in outs.values()]


def each(predicate):
    """``predicate`` holds on every run's result."""
    def check(outs, doc):
        for result in _results(outs):
            assert predicate(result), result
    return check


def near(tol, per_budget=False):
    """Every run's powers lie within ``tol`` (times the budget) of the first run's."""
    def check(outs, doc):
        first, *rest = _results(outs)
        scale = json.loads(doc.read_text())["budget"] if per_budget else 1.0
        for result in rest:
            gap = max(abs(p - q) for p, q in zip(result["powers"], first["powers"]))
            assert gap <= tol * scale, (gap, result["powers"], first["powers"])
    return check


def same_powers(outs, doc):
    powers = {json.dumps(result["powers"]) for result in _results(outs)}
    assert len(powers) == 1, "powers differ across strategies"


def indented(outs, doc):
    """Every JSON file the row wrote (a generated document, results, a dump) is
    json.dumps(indent=2) of its content."""
    for path in next(iter(outs.values())).parent.rglob("*.json"):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path


def one_number_columns(outs, doc):
    """generate writes w, b and both bounds as one number each, a as a list."""
    written = json.loads(doc.read_text())
    columns = written["objectives"]
    singles = columns["w"], columns["b"], written["lower_bounds"], written["upper_bounds"]
    assert all(type(x) is float for x in singles), written
    assert type(columns["a"]) is list and len(columns["a"]) == 1024, columns["a"]


def mse_agree(outs, doc):
    """order's and set_a's sweeps: three rows each, mean MSE equal to 1e-12."""
    order, set_a = ([float(row["mean_mse"]) for row in csv.DictReader(
        Path(f"{out}.csv").read_text().splitlines())] for out in outs.values())
    assert len(order) == len(set_a) == 3, (order, set_a)
    assert all(math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0)
               for x, y in zip(order, set_a)), (order, set_a)


def falling_mse(outs, doc):
    """Every point solved 4 times with no error, mean MSE falling as SNR rises,
    and the dump's powers pass at 1e-8 on generate's realization 0 at 20 dB."""
    out = outs[None]
    rows = list(csv.DictReader(Path(f"{out}.csv").read_text().splitlines()))
    dump = json.loads(Path(f"{out}.dump.json").read_text())
    assert [float(r["snr_db"]) for r in rows] == [0, 5, 10, 15, 20], rows
    assert all(int(r["solved"]) == 4 and int(r["errors"]) == 0 for r in rows), rows
    mse = [float(r["mean_mse"]) for r in rows]
    assert all(later < earlier for earlier, later in zip(mse, mse[1:])), mse
    assert dump["snr_db"] == 20.0, dump["snr_db"]
    instance = _generate(out.parent, 0, "--subcarriers", "256", "--snr-db", "20", "--gamma", "0.4",
                         "--tau", "1.6", "--realizations", "1", "--seed", "5")
    report = check_conditions(load_instance(str(instance)), dump["powers"], tolerance=1e-8)
    assert report.passed, report.residuals


CASES = [
    *(solve(name) for name in (
        "box", "p1_lower", "cluster", "table_cluster", "table_cluster_maxmin", "ulp", "maxmin",
        "ascending", "equal_caps", "sums", "five", "columns", "maxmin_numeric", "maxmin_tiny",
        "b0_cluster", "b0_cluster_maxmin", "maxmin_inverse_boxed", "maxmin_b0", "maxmin_mixed",
        "maxmin_saturated", "batched_maxmin", "batched_cluster_maxmin",
        # Channel 0's join point is +inf: it never joins, and the other two spend the budget.
        "far_p1")),
    *(compare(name) for name in ("box", "ulp", "sums", "box_mixed",
                                 "far_log_first_tau15_30", "far_log_last_tau15_30")),
    solve("small", "bisect", seconds=60),
    solve(generated64),
    sweep("K64-dump", "--subcarriers", "16", "--realizations", "3", "--dump", "{out}.dump.json",
          checks=(indented,)),
    solve(generated1024, checks=(indented, one_number_columns)),
    solve(generated1024, "set_a", "set_b", checks=(near(1e-9, per_budget=True),)),
    sweep("K1024", "--subcarriers", "256", "--realizations", "3", "--snr-list=-10,0,30",
          "--gamma", "0.4", "--tau", "1.6", strategies=("order", "set_a"), checks=(mse_agree,)),
    sweep("benchmark", "--antennas", "4", "--taps", "7", "--subcarriers", "256",
          "--snr-list", "0,5,10,15,20", "--gamma", "0.4", "--tau", "1.6", "--realizations", "4",
          "--seed", "5", "--dump", "{out}.dump.json", checks=(falling_mse,)),
    *(solve(name, exit=1, error=error) for name, error in (
        ("malformed", "objectives[0]: bad parameters: could not convert string to float: 'abc'"),
        ("malformed_columns", "objectives.b[1]: length 1, but objectives.w has length 2"),
        ("negative_b", "objectives.b: parameter b must be finite and nonnegative, got -1.0"))),
    solve(five256),
    solve("p1_mixed", checks=(each(lambda result: 0 in result["active_set"]),)),
    solve("ascending_mixed", "set_a", "set_b", "bisect",
          checks=(each(lambda result: result["splits"] == 1),)),
    solve("box_mixed", "order", "set_a", checks=(near(1e-9),)),
    # The deactivation loop of set_a's and set_b's P1.1 solves misses the budget.
    solve("steps_underflow", "set_a", "set_b", exit=2,
          error="no water level spends the budget"),
    solve("steps_underflow", "bisect", "order", checks=(near(1e-9),)),
    solve("sums", "bisect", "order", "set_a", "set_b", checks=(near(1e-9),)),
    # The loop's level search halves the level to a subnormal one.
    solve("steps_subnormal", exit=2, error="no water level spends the budget"),
    solve("subnormal", *ALL),
    solve("ascending_exact", *ALL, checks=(near(1e-9),)),
    solve(ascending64, "order", "set_a", "set_b", "bisect", checks=(same_powers,)),
    *(solve(name, checks=(each(lambda result: result["powers"][0][1] == 0.0),))
      for name in ("never_cluster", "never_cluster_maxmin")),
    *(solve(f"float_range_{mode}", exit=2,
            error="a group's water level leaves the float range")
      for mode in ("cluster", "cluster_maxmin")),
    # A channel whose b/a leaves the float range (a = 1e-310) beside a log
    # channel, budget 2: at tau 1.5 each, no level spends the budget; at the
    # far channel's tau 1.5 and the other's 3.0, the far one sits at 0.
    solve("far_inverse_first_tau15", "set_a", exit=2,
          error="the water level leaves the float range"),
    *(solve(f"far_{family}_{end}_tau15", exit=2, error="the water level leaves the float range")
      for family in ("inverse", "log") for end in ("first", "last")),
    *(solve(f"far_{family}_{end}_tau15_30", checks=(each(lambda r, p=p: r["powers"] == p),))
      for family in ("inverse", "log") for end, p in (("first", [0, 2]), ("last", [2, 0]))),
    *(compare(f"far_inverse_{end}_{tau}", exit=2,
              error="strategy bisect: no water level spends at most the budget")
      for end in ("first", "last") for tau in ("tau15", "tau15_30")),
    *(compare(f"far_log_{end}_tau15", exit=2,
              error="strategy bisect: could not bracket the water level from below")
      for end in ("first", "last")),
    solve("far_ascending", *ALL,
          checks=(each(lambda result: result["powers"] == [0.0, 2.0, 1.0]),)),
    solve("far_ascending_last", *ALL, exit=2, error="the water level leaves the float range"),
]


@pytest.mark.parametrize("case", CASES)
def test_cli_case(case, tmp_path):
    doc = case.doc and (Path(__file__).parent / "cli_cases" / f"{case.doc}.json"
                        if isinstance(case.doc, str) else case.doc(tmp_path))
    outs = {}
    for strategy in case.strategies:
        out = outs[strategy] = tmp_path / (strategy or "run")
        args = [arg.format(doc=doc, out=out) for arg in case.args]
        start = time.perf_counter()
        result = _invoke(*args, *(["--strategy", strategy] if strategy else []), exit=case.exit)
        assert case.seconds is None or time.perf_counter() - start <= case.seconds
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert errors == ([f"error: {case.error}"] if case.exit else []), result.output
        if case.args[0] == "solve" and not case.exit:
            assert json.loads(Path(f"{out}.json").read_text())["status"] == "optimal"
            _invoke("verify", doc, f"{out}.json")
    for check in case.checks:
        check(outs, doc)
