"""Cross-checks among the reference solvers."""

import inspect
import math
import os
import random
import subprocess
import sys
import zlib

import pytest

from waterline import (
    AfRelay, BoxProblem, BracketFailure, FairProblem, InverseMse, LogCapacity, SimplexProblem,
    SizeLimit, enumerate_box, check_conditions, enumerate_p1, grid_search, projected_gradient,
    solve_maxmin, solve_p1_lower)
from waterline import oracle

from conftest import CLOSED_FORM_FAMILIES, random_box, random_simplex


def test_enumerate_p1_single_channel():
    problem = SimplexProblem([LogCapacity(1, 1, 1)], 3.0)
    res = enumerate_p1(problem)
    assert res.powers == pytest.approx([3.0])
    assert res.candidates == 1
    assert res.certified


def test_enumerate_p1_symmetric_tie():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)], 2.0)
    res = enumerate_p1(problem)
    assert res.powers == pytest.approx([1.0, 1.0], rel=1e-10)


def test_enumerate_p1_size_limit():
    objs = [LogCapacity(1, 1, 1) for _ in range(16)]
    with pytest.raises(SizeLimit):
        enumerate_p1(SimplexProblem(objs, 1.0))


def test_enumerate_box_size_limit():
    objs = [LogCapacity(1, 1, 1) for _ in range(9)]
    with pytest.raises(SizeLimit):
        enumerate_box(BoxProblem(objs, 1.0))


def test_enumerate_box_forced_all_upper():
    problem = BoxProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                         2.0, None, [1.0, 1.0])
    res = enumerate_box(problem)
    assert res.powers == pytest.approx([1.0, 1.0])


def test_projected_gradient_symmetric():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)], 2.0)
    res = projected_gradient(problem)
    assert res.powers == pytest.approx([1.0, 1.0], abs=1e-6)
    assert not res.certified


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
def test_projected_gradient_agrees_with_enumeration(family):
    rng = random.Random(zlib.crc32(family.encode()) & 0xFF)
    for _ in range(15):
        problem = random_simplex(family, rng, rng.randint(2, 6))
        pg = projected_gradient(problem)
        en = enumerate_p1(problem)
        assert pg.objective_value == pytest.approx(
            en.objective_value, abs=1e-6 * (1 + abs(en.objective_value)))


def test_projected_gradient_respects_boxes(rng):
    for _ in range(10):
        problem = random_box("log_capacity", rng, 4)
        res = projected_gradient(problem)
        for p, lo, hi in zip(res.powers, problem.lower_bounds,
                             problem.upper_bounds):
            assert lo - 1e-9 <= p <= hi + 1e-9
        assert sum(res.powers) <= problem.budget * (1 + 1e-9)


def test_projected_gradient_at_a_nanowatt_budget():
    # Its stop on the step size is absolute: at budget 2e-9 the ascent still
    # takes its steps to the optimum rather than stopping after the first.
    problem = BoxProblem([LogCapacity(1, 10, 1), LogCapacity(1, 1, 1)], 2e-9, None,
                         [5e-10, None])
    res = projected_gradient(problem)
    assert res.candidates > 1
    assert res.powers == pytest.approx([5e-10, 1.5e-9], rel=1e-9, abs=0.0)
    assert check_conditions(problem, res.powers, tolerance=1e-8).passed


def test_grid_matches_enumeration_k2():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 3)], 1.0)
    grid = grid_search(problem)
    en = enumerate_p1(problem)
    assert grid.objective_value == pytest.approx(en.objective_value, abs=1e-5)


def test_grid_size_limit():
    objs = [LogCapacity(1, 1, 1) for _ in range(6)]
    with pytest.raises(SizeLimit):
        grid_search(SimplexProblem(objs, 1.0))


def test_grid_size_limit_on_five_fair_groups():
    problem = FairProblem([[LogCapacity(1, 1, 1)]] * 5, 5.0)
    with pytest.raises(SizeLimit, match="at most 4 group totals"):
        grid_search(problem)


def test_enumeration_scores_a_channel_outside_its_domain_as_minus_inf(monkeypatch):
    # A b = 0 log channel left at its zero floor has log(0) utility: the
    # active set without it scores -inf, and the set with both channels wins.
    problem = SimplexProblem([LogCapacity(1, 2, 0), LogCapacity(1, 1, 1)], 2.0)
    scores = []

    def recorded(obj, p, _safe_eval=oracle._safe_eval):
        scores.append(_safe_eval(obj, p))
        return scores[-1]
    monkeypatch.setattr(oracle, "_safe_eval", recorded)
    res = enumerate_p1(problem)
    assert -math.inf in scores
    assert res.powers == pytest.approx(solve_p1_lower(problem).powers, abs=1e-12)
    assert check_conditions(problem, res.powers, tolerance=1e-8).passed


def test_enumerate_p1_skips_an_active_set_the_floors_leave_no_budget(monkeypatch):
    # The floors of channels 0 and 1 fill the budget: the set {2} alone has
    # none left, and is skipped before its level search.
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 2, 1), InverseMse(1, 1, 1)],
                             1.0, [0.5, 0.5, 0.0])
    searched = []

    def recorded(objs, remaining, *args, _solve=oracle.solve_water_level, **kwargs):
        searched.append(len(objs))
        return _solve(objs, remaining, *args, **kwargs)
    monkeypatch.setattr(oracle, "solve_water_level", recorded)
    res = enumerate_p1(problem)
    assert res.candidates == len(searched) == 6
    assert res.powers == [0.5, 0.5, 0.0]
    assert check_conditions(problem, res.powers, tolerance=1e-8).passed


@pytest.mark.parametrize("enumerate_", [enumerate_p1, enumerate_box])
def test_enumeration_skips_an_active_set_with_no_level(monkeypatch, enumerate_):
    # a = 1e-310 puts channel 0's b/a past the float range: with both
    # channels active the demands sum to -inf at every level, and the level
    # search cannot bracket it.  With channel 1 at its floor (or cap) no
    # budget is left for channel 0 alone.
    objs, gamma = [LogCapacity(1, 1e-310, 1), AfRelay(1, 0.5, 1)], [0.0, 2.0]
    problem = SimplexProblem(objs, 2.0, gamma) if enumerate_ is enumerate_p1 else \
        BoxProblem(objs, 2.0, gamma, [None, 3.0])
    failures = []

    def recorded(*args, _solve=oracle.solve_water_level, **kwargs):
        try:
            return _solve(*args, **kwargs)
        except BracketFailure as exc:
            failures.append(str(exc))
            raise
    monkeypatch.setattr(oracle, "solve_water_level", recorded)
    res = enumerate_(problem)
    assert failures == ["could not bracket the water level from below"]
    assert res.powers == [0.0, 2.0]
    assert check_conditions(problem, res.powers, tolerance=1e-8).passed


def _oracle_lines_run(call):
    """``call()``'s result and the line numbers it ran in ``oracle``."""
    lines, previous = set(), sys.gettrace()

    def trace(frame, event, arg):
        if frame.f_code.co_filename != oracle.__file__:
            return None
        if event == "line":
            lines.add(frame.f_lineno)
        return trace
    sys.settrace(trace)
    try:
        return call(), lines
    finally:
        sys.settrace(previous)


def test_projected_gradient_stops_where_no_step_is_accepted():
    # The first step's projection stops 1.07e-15 over the budget, within its
    # 1e-15 * (1 + cap) tolerance, at the optimum's vertex (0.08, 0).  Every
    # later trial lands nearer the budget on channel 0, so its value is a
    # rounding lower at all 60 halvings: the ascent stops, and the polish
    # keeps the vertex.
    problem = SimplexProblem([LogCapacity(1e4, 1, 1), LogCapacity(1e3, 1, 10)], 0.08)
    res, lines = _oracle_lines_run(lambda: projected_gradient(problem))
    source, first = inspect.getsourcelines(oracle.projected_gradient)
    stop = first + 1 + next(i for i, line in enumerate(source) if "if not accepted:" in line)
    assert source[stop - first].strip() == "break" and stop in lines
    assert res.candidates == 2
    assert res.powers == pytest.approx(solve_p1_lower(problem).powers, abs=1e-14)
    assert check_conditions(problem, res.powers, tolerance=1e-8).passed


def test_projected_gradient_refuses_a_trial_over_the_budget():
    # _project can leave a trial over the budget after its rounds of clip
    # and cap projection; the ascent refuses it and halves the step, as the
    # polish refuses a transfer over a cap.
    problem = SimplexProblem([AfRelay(4e5, 0.7, 2), LogCapacity(4e5, 7, 450),
                              InverseMse(5e5, 2, 400), AfRelay(3e5, 0.5, 1.5)],
                             0.005, [0, 1.6e-4, 1e-4, 5e-5])
    res = projected_gradient(problem)
    assert sum(res.powers) == pytest.approx(0.005, rel=1e-11)
    assert check_conditions(problem, res.powers, tolerance=1e-8).passed


def test_grid_search_scores_a_group_budget_below_its_floors_as_minus_inf(monkeypatch):
    # Group 0's tau is one ulp above 2, the grid's top point: the budget
    # left, 3 - tau, lies 4e-16 below group 1's floor of 1, within the grid's
    # 1e-12 slack, so that point scores -inf without a solve of group 1.
    tau = math.nextafter(2.0, 3.0)
    problem = FairProblem([[LogCapacity(1, 2, 1)], [LogCapacity(1, 1, 1)]], 3.0,
                          lower_bounds=[[0.0], [1.0]], upper_bounds=[[tau], [None]])
    solves = []

    def recorded(*args, _fill=oracle.water_fill):
        solves.append(args[2])
        return _fill(*args)
    monkeypatch.setattr(oracle, "water_fill", recorded)
    res = grid_search(problem)
    assert len(solves) == res.candidates - 1 and min(solves) >= 1.0
    solution = solve_maxmin(problem)
    assert check_conditions(problem, solution, tolerance=1e-8).passed
    assert res.objective_value == pytest.approx(solution.t, abs=1e-5)
    assert res.objective_value <= solution.t


def test_three_way_agreement_on_box(rng):
    for _ in range(5):
        problem = random_box("inverse_mse", rng, 3)
        en = enumerate_box(problem)
        pg = projected_gradient(problem)
        gr = grid_search(problem)
        scale = 1 + abs(en.objective_value)
        assert abs(pg.objective_value - en.objective_value) <= 1e-5 * scale
        assert abs(gr.objective_value - en.objective_value) <= 1e-4 * scale
        assert gr.objective_value <= en.objective_value + 1e-9 * scale


@pytest.mark.parametrize("tau,power", [(None, 2.0), (1.5, 1.5)])
def test_grid_search_single_channel(tau, power):
    # One channel leaves no free grid coordinate: its power is the budget,
    # clipped at tau.
    problem = BoxProblem([LogCapacity(1, 1, 1)], 2.0, upper_bounds=[tau])
    res = grid_search(problem)
    assert res.powers == [power]
    assert res.candidates == 1
    assert check_conditions(problem, res.powers).passed


def test_ascending_check_leaves_numpy_ma_unimported():
    # Residuals on criterion 5's generator: test_certificates.py compares
    # them with the reference checker, on solved and perturbed powers.
    script = """
import sys
from waterline import AscendingProblem, LogCapacity, check_conditions, solve_ascending
problem = AscendingProblem([LogCapacity(1, 2, 1), LogCapacity(1, 0.5, 1)], [1.0, 3.0])
powers = solve_ascending(problem).powers
assert check_conditions(problem, powers).passed  # the last cap tight
assert check_conditions(problem, [0.5, 0.5]).residuals["prefix_violation"] == 0.0
assert "numpy.ma" not in sys.modules
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
